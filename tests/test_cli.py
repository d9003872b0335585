"""Command line behavior: argument validation, outputs, and determinism."""

import csv
import json
import math
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from gpprog import EolForecast, EvaluationReport, OriginRecord, TrainConfig, TrainingError
from gpprog import UsageError
from gpprog import __version__, find_eol, load_csv, model_for_series, train
from gpprog import cli
from gpprog.cli import COMMANDS, main, parse_args


def write_cell_csv(path, cells, header=("cell_id", "cycle", "capacity")):
    """cells: {cell_id: (cycles, capacities)} in raw amp-hours."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for cid, (cycles, caps) in cells.items():
            for x, y in zip(cycles, caps):
                writer.writerow([cid, repr(float(x)), repr(float(y))])
    return path


@pytest.fixture()
def single_cell_csv(tmp_path):
    x = np.arange(1.0, 19.0)
    y = 1.9 * (1.0 - 0.024 * (x - 1.0)) + 0.0008 * np.sin(x)
    return str(write_cell_csv(tmp_path / "cell.csv", {"X1": (x, y)}))


@pytest.fixture()
def fleet_csv(tmp_path):
    cells = {}
    for i, cid in enumerate(("F1", "F2", "F3")):
        x = np.arange(1.0, 15.0)
        y = 2.0 * (1.0 - (0.026 + 0.004 * i) * (x - 1.0))
        cells[cid] = (x, y)
    return str(write_cell_csv(tmp_path / "fleet.csv", cells))


def read_tree(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def key_tree(value):
    """The nested keys of a JSON value with None at the leaves; a non-empty
    list of objects becomes the distinct trees of its items."""
    if isinstance(value, dict):
        return {k: key_tree(v) for k, v in value.items()}
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        trees = []
        for item in map(key_tree, value):
            if item not in trees:
                trees.append(item)
        return trees
    return None


def command_argv(command, single_cell_csv, fleet_csv):
    """One small run of ``command`` on the tiny fixture data, without --out."""
    extra = {
        "fit": ["--kernel", "ma5"],
        "kernel-search": ["--bases", "se"],
        "forecast": ["--kernel", "ma5", "--start", "0.5"],
        "lookahead": ["--kernel", "ma5", "--horizons", "1,3", "--start", "0.5", "--warm-start"],
        "evaluate": ["--kernel", "ma5", "--start", "0.55", "--warm-start"],
        "mogp-evaluate": ["--kernel", "ma5", "--start", "0.6", "--target", "F2",
                          "--train-cells", "F1", "--warm-start"],
    }[command]
    data = fleet_csv if command == "mogp-evaluate" else single_cell_csv
    return [command, "--data", data, "--restarts", "1", *extra]


# the options each subcommand reads besides the ones every subcommand reads;
# any other option is a usage error
COMMON = "--data --schema --target --mean --restarts --seed --jobs --out".split()
READS = {
    "fit": "--kernel",
    "kernel-search": "--bases",
    "forecast": "--kernel --eol --start",
    "lookahead": "--kernel --start --horizons --warm-start",
    "evaluate": "--kernel --eol --start --warm-start",
    "mogp-evaluate": "--kernel --eol --start --warm-start --train-cells",
}
ACCEPTS = {command: {*COMMON, *extra.split()} for command, extra in READS.items()}
DATA = Path(__file__).resolve().parents[1] / "data"
# a valid value of each option, by itself, on the bundled data
SAMPLE = {
    "--data": [str(DATA / "a1.csv")], "--schema": ["cycle=cycle"], "--target": ["A1"],
    "--mean": ["zero"], "--restarts": ["2"], "--seed": ["3"], "--jobs": ["1"],
    "--out": ["elsewhere"], "--kernel": ["ma3"], "--eol": ["0.8"], "--start": ["0.5"],
    "--horizons": ["1,3"], "--warm-start": [], "--train-cells": ["C1"], "--bases": ["se"],
}


def base_argv(command):
    """The least argv that ``command`` parses, on the bundled data."""
    if command == "mogp-evaluate":
        return [command, "--data", str(DATA / "c.csv"), "--target", "C3", "--train-cells", "C2"]
    return [command, "--data", str(DATA / "a1.csv")]


def manifest(command):
    """The key tree of ``command``'s manifest.json: the options it reads."""
    read = sorted(flag[2:].replace("-", "_") for flag in ACCEPTS[command])
    return {
        "arguments": dict.fromkeys(["command", *read]),
        "versions": dict.fromkeys(["gpprog", "numpy", "python", "scipy"]),
    }


MODEL = {
    **dict.fromkeys(["kernel", "mean", "nlml", "lml", "noise_variance", "n_restarts"]),
    "hyperparameters": dict.fromkeys(["ma5.length_scale", "ma5.output_scale", "noise.variance"]),
    "mean_params": {"value": None},
}
EOL = dict.fromkeys(["c", "current_x", "threshold", "eol_mean", "eol_lower", "eol_upper"])
REPORT = {
    "report.csv": ["c", "current_x", "rmse_q", "eol_mean", "eol_lower", "eol_upper",
                   "eol_estimate", "clamped", "failed"],
    "report.json": {
        **dict.fromkeys(["cell_id", "threshold", "true_eol", "horizon_x", "rmse_eol",
                         "n_records", "n_failed"]),
        "records": [{
            **dict.fromkeys(["c", "current_x", "rmse_q", "eol_estimate", "clamped", "failed",
                             "error"]),
            "eol": EOL,
        }],
    },
}
# every file each subcommand writes: a JSON file's key tree, a CSV file's header row
OUTPUT_SCHEMA = {
    "fit": {"manifest.json": manifest("fit"), "model.json": MODEL},
    "kernel-search": {
        "manifest.json": manifest("kernel-search"),
        "search.csv": ["kernel", "lml", "hyperparameters"],
        "search.json": {
            "failures": None,
            "ranking": [{
                **dict.fromkeys(["kernel", "lml", "nlml"]),
                "hyperparameters": dict.fromkeys([
                    "se.length_scale", "se.output_scale", "se_2.length_scale",
                    "se_2.output_scale", "noise.variance",
                ]),
            }],
        },
    },
    "forecast": {
        "components.csv": ["component", "x", "mean", "sigma"],
        "eol.json": {**EOL, "observed_eol": None},
        "manifest.json": manifest("forecast"),
        "model.json": MODEL,
        "posterior.csv": ["x", "mean", "sigma_latent", "sigma_noisy", "lower_2sigma",
                          "upper_2sigma"],
    },
    "lookahead": {
        "lookahead.csv": ["c", "horizon", "target_x", "predicted", "sigma", "actual"],
        "lookahead.json": {
            "failures": None,
            "n_rows": None,
            "rmse": {"1": None, "3": None},
            "skipped": {"1": None, "3": None},
        },
        "manifest.json": manifest("lookahead"),
    },
    "evaluate": {**REPORT, "manifest.json": manifest("evaluate")},
    "mogp-evaluate": {**REPORT, "manifest.json": manifest("mogp-evaluate")},
}


class TestParseArgs:
    def test_defaults(self, single_cell_csv, monkeypatch):
        monkeypatch.delenv("GPPROG_OUT", raising=False)
        config = parse_args(["lookahead", "--data", single_cell_csv])
        assert config.command == "lookahead"
        assert config.kernel == "MA5+MA3"
        assert config.mean == "CONST"
        assert config.horizons == (5, 10, 20, 40)
        assert config.out == "gpprog-out"
        assert config.jobs == 1 and not config.warm_start

    def test_out_resolution_order(self, single_cell_csv, monkeypatch):
        monkeypatch.setenv("GPPROG_OUT", "/tmp/from-env")
        config = parse_args(["fit", "--data", single_cell_csv])
        assert config.out == "/tmp/from-env"
        config = parse_args(["fit", "--data", single_cell_csv, "--out", "explicit"])
        assert config.out == "explicit"

    def test_schema_parsing(self, single_cell_csv):
        config = parse_args(
            ["fit", "--data", single_cell_csv, "--schema", "cycle=k, capacity=q"]
        )
        assert config.schema == {"cycle": "k", "capacity": "q"}
        with pytest.raises(UsageError, match="canonical=actual"):
            parse_args(["fit", "--data", single_cell_csv, "--schema", "cycle"])

    def test_kernel_normalized(self, single_cell_csv):
        config = parse_args(["fit", "--data", single_cell_csv, "--kernel", "ma3+noise"])
        assert config.kernel == "MA3+NOISE"

    def test_train_cells_and_bases_split(self, fleet_csv):
        config = parse_args(
            ["mogp-evaluate", "--data", fleet_csv, "--target", "F2", "--train-cells", "F1, F3"]
        )
        assert config.train_cells == ("F1", "F3")
        config = parse_args(["kernel-search", "--data", fleet_csv, "--bases", "se,ma3"])
        assert config.bases == ("SE", "MA3")

    @pytest.mark.parametrize(
        "command, argv_extra, message",
        [
            ("evaluate", ["--kernel", "WAT"], "--kernel"),
            ("evaluate", ["--mean", "SPLINE"], "--mean"),
            ("evaluate", ["--eol", "1.2"], "--eol"),
            ("evaluate", ["--start", "0"], "--start"),
            ("lookahead", ["--horizons", "5,x"], "--horizons"),
            ("lookahead", ["--horizons", "0,5"], "--horizons"),
            ("lookahead", ["--horizons", "5,5"], "--horizons"),
            ("evaluate", ["--restarts", "0"], "--restarts"),
            ("evaluate", ["--seed", "-1"], "--seed"),
            ("evaluate", ["--jobs", "0"], "--jobs"),
            ("kernel-search", ["--bases", "WAT"], "--bases"),
            ("kernel-search", ["--bases", "SE,se"], "--bases"),
            ("mogp-evaluate", ["--train-cells", " , "], "--train-cells"),
        ],
    )
    def test_invalid_values_rejected(self, command, argv_extra, message):
        with pytest.raises(UsageError, match=message):
            parse_args(base_argv(command) + argv_extra)

    def test_missing_data_file(self):
        with pytest.raises(UsageError, match="not found"):
            parse_args(["fit", "--data", "/nonexistent/file.csv"])

    def test_mogp_requires_target_and_train_cells(self, fleet_csv, tmp_path, capsys):
        with pytest.raises(UsageError, match="--target"):
            parse_args(["mogp-evaluate", "--data", fleet_csv, "--train-cells", "F1"])
        with pytest.raises(UsageError, match="--train-cells"):
            parse_args(["mogp-evaluate", "--data", fleet_csv, "--target", "F1"])
        out = tmp_path / "o"
        code = main(["mogp-evaluate", "--data", fleet_csv, "--target", "F1", "--out", str(out)])
        assert code == 2
        assert "--train-cells" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(UsageError, match="frobnicate"):
            parse_args(["frobnicate", "--data", "x.csv"])
        assert main(["frobnicate", "--data", "x.csv"]) == 2
        assert "frobnicate" in capsys.readouterr().err


class TestOptionTable:
    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command in READS for flag in sorted(set(SAMPLE) | set(cli.OPTIONS))],
    )
    def test_subcommand_reads_exactly_its_options(self, command, flag, tmp_path, capsys):
        argv = base_argv(command) + [flag, *SAMPLE[flag]]
        if flag in ACCEPTS[command]:
            assert flag[2:].replace("-", "_") in vars(parse_args(argv))
            return
        with pytest.raises(UsageError, match=f"{command} does not read {flag}"):
            parse_args(argv)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_table_has_66_pairs(self):
        assert sum(map(len, ACCEPTS.values())) == 66
        assert set(cli.COMMANDS) == set(READS)

    def test_fit_rejects_the_options_it_ignored(self, tmp_path, capsys):
        argv = ["fit", "--data", str(DATA / "a1.csv"), "--restarts", "1", "--bases", "SE",
                "--warm-start", "--eol", "0.9", "--horizons", "3", "--train-cells", "X"]
        with pytest.raises(UsageError, match="fit does not read"):
            parse_args(argv)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        for flag in ("--bases", "--warm-start", "--eol", "--horizons", "--train-cells"):
            assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(READS))
    def test_jobs_above_one_only_where_workers_run(self, command):
        argv = base_argv(command) + ["--jobs", "2"]
        if command in ("fit", "forecast", "lookahead"):
            with pytest.raises(UsageError, match="--jobs"):
                parse_args(argv)
        else:
            assert parse_args(argv).jobs == 2

    @pytest.mark.parametrize(
        "argv_extra",
        [["fit", "--seed", "-1"], ["kernel-search", "--bases", "WAT"],
         ["kernel-search", "--bases", "SE,SE"], ["fit", "--schema", "foo=bar"]],
    )
    def test_bad_value_exits_two_before_writing(self, argv_extra, tmp_path, capsys):
        argv = base_argv(argv_extra[0]) + argv_extra[1:]
        with pytest.raises(UsageError, match=argv_extra[1]):
            parse_args(argv)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert argv_extra[1] in capsys.readouterr().err
        assert not out.exists()


class TestMainExitCodes:
    def test_usage_error_returns_two(self, capsys):
        assert main(["fit", "--data", "/nonexistent/file.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_runtime_usage_error_returns_two(self, fleet_csv, tmp_path, capsys):
        # multi-cell file without --target is only detectable once the data is read
        out = tmp_path / "o"
        code = main(["fit", "--data", fleet_csv, "--out", str(out), "--restarts", "1"])
        assert code == 2
        assert "--target" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, cell",
        [
            (["fit", "--data", str(DATA / "c.csv"), "--target", "X9"], "X9"),
            (base_argv("mogp-evaluate")[:-1] + ["C3"], "C3"),
            (base_argv("mogp-evaluate")[:-1] + ["C1,C1"], "C1"),
            (base_argv("mogp-evaluate")[:-1] + ["C9"], "C9"),
        ],
    )
    def test_cell_mistakes_exit_two_before_writing(self, argv, cell, tmp_path, capsys):
        # the cell ids are checked against the data before anything is written
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert cell in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["forecast", "--data", str(DATA / "a1.csv"), "--start", "0.999"],
             ["'A1'", "start fraction 0.999"]),
            (["forecast", "--data", str(DATA / "a1.csv"), "--start", "0.005"],
             ["'A1'", "start fraction 0.005", "first split at 1 point", "at least two points"]),
            (["lookahead", "--data", str(DATA / "b1.csv"), "--start", "0.999"],
             ["'B1'", "start fraction 0.999"]),
            (["mogp-evaluate", "--data", str(DATA / "c.csv"), "--target", "C3",
              "--train-cells", "C1", "--start", "0.99"],
             ["'C3'", "start fraction 0.99"]),
        ],
        ids=["forecast-no-future", "forecast-one-point", "lookahead", "mogp-evaluate"],
    )
    def test_start_without_room_exits_two_before_writing(self, argv, words, tmp_path, capsys):
        # the library rejects the first split of the forecast cell before any result exists
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in words), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["evaluate", "--data", str(DATA / "b1.csv"), "--eol", "0.8", "--start", "0.95"],
             ["'B1'", "start fraction 0.95", "end of life at cycle 107.006"]),
            (["mogp-evaluate", "--data", str(DATA / "c.csv"), "--target", "C3",
              "--train-cells", "C1", "--start", "0.97"],
             ["'C3'", "start fraction 0.97", "end of life at cycle 130.662"]),
            (["lookahead", "--data", str(DATA / "b1.csv"), "--start", "0.99"],
             ["'B1'", "start fraction 0.99", "smallest horizon, 5,"]),
            (["lookahead", "--data", str(DATA / "b1.csv"), "--start", "0.9",
              "--horizons", "20,40"],
             ["'B1'", "start fraction 0.9", "smallest horizon, 20,"]),
        ],
        ids=["evaluate", "mogp-evaluate", "lookahead", "lookahead-horizons"],
    )
    def test_start_without_origins_exits_two_before_writing(self, argv, words, tmp_path,
                                                            capsys):
        # a split that leaves data after it can still leave no origin: every one
        # past the observed end of life, or every target past the last point
        out = tmp_path / "o"
        assert main(argv + ["--restarts", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in words), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "mogp-evaluate"])
    def test_parallel_warm_start_exits_two_before_writing(self, command, tmp_path, capsys):
        # the backtest rejects warm-started parallel origins before any fit
        out = tmp_path / "o"
        assert main(base_argv(command) + ["--jobs", "2", "--warm-start", "--out", str(out)]) == 2
        assert "warm start" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_returns_one_before_writing(self, tmp_path, monkeypatch, capsys):
        def failing_train(model, config, warm=None):
            raise TrainingError("every restart failed")

        monkeypatch.setattr(cli, "train", failing_train)
        out = tmp_path / "o"
        assert main(["fit", "--data", str(DATA / "a1.csv"), "--out", str(out)]) == 1
        assert "every restart failed" in capsys.readouterr().err
        assert not out.exists()

    def test_one_point_cell_exits_two_before_writing(self, tmp_path, capsys):
        data = write_cell_csv(tmp_path / "one.csv", {"P1": ([1.0], [1.9])})
        out = tmp_path / "o"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 2
        assert "two points, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_start_with_one_origin_runs(self, tmp_path):
        # B1's split 106 of 120 is the last origin before its end of life at 0.8
        out = tmp_path / "o"
        argv = ["evaluate", "--data", str(DATA / "b1.csv"), "--eol", "0.8", "--start", "0.88",
                "--restarts", "1", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "report.json").read_text())["n_records"] == 1

    def test_target_picks_its_cell_from_a_fleet(self):
        config = parse_args(["fit", "--data", str(DATA / "c.csv"), "--target", "C2"])
        assert cli._select(config, cli.load_csv(config.data)).cell_id == "C2"

    @pytest.mark.parametrize(
        "text, words",
        [
            ("battery,k,q\nA,1,1.0\nA,2,0.9\n", "missing columns"),
            ("cell_id,cycle,capacity\nA,1,1.0\nA,two,0.9\n", "unparseable row"),
            ("cell_id,cycle,capacity\nA,1,1.0\nA,1,0.9\n", "bad.csv:3: cell 'A': duplicate cycle"),
        ],
        ids=["header", "malformed-row", "repeated-cycle"],
    )
    def test_malformed_row_returns_two_before_writing(self, text, words, tmp_path, capsys):
        # a mistake in any row of the data file, its header included, is an input
        # error like a mistake in an option
        data = tmp_path / "bad.csv"
        data.write_text(text)
        out = tmp_path / "o"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 2
        assert words in capsys.readouterr().err
        assert not out.exists()

    def test_domain_error_returns_one(self, tmp_path, capsys):
        # capacity never crosses the threshold: evaluation is undefined
        x = np.arange(1.0, 16.0)
        y = 2.0 * (1.0 - 0.001 * x)
        data = write_cell_csv(tmp_path / "flat.csv", {"N1": (x, y)})
        code = main(["evaluate", "--data", str(data), "--out", str(tmp_path / "o"),
                     "--restarts", "1"])
        assert code == 1
        assert "never crosses" in capsys.readouterr().err


class TestFitCommand:
    def test_outputs_and_manifest(self, single_cell_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["fit", "--data", single_cell_csv, "--out", str(out),
                     "--kernel", "MA5", "--restarts", "2", "--seed", "1"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["arguments"]["command"] == "fit"
        assert manifest["arguments"]["kernel"] == "MA5"
        assert manifest["arguments"]["restarts"] == 2
        assert manifest["versions"]["gpprog"] == __version__
        assert "numpy" in manifest["versions"]
        model = json.loads((out / "model.json").read_text())
        assert model["kernel"] == "MA5"
        assert model["lml"] == -model["nlml"]
        assert math.isfinite(model["nlml"])
        assert model["noise_variance"] > 0
        # raw (non-log) hyperparameters, keyed by qualified names
        assert model["hyperparameters"]["ma5.length_scale"] > 0
        assert model["hyperparameters"]["noise.variance"] == pytest.approx(
            model["noise_variance"]
        )
        assert model["n_restarts"] == 3  # 2 LHS + 1 data-informed start

    @pytest.mark.parametrize(
        "command, argv_extra, golden",
        [
            ("fit", ["--kernel", "ma5"], {"kernel": "MA5"}),
            ("kernel-search", ["--bases", "se, per"], {"bases": ["SE", "PER"]}),
            ("forecast", ["--kernel", "ma5", "--start", "0.5"],
             {"kernel": "MA5", "eol": 0.7, "start": 0.5}),
            ("lookahead", ["--kernel", "ma5", "--start", "0.5", "--horizons", "3,7"],
             {"kernel": "MA5", "start": 0.5, "horizons": [3, 7], "warm_start": False}),
            ("evaluate", ["--kernel", "ma5", "--start", "0.55", "--warm-start"],
             {"kernel": "MA5", "eol": 0.7, "start": 0.55, "warm_start": True}),
            ("mogp-evaluate",
             ["--kernel", "ma5", "--start", "0.6", "--target", "F2", "--train-cells", "F1, F3"],
             {"kernel": "MA5", "eol": 0.7, "start": 0.6, "warm_start": False, "target": "F2",
              "train_cells": ["F1", "F3"]}),
        ],
    )
    def test_manifest_arguments_golden(self, command, argv_extra, golden, single_cell_csv,
                                       fleet_csv, tmp_path):
        out = tmp_path / "run"
        data = fleet_csv if command == "mogp-evaluate" else single_cell_csv
        code = main([command, "--data", data, "--out", str(out), "--restarts", "1", *argv_extra])
        assert code == 0
        arguments = json.loads((out / "manifest.json").read_text())["arguments"]
        assert arguments == {
            "command": command,
            "data": data,
            "jobs": 1,
            "mean": "CONST",
            "out": str(out),
            "restarts": 1,
            "schema": None,
            "seed": 0,
            "target": None,
            **golden,
        }

    def test_library_and_cli_run_the_same_fit(self, tmp_path):
        a1 = load_csv(DATA / "a1.csv").series[0]
        result = train(model_for_series(a1, "MA5+MA3"), TrainConfig(n_restarts=2, seed=0))
        out = tmp_path / "fit"
        argv = ["fit", "--data", str(DATA / "a1.csv"), "--restarts", "2", "--seed", "0"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "model.json").read_text())["nlml"] == result.nlml

    def test_does_not_mutate_input(self, single_cell_csv, tmp_path):
        before = open(single_cell_csv, "rb").read()
        main(["fit", "--data", single_cell_csv, "--out", str(tmp_path / "o"),
              "--restarts", "1"])
        assert open(single_cell_csv, "rb").read() == before


class TestForecastCommand:
    def test_outputs(self, single_cell_csv, tmp_path):
        out = tmp_path / "fc"
        code = main(["forecast", "--data", single_cell_csv, "--out", str(out),
                     "--kernel", "MA5+MA3", "--restarts", "1", "--start", "0.5"])
        assert code == 0
        with open(out / "posterior.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"x", "mean", "sigma_latent", "sigma_noisy",
                                "lower_2sigma", "upper_2sigma"}
        xs = [float(r["x"]) for r in rows]
        # integer cycle axis: cycle-resolution grid from the training edge
        assert xs[0] == 9.0
        assert xs[-1] <= 2 * 18.0
        assert np.allclose(np.diff(xs), 1.0)
        for r in rows:
            assert float(r["sigma_noisy"]) >= float(r["sigma_latent"])
            assert float(r["lower_2sigma"]) <= float(r["mean"]) <= float(r["upper_2sigma"])
        with open(out / "components.csv") as fh:
            comp_rows = list(csv.DictReader(fh))
        assert {r["component"] for r in comp_rows} == {"MA5", "MA3", "noise"}
        eol = json.loads((out / "eol.json").read_text())
        assert {"c", "current_x", "threshold", "eol_mean", "eol_lower",
                "eol_upper", "observed_eol"} <= set(eol)
        assert eol["threshold"] == 0.7
        assert (out / "model.json").exists()

    def test_eol_is_read_from_the_written_posterior(self, tmp_path):
        # whole cycles up to the origin and beyond, then 1.5-cycle steps: the
        # grid follows the training prefix, and eol.json is read off the very
        # curves that posterior.csv holds
        x = np.concatenate([np.arange(1.0, 31.0), 30.0 + 1.5 * np.arange(1.0, 21.0)])
        y = 2.0 * (1.0 - 0.004 * (x - 1.0)) + 0.001 * np.sin(x)
        data = write_cell_csv(tmp_path / "mixed.csv", {"M1": (x, y)})
        out = tmp_path / "fc"
        code = main(["forecast", "--data", str(data), "--out", str(out), "--kernel", "MA5",
                     "--restarts", "1", "--start", "0.5", "--eol", "0.9"])
        assert code == 0
        post = np.loadtxt(out / "posterior.csv", delimiter=",", skiprows=1)
        grid, mean, _, _, lower, upper = post.T
        eol = json.loads((out / "eol.json").read_text())
        current_x = eol["current_x"]
        assert current_x == 25.0 and grid[0] == current_x
        assert np.all(np.diff(grid) == 1.0)
        eol_mean = find_eol(grid, mean, 0.9, current_x)
        assert math.isfinite(eol_mean)
        assert eol["eol_mean"] == eol_mean
        assert eol["eol_lower"] == min(find_eol(grid, lower, 0.9, current_x), eol_mean)
        assert eol["eol_upper"] == max(find_eol(grid, upper, 0.9, current_x), eol_mean)

    def test_start_must_leave_future_data(self, single_cell_csv, tmp_path, capsys):
        code = main(["forecast", "--data", single_cell_csv,
                     "--out", str(tmp_path / "o"), "--start", "0.99"])
        assert code == 2


class TestKernelSearchCommand:
    def test_ranking_outputs(self, single_cell_csv, tmp_path):
        out = tmp_path / "ks"
        code = main(["kernel-search", "--data", single_cell_csv, "--out", str(out),
                     "--bases", "SE,MA3", "--restarts", "1"])
        assert code == 0
        payload = json.loads((out / "search.json").read_text())
        kernels = [e["kernel"] for e in payload["ranking"]]
        assert sorted(kernels) == sorted(["SE+SE", "SE+MA3", "MA3+MA3"])
        lmls = [e["lml"] for e in payload["ranking"]]
        assert lmls == sorted(lmls, reverse=True)
        assert payload["failures"] == []
        with open(out / "search.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kernel", "lml", "hyperparameters"]
        assert len(rows) == 4


class TestLookaheadCommand:
    def test_outputs(self, single_cell_csv, tmp_path):
        out = tmp_path / "la"
        code = main(["lookahead", "--data", single_cell_csv, "--out", str(out),
                     "--kernel", "MA5", "--horizons", "1,3", "--start", "0.5",
                     "--restarts", "1", "--warm-start"])
        assert code == 0
        payload = json.loads((out / "lookahead.json").read_text())
        assert set(payload["rmse"]) <= {"1", "3"}
        assert payload["n_rows"] > 0
        with open(out / "lookahead.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "c"
        assert len(rows) == payload["n_rows"] + 1


class TestEvaluateCommand:
    def test_outputs(self, single_cell_csv, tmp_path):
        out = tmp_path / "ev"
        code = main(["evaluate", "--data", single_cell_csv, "--out", str(out),
                     "--kernel", "MA5", "--start", "0.55", "--restarts", "1",
                     "--warm-start"])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["cell_id"] == "X1"
        assert payload["threshold"] == 0.7
        assert payload["n_records"] == len(payload["records"])
        assert math.isfinite(payload["rmse_eol"])
        with open(out / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == payload["n_records"] + 1


class TestMogpEvaluateCommand:
    def test_outputs(self, fleet_csv, tmp_path):
        out = tmp_path / "mg"
        code = main(["mogp-evaluate", "--data", fleet_csv, "--out", str(out),
                     "--target", "F2", "--train-cells", "F1", "--kernel", "MA5",
                     "--start", "0.6", "--restarts", "1", "--warm-start"])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["cell_id"] == "F2"
        assert payload["n_records"] >= 1

    def test_unknown_cells_rejected(self, fleet_csv, tmp_path, capsys):
        code = main(["mogp-evaluate", "--data", fleet_csv,
                     "--out", str(tmp_path / "o"), "--target", "F2",
                     "--train-cells", "F9"])
        assert code == 2
        assert "F9" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestOutputFiles:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_files_and_their_schema(self, command, single_cell_csv, fleet_csv, tmp_path):
        out = tmp_path / "run"
        assert main(command_argv(command, single_cell_csv, fleet_csv) + ["--out", str(out)]) == 0
        written = {}
        for path in sorted(out.iterdir()):
            with open(path, newline="") as fh:
                if path.suffix == ".json":
                    written[path.name] = key_tree(json.load(fh))
                else:
                    written[path.name] = next(csv.reader(fh))
        assert written == OUTPUT_SCHEMA[command]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rerun_is_bit_identical(self, command, single_cell_csv, fleet_csv, tmp_path):
        out = tmp_path / "run"
        argv = command_argv(command, single_cell_csv, fleet_csv) + ["--out", str(out)]
        assert main(argv) == 0
        first = read_tree(out)
        assert main(argv) == 0
        assert read_tree(out) == first

    def test_failed_origin_is_empty_cells_and_null(self, single_cell_csv, tmp_path, monkeypatch):
        forecast = EolForecast(c=5, current_x=5.0, threshold=0.7, eol_mean=20.5,
                               eol_lower=18.0, eol_upper=math.inf)
        report = EvaluationReport(
            cell_id="X1", threshold=0.7, true_eol=19.0, horizon_x=36.0,
            records=(
                OriginRecord(5, 5.0, 0.25, forecast, 20.5),
                OriginRecord(6, 6.0, None, None, None, failed=True, error="boom"),
            ),
            rmse_eol=1.5,
        )
        monkeypatch.setattr(cli, "evaluate", lambda *args, **kwargs: report)
        out = tmp_path / "ev"
        assert main(["evaluate", "--data", single_cell_csv, "--out", str(out)]) == 0
        assert (out / "report.csv").read_text().splitlines()[1:] == [
            "5,5.0,0.25,20.5,18.0,inf,20.5,0,0",
            "6,6.0,,,,,,0,1",
        ]
        payload = json.loads((out / "report.json").read_text())
        assert payload["n_records"] == 2 and payload["n_failed"] == 1
        assert payload["records"][0]["eol"]["eol_upper"] == math.inf
        assert payload["records"][1] == {
            "c": 6, "current_x": 6.0, "rmse_q": None, "eol": None, "eol_estimate": None,
            "clamped": False, "failed": True, "error": "boom",
        }


class TestSchemaThroughCli:
    def test_renamed_columns(self, tmp_path):
        x = np.arange(1.0, 16.0)
        y = 1.8 * (1.0 - 0.025 * (x - 1.0))
        data = write_cell_csv(tmp_path / "odd.csv", {"Z": (x, y)},
                              header=("battery", "k", "q"))
        out = tmp_path / "o"
        code = main(["fit", "--data", str(data), "--out", str(out),
                     "--schema", "cell_id=battery,cycle=k,capacity=q",
                     "--kernel", "MA5", "--restarts", "1"])
        assert code == 0
        assert (out / "model.json").exists()


class TestConsoleScript:
    def test_entry_point_runs(self, single_cell_csv, tmp_path):
        exe = shutil.which("gpprog")
        assert exe, "console script not installed"
        result = subprocess.run(
            [exe, "fit", "--data", single_cell_csv, "--out", str(tmp_path / "o"),
             "--kernel", "MA5", "--restarts", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "o" / "model.json").exists()
