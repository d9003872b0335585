"""Command line interface.

Six subcommands cover the workflow: fit one model, search compound kernels,
forecast capacity and end of life from a partial history, sweep fixed
lookahead horizons, and evaluate end-of-life forecasts at rolling origins
for one cell or within its fleet.  :data:`OPTIONS` declares each option once,
with an argparse type that checks it through the library's own validators;
:data:`COMMANDS` lists each subcommand once, with its implementation and the
options it reads.  A run loads the CSV and picks the cell (for
mogp-evaluate, the fleet) before it writes ``manifest.json`` (the options
read, and library versions).  Any other option, a bad value, a missing
required one, or an unknown, repeated or missing cell id is a
:class:`UsageError` (exit 2) before anything is written.  With --jobs 1 a
rerun reproduces every output file byte for byte.

This is the one module that knows the output formats.  The library returns
plain records (:class:`~gpprog.prognostics.OriginRecord`,
:class:`~gpprog.prognostics.LookaheadRow`,
:class:`~gpprog.optimize.SearchEntry`, ...); a JSON payload is
``dataclasses.asdict`` of a record plus a few derived keys, and every CSV
goes through :func:`_write_csv` and its one cell rule, so a field added to
a record reaches the JSON files with no change here.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dataset import SplitSpec, _resolve_schema, load_csv, split
from .errors import GpprogError, UndefinedMetricError, UsageError
from .kernels import parse_kernel
from .meanfn import MEAN_TOKENS, mean_params
from .optimize import DEFAULT_BASES, TrainConfig, candidate_pairs, kernel_search
from .optimize import model_for_series, train
from .prognostics import (
    DEFAULT_HORIZONS,
    HORIZON_FACTOR,
    LookaheadRow,
    _check_horizons,
    evaluate,
    eol_crossings,
    evaluate_mogp,
    forecast_grid,
    lookahead,
    true_end_of_life,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # every parse error reaches main as a UsageError
        raise UsageError(message)


def _validated(parse):
    """An argparse type from a parser that raises ValueError or a GpprogError."""

    def convert(text: str):
        try:
            return parse(text)
        except (GpprogError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _existing_file(text: str) -> str:
    if not Path(text).is_file():
        raise ValueError(f"file not found: {text}")
    return text


def _parse_schema(text: str) -> dict:
    mapping = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"entries must look like canonical=actual, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    _resolve_schema(mapping)  # rejects unknown canonical names
    return mapping


def _items(text: str) -> tuple[str, ...]:
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


def _kernel(text: str) -> str:
    parse_kernel(text)
    return text.strip().upper()


def _bases(text: str) -> tuple[str, ...]:
    bases = _items(text.upper())
    candidate_pairs(bases)
    return bases


def _fraction(text: str) -> float:
    if not 0.0 < float(text) < 1.0:
        raise ValueError(f"must lie in (0, 1), got {text}")
    return float(text)


def _jobs(text: str) -> int:
    if int(text) < 1:
        raise ValueError(f"must be >= 1, got {text}")
    return int(text)


# every option once, as its add_argument settings; each type validates and
# normalizes the value, and parse_args turns its errors into usage errors
OPTIONS = {
    "--data": dict(required=True, type=_existing_file, help="input CSV path"),
    "--schema": dict(type=_parse_schema, help="column mapping, e.g. cycle=cyc"),
    "--target": dict(help="cell id to model"),
    "--mean": dict(default="CONST", type=lambda text: text.strip().upper(), choices=MEAN_TOKENS,
                   help="mean function"),
    "--restarts": dict(default=TrainConfig().n_restarts, help="optimizer restarts",
                       type=lambda text: TrainConfig(n_restarts=int(text)).n_restarts),
    "--seed": dict(default=TrainConfig().seed, help="random seed",
                   type=lambda text: TrainConfig(seed=int(text)).seed),
    "--jobs": dict(default=1, type=_jobs, help="worker processes (1 = deterministic)"),
    "--out": dict(help="output directory (default $GPPROG_OUT or ./gpprog-out)"),
    "--kernel": dict(default="MA5+MA3", type=_kernel,
                     help="kernel expression (SE|MA3|MA5|PER|NOISE joined by +)"),
    "--eol": dict(default=0.7, type=_fraction, help="end-of-life capacity threshold"),
    "--start": dict(default=0.2, type=_fraction, help="starting fraction of the data"),
    "--horizons": dict(default=DEFAULT_HORIZONS, type=lambda text: _check_horizons(text.split(",")),
                       help="lookahead horizons, comma separated"),
    "--warm-start": dict(action="store_true", help="reuse the previous optimum in rolling sweeps"),
    "--train-cells": dict(type=_items, help="companion cell ids, comma separated"),
    "--bases": dict(default=DEFAULT_BASES, type=_bases, help="base kernels, comma separated"),
}


# --- output helpers -----------------------------------------------------------


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def _cell(value) -> str:
    """One CSV cell: None empty, booleans 0/1, strings as they are, dicts as
    sorted JSON, numbers by ``repr`` (which round-trips a float)."""
    if type(value) is float:  # nearly every cell; checked first to keep the float path cheap
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return repr(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


# report.csv flattens each record's EolForecast into its three estimates
_REPORT_HEADER = (
    "c", "current_x", "rmse_q", "eol_mean", "eol_lower", "eol_upper", "eol_estimate",
    "clamped", "failed",
)


def _report_row(record) -> tuple:
    eol = record.eol
    estimates = (None,) * 3 if eol is None else (eol.eol_mean, eol.eol_lower, eol.eol_upper)
    return (
        record.c, record.current_x, record.rmse_q, *estimates, record.eol_estimate,
        record.clamped, record.failed,
    )


def _write_report(outdir: Path, report) -> None:
    payload = asdict(report)
    payload["n_records"] = len(report.records)
    payload["n_failed"] = report.n_failed
    _write_json(outdir / "report.json", payload)
    _write_csv(outdir / "report.csv", _REPORT_HEADER, map(_report_row, report.records))


def _manifest(config: argparse.Namespace) -> dict:
    return {
        "arguments": vars(config),
        "versions": {
            "gpprog": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }


def _select(config: argparse.Namespace, fleet):
    """The cell the subcommand reads (for mogp-evaluate, the fleet); a cell id
    that is unknown, repeated or missing is a UsageError."""
    if config.target is None:  # mogp-evaluate requires --target
        if fleet.m == 1:
            return fleet.series[0]
        raise UsageError(f"data contains cells {list(fleet.cell_ids)}; choose one with --target")
    named = [*getattr(config, "train_cells", ()), config.target]
    unknown = [c for c in named if c not in fleet.cell_ids]
    if unknown:
        raise UsageError(f"cells {unknown} not present in {config.data}")
    repeated = sorted({c for c in named if named.count(c) > 1})
    if repeated:
        raise UsageError(f"cells {repeated} named more than once in --target and --train-cells")
    return fleet if config.command == "mogp-evaluate" else fleet.get(config.target)


def _model_summary(config: argparse.Namespace, result) -> dict:
    model = result.model
    return {
        "kernel": config.kernel,
        "mean": config.mean,
        "nlml": result.nlml,
        "lml": result.lml,
        "noise_variance": model.noise_variance,
        "hyperparameters": model.hyperparameters().raw(),
        "mean_params": mean_params(model.mean),
        "n_restarts": len(result.restarts),
    }


# --- command implementations ----------------------------------------------------


def _train_config(config: argparse.Namespace) -> TrainConfig:
    return TrainConfig(n_restarts=config.restarts, seed=config.seed)


def _cmd_fit(config: argparse.Namespace, series, outdir: Path) -> None:
    model = model_for_series(series, config.kernel, config.mean)
    result = train(model, _train_config(config), extra_starts=[model.opt_vector()])
    _write_json(outdir / "model.json", _model_summary(config, result))


def _cmd_kernel_search(config: argparse.Namespace, series, outdir: Path) -> None:
    result = kernel_search(series, config.bases, _train_config(config), config.mean, config.jobs)
    payload = {
        "ranking": [{**asdict(e), "lml": e.lml} for e in result.entries],
        "failures": [{"kernel": k, "error": msg} for k, msg in result.failures],
    }
    _write_json(outdir / "search.json", payload)
    _write_csv(
        outdir / "search.csv",
        ("kernel", "lml", "hyperparameters"),
        ((e.kernel, e.lml, e.hyperparameters) for e in result.entries),
    )


def _cmd_forecast(config: argparse.Namespace, series, outdir: Path) -> None:
    c = math.ceil(config.start * len(series))
    if c >= len(series):
        raise UsageError(f"--start {config.start} leaves no data to forecast")
    spec = SplitSpec(max(1, c), config.eol)
    prefix, _ = split(series, spec)
    model = model_for_series(prefix, config.kernel, config.mean)
    result = train(model, _train_config(config), extra_starts=[model.opt_vector()])
    current_x = float(prefix.cycles[-1])
    horizon_x = HORIZON_FACTOR * float(series.cycles[-1])
    grid = forecast_grid(current_x, horizon_x, prefix.cycles)
    post = result.model.decompose_posterior(grid)  # grammar kernels are sums, never products
    lower, upper = post.bounds()
    columns = (grid, post.mean, post.sigma_latent, post.sigma_noisy, lower, upper)
    _write_csv(
        outdir / "posterior.csv",
        ("x", "mean", "sigma_latent", "sigma_noisy", "lower_2sigma", "upper_2sigma"),
        zip(*(c.tolist() for c in columns)),
    )
    _write_csv(
        outdir / "components.csv",
        ("component", "x", "mean", "sigma"),
        (
            (comp.name, x, mean, sigma)
            for comp in post.components
            for x, mean, sigma in zip(
                grid.tolist(), comp.mean.tolist(), np.sqrt(comp.variance).tolist()
            )
        ),
    )
    forecast = eol_crossings(post, spec, current_x)
    try:
        observed = true_end_of_life(series, config.eol)
    except UndefinedMetricError:
        observed = None
    _write_json(outdir / "eol.json", {**asdict(forecast), "observed_eol": observed})
    _write_json(outdir / "model.json", _model_summary(config, result))


def _cmd_lookahead(config: argparse.Namespace, series, outdir: Path) -> None:
    result = lookahead(
        series, kernel_expr=config.kernel, mean_expr=config.mean, horizons=config.horizons,
        start_fraction=config.start, config=_train_config(config), warm_start=config.warm_start,
    )
    payload = {
        # str keys keep the file's key order (10,20,40,5); int keys would sort as 5,10,20,40
        "rmse": {str(n): v for n, v in result.rmse.items()},
        "skipped": {str(n): v for n, v in result.skipped.items()},
        "failures": [{"c": c, "error": msg} for c, msg in result.failures],
        "n_rows": len(result.rows),
    }
    _write_json(outdir / "lookahead.json", payload)
    _write_csv(
        outdir / "lookahead.csv",
        [f.name for f in fields(LookaheadRow)],
        map(astuple, result.rows),
    )


def _rolling(config: argparse.Namespace) -> dict:
    """The keyword arguments evaluate and evaluate_mogp share."""
    return dict(kernel_expr=config.kernel, mean_expr=config.mean, start_fraction=config.start,
                eol_threshold=config.eol, config=_train_config(config),
                warm_start=config.warm_start, jobs=config.jobs)


def _cmd_evaluate(config: argparse.Namespace, series, outdir: Path) -> None:
    _write_report(outdir, evaluate(series, **_rolling(config)))


def _cmd_mogp_evaluate(config: argparse.Namespace, fleet, outdir: Path) -> None:
    report = evaluate_mogp(fleet, config.target, config.train_cells, **_rolling(config))
    _write_report(outdir, report)


_COMMON = "--data --schema --target --mean --restarts --seed --jobs --out".split()
# fit, forecast and lookahead each train one chain of models, which one worker runs
_ONE_CHAIN = {"--jobs": dict(choices=(1,))}
_FLEET = {"--target": dict(required=True), "--train-cells": dict(required=True)}

# every subcommand once: its implementation, the options it reads besides the
# _COMMON ones that every subcommand reads, and the OPTIONS settings it overrides
COMMANDS = {
    "fit": (_cmd_fit, "--kernel", _ONE_CHAIN),
    "kernel-search": (_cmd_kernel_search, "--bases", {}),
    "forecast": (_cmd_forecast, "--kernel --eol --start", _ONE_CHAIN),
    "lookahead": (_cmd_lookahead, "--kernel --start --horizons --warm-start", _ONE_CHAIN),
    "evaluate": (_cmd_evaluate, "--kernel --eol --start --warm-start", {}),
    "mogp-evaluate": (
        _cmd_mogp_evaluate, "--kernel --eol --start --warm-start --train-cells", _FLEET,
    ),
}


def parse_args(argv=None) -> argparse.Namespace:
    """The options the subcommand reads, each validated and normalized by its
    type, with the output directory resolved.  Any other option, a bad value
    or a missing required option raises :class:`UsageError`."""
    description = "Gaussian process capacity forecasting and end-of-life evaluation"
    parser = _Parser(prog="gpprog", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, overrides) in COMMANDS.items():
        command = sub.add_parser(name)
        for flag in (*_COMMON, *options.split()):
            settings = {**OPTIONS[flag], **overrides.get(flag, {})}
            if "type" in settings:
                settings["type"] = _validated(settings["type"])
            command.add_argument(flag, **settings)
    args, unread = parser.parse_known_args(argv)
    if unread:
        parser.error(f"{args.command} does not read {' '.join(unread)}")
    if args.jobs > 1 and getattr(args, "warm_start", False):
        parser.error("--warm-start chains fits sequentially; drop it or use --jobs 1")
    args.out = args.out or os.environ.get("GPPROG_OUT") or "gpprog-out"
    return args


def run(config: argparse.Namespace) -> None:
    data = _select(config, load_csv(config.data, config.schema))
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "manifest.json", _manifest(config))
    COMMANDS[config.command][0](config, data, outdir)


def main(argv=None) -> int:
    try:
        run(parse_args(argv))
    except GpprogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
