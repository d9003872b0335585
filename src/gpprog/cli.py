"""Command line interface.

Subcommands cover the full workflow: fit a single model, search compound
kernels, forecast capacity and end of life from a partial history, run
fixed-horizon lookahead sweeps, and run rolling end-of-life evaluations in
single- or multi-output form.  Every run writes a ``manifest.json`` with
the resolved configuration, then loads the CSV once and hands the chosen
cell (or, for mogp-evaluate, the fleet) to the subcommand.  ``forecast``
reads its end-of-life estimates off the same posterior it writes to
``posterior.csv``.  Re-running the same manifest with --jobs 1 reproduces
the output files byte for byte (no timestamps are recorded).

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
from .dataset import SplitSpec, load_csv, split
from .errors import ConfigError, GpprogError, UndefinedMetricError, UsageError
from .kernels import parse_kernel
from .meanfn import MEAN_TOKENS, mean_params
from .optimize import TrainConfig, kernel_search, model_for_series, train
from .prognostics import (
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

COMMANDS = ("fit", "kernel-search", "forecast", "lookahead", "evaluate", "mogp-evaluate")
DEFAULT_BASES = "SE,MA3,MA5,PER"


def _parse_schema(text: str | None) -> dict | None:
    if text is None:
        return None
    mapping = {}
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"--schema entries must look like canonical=actual, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of integers") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpprog",
        description="Gaussian process capacity forecasting and end-of-life evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--data", required=True, help="input CSV path")
        p.add_argument("--schema", default=None, help="column mapping, e.g. cycle=cyc")
        p.add_argument("--kernel", default="MA5+MA3", help="kernel expression (SE|MA3|MA5|PER|NOISE joined by +)")
        p.add_argument("--mean", default="CONST", help="mean function (ZERO|CONST|EXPDEG)")
        p.add_argument("--eol", type=float, default=0.7, help="end-of-life capacity threshold")
        p.add_argument("--start", type=float, default=0.2, help="starting fraction of the data")
        p.add_argument("--horizons", default="5,10,20,40", help="lookahead horizons, comma separated")
        p.add_argument("--restarts", type=int, default=10, help="optimizer restarts")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers (1 = deterministic)")
        p.add_argument("--out", default=None, help="output directory (default $GPPROG_OUT or ./gpprog-out)")
        p.add_argument("--warm-start", action="store_true", help="reuse the previous optimum in rolling sweeps")
        p.add_argument("--target", default=None, help="cell id to model")
        p.add_argument("--train-cells", default=None, help="companion cell ids, comma separated")
        p.add_argument("--bases", default=DEFAULT_BASES, help="base kernels for kernel-search")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed arguments, validated and normalized: the output directory
    resolved, the kernel, mean and bases upper-cased, the list options as
    tuples and the schema as a dict."""
    args = build_parser().parse_args(argv)
    if not Path(args.data).is_file():
        raise UsageError(f"--data file not found: {args.data}")
    try:
        parse_kernel(args.kernel)
    except GpprogError as exc:
        raise UsageError(f"--kernel: {exc}") from None
    if args.mean.strip().upper() not in MEAN_TOKENS:
        expected = f"{', '.join(MEAN_TOKENS[:-1])}, or {MEAN_TOKENS[-1]}"
        raise UsageError(f"--mean must be {expected}, got {args.mean!r}")
    if not (0.0 < args.eol < 1.0):
        raise UsageError(f"--eol must lie in (0, 1), got {args.eol}")
    if not (0.0 < args.start < 1.0):
        raise UsageError(f"--start must lie in (0, 1), got {args.start}")
    try:
        args.horizons = _check_horizons(_parse_int_list(args.horizons, "--horizons"))
    except ConfigError as exc:
        raise UsageError(f"--horizons: {exc}") from None
    if args.restarts < 1:
        raise UsageError(f"--restarts must be >= 1, got {args.restarts}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs > 1 and args.warm_start:
        raise UsageError("--warm-start chains fits sequentially; drop it or use --jobs 1")
    args.out = args.out or os.environ.get("GPPROG_OUT") or "gpprog-out"
    args.train_cells = tuple(
        s.strip() for s in args.train_cells.split(",") if s.strip()
    ) if args.train_cells else ()
    args.bases = tuple(s.strip().upper() for s in args.bases.split(",") if s.strip())
    if args.command == "mogp-evaluate":
        if args.target is None:
            raise UsageError("mogp-evaluate requires --target")
        if not args.train_cells:
            raise UsageError("mogp-evaluate requires --train-cells")
    args.schema = _parse_schema(args.schema)
    args.kernel = args.kernel.strip().upper()
    args.mean = args.mean.strip().upper()
    return args


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


def _pick_series(fleet, target: str | None):
    if target is not None:
        return fleet.get(target)
    if fleet.m == 1:
        return fleet.series[0]
    raise UsageError(
        f"data contains cells {list(fleet.cell_ids)}; choose one with --target"
    )


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
    result = kernel_search(
        series,
        bases=config.bases,
        config=_train_config(config),
        mean_expr=config.mean,
        jobs=config.jobs,
    )
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
    trained = result.model
    current_x = float(prefix.cycles[-1])
    horizon_x = HORIZON_FACTOR * float(series.cycles[-1])
    grid = forecast_grid(current_x, horizon_x, prefix.cycles)
    post = trained.decompose_posterior(grid)  # grammar kernels are sums, never products
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
    payload = asdict(forecast)
    payload["observed_eol"] = observed
    _write_json(outdir / "eol.json", payload)
    _write_json(outdir / "model.json", _model_summary(config, result))


def _cmd_lookahead(config: argparse.Namespace, series, outdir: Path) -> None:
    result = lookahead(
        series,
        kernel_expr=config.kernel,
        mean_expr=config.mean,
        horizons=config.horizons,
        start_fraction=config.start,
        config=_train_config(config),
        warm_start=config.warm_start,
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


def _cmd_evaluate(config: argparse.Namespace, series, outdir: Path) -> None:
    report = evaluate(
        series,
        kernel_expr=config.kernel,
        mean_expr=config.mean,
        start_fraction=config.start,
        eol_threshold=config.eol,
        config=_train_config(config),
        warm_start=config.warm_start,
        jobs=config.jobs,
    )
    _write_report(outdir, report)


def _cmd_mogp_evaluate(config: argparse.Namespace, fleet, outdir: Path) -> None:
    missing = [c for c in (*config.train_cells, config.target) if c not in fleet.cell_ids]
    if missing:
        raise UsageError(f"cells {missing} not present in {config.data}")
    report = evaluate_mogp(
        fleet,
        target=config.target,
        train_cells=config.train_cells,
        kernel_expr=config.kernel,
        mean_expr=config.mean,
        start_fraction=config.start,
        eol_threshold=config.eol,
        config=_train_config(config),
        warm_start=config.warm_start,
        jobs=config.jobs,
    )
    _write_report(outdir, report)


_IMPLEMENTATIONS = {
    "fit": _cmd_fit,
    "kernel-search": _cmd_kernel_search,
    "forecast": _cmd_forecast,
    "lookahead": _cmd_lookahead,
    "evaluate": _cmd_evaluate,
    "mogp-evaluate": _cmd_mogp_evaluate,
}


def run(config: argparse.Namespace) -> None:
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "manifest.json", _manifest(config))
    fleet = load_csv(config.data, config.schema)
    data = fleet if config.command == "mogp-evaluate" else _pick_series(fleet, config.target)
    _IMPLEMENTATIONS[config.command](config, data, outdir)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GpprogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
