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
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dataset import SplitSpec, load_csv, split
from .errors import GpprogError, UndefinedMetricError, UsageError
from .kernels import parse_kernel
from .meanfn import mean_params
from .optimize import TrainConfig, kernel_search, model_for_series, train
from .prognostics import (
    HORIZON_FACTOR,
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
    if args.mean.strip().upper() not in ("ZERO", "CONST", "EXPDEG"):
        raise UsageError(f"--mean must be ZERO, CONST, or EXPDEG, got {args.mean!r}")
    if not (0.0 < args.eol < 1.0):
        raise UsageError(f"--eol must lie in (0, 1), got {args.eol}")
    if not (0.0 < args.start < 1.0):
        raise UsageError(f"--start must lie in (0, 1), got {args.start}")
    args.horizons = _parse_int_list(args.horizons, "--horizons")
    if any(h < 1 for h in args.horizons):
        raise UsageError(f"--horizons must all be >= 1, got {args.horizons}")
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


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


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
    _write_json(outdir / "search.json", result.to_dict())
    _write_csv(outdir / "search.csv", result.to_csv_rows())


def _cmd_forecast(config: argparse.Namespace, series, outdir: Path) -> None:
    c = math.ceil(config.start * len(series))
    if c >= len(series):
        raise UsageError(f"--start {config.start} leaves no data to forecast")
    spec = SplitSpec(max(1, c), config.eol)
    prefix, _ = split(series, spec)
    model = model_for_series(prefix, config.kernel, config.mean)
    result = train(model, _train_config(config), extra_starts=[model.opt_vector()])
    trained = result.model
    prefix_x = prefix.cycles
    current_x = float(prefix_x[-1])
    horizon_x = HORIZON_FACTOR * float(series.cycles[-1])
    # forecast_eol's grid: cycle steps when the training inputs are whole cycles
    grid = forecast_grid(current_x, horizon_x, bool(np.all(prefix_x == np.floor(prefix_x))))
    post = trained.decompose_posterior(grid)  # grammar kernels are sums, never products
    lower, upper = post.bounds()
    columns = (grid, post.mean, post.sigma_latent, post.sigma_noisy, lower, upper)
    rows = [["x", "mean", "sigma_latent", "sigma_noisy", "lower_2sigma", "upper_2sigma"]]
    rows.extend([repr(v) for v in row] for row in zip(*(c.tolist() for c in columns)))
    _write_csv(outdir / "posterior.csv", rows)
    comp_rows = [["component", "x", "mean", "sigma"]]
    for comp in post.components:
        comp_rows.extend(
            [comp.name, repr(x), repr(mean), repr(sigma)]
            for x, mean, sigma in zip(
                grid.tolist(), comp.mean.tolist(), np.sqrt(comp.variance).tolist()
            )
        )
    _write_csv(outdir / "components.csv", comp_rows)
    forecast = eol_crossings(post, spec, current_x)
    try:
        observed = true_end_of_life(series, config.eol)
    except UndefinedMetricError:
        observed = None
    payload = forecast.to_dict()
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
    _write_json(outdir / "lookahead.json", result.to_dict())
    _write_csv(outdir / "lookahead.csv", result.to_csv_rows())


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
    _write_json(outdir / "report.json", report.to_dict())
    _write_csv(outdir / "report.csv", report.to_csv_rows())


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
    _write_json(outdir / "report.json", report.to_dict())
    _write_csv(outdir / "report.csv", report.to_csv_rows())


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
