"""Command line interface.

Six subcommands cover the workflow: fit one model, search compound kernels,
forecast capacity and end of life from a partial history, sweep fixed
lookahead horizons, and evaluate end-of-life forecasts at rolling origins
for one cell or within its fleet.  :data:`OPTIONS` declares each option once,
with an argparse type that checks it through the library's own validators;
:data:`COMMANDS` lists each subcommand once, with its implementation and the
options it reads.  A run loads the CSV, picks the cell (for mogp-evaluate,
the fleet) and computes its results before it writes ``manifest.json`` (the
options read, and library versions) and them, so a failed run writes nothing.
Any other option, a bad value, a missing required one or a missing cell id is
a :class:`UsageError`; it and every other :class:`InputError` exit 2, any
other failure 1.  With --jobs 1 a rerun reproduces every output file byte for byte.

This is the one module that knows the output formats.  The library returns
plain records (:class:`~gpprog.prognostics.OriginRecord`,
:class:`~gpprog.prognostics.LookaheadRow`,
:class:`~gpprog.optimize.SearchEntry`, ...); a JSON payload is
``dataclasses.asdict`` of a record plus a few derived keys, so a field added
to a record reaches the JSON files with no change here.  A subcommand returns
its files as ``{name: payload}`` for :func:`_write`, whose ``csv.writer``
writes floats by ``repr`` (which round-trips them), ints by ``str`` and None
as an empty cell; a row hands it those types and nothing else.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dataset import _resolve_schema, load_csv, rolling_origins, split
from .errors import DegenerateInputError, GpprogError, InputError, UndefinedMetricError, UsageError
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
    "--restarts": dict(default=TrainConfig().n_restarts, help="Latin hypercube starts",
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


def _write(path: Path, payload) -> None:
    """A ``.json`` file of ``payload``, or a CSV of ``payload = (header, rows)``."""
    with open(path, "w", newline="") as fh:
        if path.suffix == ".json":
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
            fh.write("\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(payload[0])
            writer.writerows(payload[1])


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
        int(record.clamped), int(record.failed),
    )


def _report_files(report) -> dict:
    payload = {**asdict(report), "n_records": len(report.records), "n_failed": report.n_failed}
    rows = map(_report_row, report.records)
    return {"report.json": payload, "report.csv": (_REPORT_HEADER, rows)}


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
    """The cell the subcommand reads (for mogp-evaluate, the fleet); a file of
    several cells without --target is a UsageError."""
    if config.target is None:  # mogp-evaluate requires --target
        if fleet.m == 1:
            return fleet.series[0]
        raise UsageError(f"data contains cells {list(fleet.cell_ids)}; choose one with --target")
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


def _cmd_fit(config: argparse.Namespace, series) -> dict:
    result = train(model_for_series(series, config.kernel, config.mean), _train_config(config))
    return {"model.json": _model_summary(config, result)}


def _cmd_kernel_search(config: argparse.Namespace, series) -> dict:
    result = kernel_search(series, config.bases, _train_config(config), config.mean, config.jobs)
    payload = {
        "ranking": [{**asdict(e), "lml": e.lml} for e in result.entries],
        "failures": [{"kernel": k, "error": msg} for k, msg in result.failures],
    }
    rows = [(e.kernel, e.lml, json.dumps(e.hyperparameters, sort_keys=True))
            for e in result.entries]
    return {"search.json": payload, "search.csv": (("kernel", "lml", "hyperparameters"), rows)}


def _cmd_forecast(config: argparse.Namespace, series) -> dict:
    c = rolling_origins(series, config.start)[0]
    if c < 2:
        raise DegenerateInputError(
            f"cell {series.cell_id!r} of {len(series)} points has its first split at {c} point "
            f"from start fraction {config.start}; a forecast trains on at least two points"
        )
    prefix, _ = split(series, c)
    result = train(model_for_series(prefix, config.kernel, config.mean), _train_config(config))
    current_x = float(prefix.cycles[-1])
    horizon_x = HORIZON_FACTOR * float(series.cycles[-1])
    grid = forecast_grid(current_x, horizon_x, prefix.cycles)
    post = result.model.decompose_posterior(grid)  # grammar kernels are sums, never products
    lower, upper = post.bounds()
    columns = (grid, post.mean, post.sigma_latent, post.sigma_noisy, lower, upper)
    forecast = eol_crossings(post, c, config.eol, current_x)
    try:
        observed = true_end_of_life(series, config.eol)
    except UndefinedMetricError:
        observed = None
    return {
        "posterior.csv": (
            ("x", "mean", "sigma_latent", "sigma_noisy", "lower_2sigma", "upper_2sigma"),
            zip(*(c.tolist() for c in columns)),
        ),
        "components.csv": (
            ("component", "x", "mean", "sigma"),
            (
                (comp.name, x, mean, sigma)
                for comp in post.components
                for x, mean, sigma in zip(
                    grid.tolist(), comp.mean.tolist(), np.sqrt(comp.variance).tolist()
                )
            ),
        ),
        "eol.json": {**asdict(forecast), "observed_eol": observed},
        "model.json": _model_summary(config, result),
    }


def _cmd_lookahead(config: argparse.Namespace, series) -> dict:
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
    return {
        "lookahead.json": payload,
        "lookahead.csv": ([f.name for f in fields(LookaheadRow)], map(astuple, result.rows)),
    }


def _rolling(config: argparse.Namespace) -> dict:
    """The keyword arguments evaluate and evaluate_mogp share."""
    return dict(kernel_expr=config.kernel, mean_expr=config.mean, start_fraction=config.start,
                eol_threshold=config.eol, config=_train_config(config),
                warm_start=config.warm_start, jobs=config.jobs)


def _cmd_evaluate(config: argparse.Namespace, series) -> dict:
    return _report_files(evaluate(series, **_rolling(config)))


def _cmd_mogp_evaluate(config: argparse.Namespace, fleet) -> dict:
    report = evaluate_mogp(fleet, config.target, config.train_cells, **_rolling(config))
    return _report_files(report)


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
    args.out = args.out or os.environ.get("GPPROG_OUT") or "gpprog-out"
    return args


def run(config: argparse.Namespace) -> None:
    data = _select(config, load_csv(config.data, config.schema))
    files = COMMANDS[config.command][0](config, data)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, payload in {"manifest.json": _manifest(config), **files}.items():
        _write(outdir / name, payload)


def main(argv=None) -> int:
    try:
        run(parse_args(argv))
    except GpprogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
