"""Forecast-quality metrics and rolling battery-health evaluations.

Two headline metrics: capacity RMSE over a held-out window, and RMSE of
predicted end of life (the cycle where capacity first drops below the
threshold) against the observed crossing.  Rolling evaluations repeat the
train/forecast cycle at every split position from a starting fraction of
the data onward, warm-starting each fit from the previous optimum.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import CapacitySeries, Fleet, SplitSpec, rolling_origins, split
from .errors import (
    ConfigError,
    DegenerateInputError,
    NumericalError,
    TrainingError,
    UndefinedMetricError,
)
from .gp import GpModel
from .kernels import parse_kernel, with_data_scales
from .meanfn import mean_from_token
from .optimize import TrainConfig, model_for_series, train

DEFAULT_HORIZONS = (5, 10, 20, 40)


# --- metrics -----------------------------------------------------------------


def rmse_q(predicted, actual) -> float:
    """Root mean squared error between predicted and observed capacities."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise ConfigError(f"shape mismatch {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise DegenerateInputError("RMSE over an empty test window is undefined")
    if not (np.all(np.isfinite(predicted)) and np.all(np.isfinite(actual))):
        raise UndefinedMetricError("RMSE with non-finite values is undefined")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


def rmse_eol(predictions, truth: float, clamp: float | None = None) -> float:
    """RMSE of end-of-life predictions against the observed end of life.

    ``clamp`` replaces +inf predictions (forecasts that never cross the
    threshold inside the horizon) with a finite ceiling; without it any
    non-finite prediction makes the metric undefined.
    """
    predictions = np.asarray(predictions, dtype=float)
    if predictions.size == 0:
        raise DegenerateInputError("no end-of-life predictions to score")
    if not math.isfinite(truth):
        raise UndefinedMetricError(f"true end of life {truth} is not finite")
    if clamp is not None:
        predictions = np.where(np.isposinf(predictions), clamp, predictions)
    if not np.all(np.isfinite(predictions)):
        if np.all(np.isposinf(np.asarray(predictions))):
            raise UndefinedMetricError("every end-of-life prediction is infinite")
        raise UndefinedMetricError("non-finite end-of-life prediction")
    return float(np.sqrt(np.mean((predictions - truth) ** 2)))


def find_eol(xs, values, threshold: float, start_x: float) -> float:
    """First x after ``start_x`` where the curve drops below ``threshold``.

    The curve is the linear interpolant of (xs, values).  If the first
    point past ``start_x`` is already below the threshold the answer snaps
    to that grid point.  Returns +inf when the curve never drops below.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.shape != values.shape or xs.ndim != 1:
        raise ConfigError("curve arrays must be equal-length 1-d")
    if len(xs) == 0:
        return math.inf
    if np.any(np.diff(xs) <= 0):
        raise ConfigError("curve grid must be strictly increasing")
    for j in range(len(xs)):
        if xs[j] <= start_x:
            continue
        if values[j] < threshold:
            if j > 0 and values[j - 1] >= threshold:
                va, vb = values[j - 1], values[j]
                xc = xs[j - 1] + (va - threshold) / (va - vb) * (xs[j] - xs[j - 1])
                return float(xc) if xc > start_x else float(xs[j])
            return float(xs[j])
    return math.inf


# --- end-of-life forecasting ---------------------------------------------------


@dataclass(frozen=True)
class EolForecast:
    """Point and interval end-of-life estimates from one trained model.

    ``eol_lower``/``eol_upper`` come from the +/-2 sigma capacity curves;
    the lower capacity bound crosses the threshold first, so it yields the
    earliest plausible end of life.  Any field may be +inf when the
    corresponding curve never crosses inside the forecast horizon.
    """

    c: int
    current_x: float
    threshold: float
    eol_mean: float
    eol_lower: float
    eol_upper: float

    def __post_init__(self):
        slack = 1e-9
        for name in ("eol_mean", "eol_lower", "eol_upper"):
            v = getattr(self, name)
            if not v > self.current_x:
                raise NumericalError(f"{name}={v} not beyond current x {self.current_x}")
        if self.eol_lower > self.eol_mean + slack or self.eol_mean > self.eol_upper + slack:
            raise NumericalError(
                f"end-of-life interval out of order: {self.eol_lower}, "
                f"{self.eol_mean}, {self.eol_upper}"
            )

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "current_x": self.current_x,
            "threshold": self.threshold,
            "eol_mean": self.eol_mean,
            "eol_lower": self.eol_lower,
            "eol_upper": self.eol_upper,
        }


def _integer_axis(x: np.ndarray) -> bool:
    return bool(np.all(x == np.floor(x)))


def forecast_grid(current_x: float, horizon_x: float, integer_steps: bool) -> np.ndarray:
    """Cycle-resolution grid for integer axes, 200 points otherwise."""
    if not horizon_x > current_x:
        raise ConfigError(f"horizon {horizon_x} not beyond current x {current_x}")
    if integer_steps:
        return current_x + np.arange(0.0, math.floor(horizon_x - current_x) + 0.5)
    return np.linspace(current_x, horizon_x, 200)


def forecast_eol(
    model: GpModel,
    spec: SplitSpec,
    horizon_x: float,
    current_x: float | None = None,
    label: int | None = None,
) -> EolForecast:
    """Extrapolate the posterior and read off threshold crossings.

    The point estimate comes from the posterior mean curve; the interval
    comes from the mean +/- 2 sigma curves (noise included).
    """
    if current_x is None:
        if label is not None and model.labels is not None:
            current_x = float(model.x[model.labels == label].max())
        else:
            current_x = float(model.x.max())
    grid = forecast_grid(current_x, horizon_x, _integer_axis(model.x))
    labels = None
    if model.labels is not None:
        if label is None:
            raise ConfigError("multi-output model needs a target label")
        labels = np.full(len(grid), label, dtype=int)
    post = model.posterior(grid, labels=labels)
    lower_curve, upper_curve = post.bounds(2.0, include_noise=True)
    eol_mean = find_eol(grid, post.mean, spec.eol_threshold, current_x)
    # a band curve already below the threshold at the origin snaps to the
    # first grid step, which can land past the mean's interpolated crossing;
    # coerce such boundary cases back into a coherent interval
    eol_lower = min(find_eol(grid, lower_curve, spec.eol_threshold, current_x), eol_mean)
    eol_upper = max(find_eol(grid, upper_curve, spec.eol_threshold, current_x), eol_mean)
    return EolForecast(
        c=spec.c,
        current_x=current_x,
        threshold=spec.eol_threshold,
        eol_mean=eol_mean,
        eol_lower=eol_lower,
        eol_upper=eol_upper,
    )


# --- lookahead sweeps -----------------------------------------------------------


@dataclass(frozen=True)
class LookaheadRow:
    c: int
    horizon: int
    target_x: float
    predicted: float
    sigma: float
    actual: float


@dataclass(frozen=True)
class LookaheadResult:
    """Amalgamated fixed-horizon forecasts across every rolling origin."""

    rows: tuple[LookaheadRow, ...]
    rmse: dict[int, float]
    skipped: dict[int, int]
    failures: tuple[tuple[int, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "rmse": {str(k): v for k, v in sorted(self.rmse.items())},
            "skipped": {str(k): v for k, v in sorted(self.skipped.items())},
            "failures": [{"c": c, "error": msg} for c, msg in self.failures],
            "n_rows": len(self.rows),
        }

    def to_csv_rows(self) -> list[list[str]]:
        out = [["c", "horizon", "target_x", "predicted", "sigma", "actual"]]
        for r in self.rows:
            out.append(
                [
                    str(r.c),
                    str(r.horizon),
                    repr(r.target_x),
                    repr(r.predicted),
                    repr(r.sigma),
                    repr(r.actual),
                ]
            )
        return out


def _check_horizons(horizons) -> tuple[int, ...]:
    horizons = tuple(int(n) for n in horizons)
    if not horizons:
        raise ConfigError("at least one horizon required")
    if any(n < 1 for n in horizons):
        raise ConfigError(f"horizons must be >= 1, got {horizons}")
    if len(set(horizons)) != len(horizons):
        raise ConfigError(f"duplicate horizons in {horizons}")
    return horizons


def _collect_rmse(rows, horizons):
    rmse = {}
    for n in horizons:
        errs = [(r.predicted - r.actual) ** 2 for r in rows if r.horizon == n]
        if errs:
            rmse[n] = float(np.sqrt(np.mean(errs)))
    return rmse


def lookahead(
    series: CapacitySeries,
    kernel_expr: str = "MA5+MA3",
    mean_expr: str = "CONST",
    horizons=DEFAULT_HORIZONS,
    start_fraction: float = 0.2,
    config: TrainConfig = TrainConfig(),
    warm_start: bool = True,
) -> LookaheadResult:
    """Retrain at every rolling origin and predict n observations ahead.

    Horizons are counted in observation positions: at split c the horizon-n
    target is the (c+n)-th observation.  Targets beyond the series end are
    skipped.  Per-origin training failures are recorded, never raised.
    """
    horizons = _check_horizons(horizons)
    specs = rolling_origins(series, start_fraction)
    rows: list[LookaheadRow] = []
    skipped = {n: 0 for n in horizons}
    failures = []
    warm = None
    for spec in specs:
        valid = [(n, spec.c - 1 + n) for n in horizons if spec.c - 1 + n < len(series)]
        for n in horizons:
            if spec.c - 1 + n >= len(series):
                skipped[n] += 1
        if not valid:
            continue
        train_series, _ = split(series, spec)
        model = model_for_series(train_series, kernel_expr, mean_expr)
        extra = [model.opt_vector()]
        if warm_start and warm is not None:
            extra.append(warm)
        try:
            result = train(model, config, extra_starts=extra)
        except (TrainingError, NumericalError) as exc:
            failures.append((spec.c, str(exc)))
            for n, _ in valid:
                skipped[n] += 1
            continue
        if warm_start:
            warm = result.model.opt_vector()
        xs = np.array([series.cycles[idx] for _, idx in valid])
        post = result.model.posterior(xs)
        for (n, idx), mean, sd in zip(valid, post.mean, post.sigma_noisy):
            rows.append(
                LookaheadRow(
                    c=spec.c,
                    horizon=n,
                    target_x=float(series.cycles[idx]),
                    predicted=float(mean),
                    sigma=float(sd),
                    actual=float(series.capacities[idx]),
                )
            )
    return LookaheadResult(
        rows=tuple(rows),
        rmse=_collect_rmse(rows, horizons),
        skipped=skipped,
        failures=tuple(failures),
    )


# --- autoregressive baseline ----------------------------------------------------


def ar_baseline(series: CapacitySeries, order: int, horizon: int) -> np.ndarray:
    """Iterated least-squares autoregressive forecast, no uncertainty.

    Fits capacity at every observation that has ``order`` predecessors as
    a linear function (with intercept) of those ``order`` values, by least
    squares over all n - order lag windows, then feeds forecasts back in
    for ``horizon`` steps.  Positions are treated as equally spaced.
    """
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    y = series.capacities
    if len(y) < 2 * order:
        raise DegenerateInputError(
            f"autoregression of order {order} needs {2 * order} points, have {len(y)}"
        )
    n = len(y)
    rows = []
    targets = []
    for t in range(order, n):
        rows.append(np.concatenate([y[t - order : t][::-1], [1.0]]))
        targets.append(y[t])
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    weights, intercept = coef[:-1], coef[-1]
    state = list(y[-order:])
    out = []
    for _ in range(horizon):
        lagged = np.array(state[-order:][::-1])
        nxt = float(weights @ lagged + intercept)
        out.append(nxt)
        state.append(nxt)
    return np.array(out)


def ar_lookahead(
    series: CapacitySeries,
    order: int = 10,
    horizons=DEFAULT_HORIZONS,
    start_fraction: float = 0.2,
) -> LookaheadResult:
    """Rolling-origin autoregressive forecasts, comparable to ``lookahead``."""
    horizons = _check_horizons(horizons)
    specs = rolling_origins(series, start_fraction)
    rows: list[LookaheadRow] = []
    skipped = {n: 0 for n in horizons}
    failures = []
    max_h = max(horizons)
    for spec in specs:
        valid = [(n, spec.c - 1 + n) for n in horizons if spec.c - 1 + n < len(series)]
        for n in horizons:
            if spec.c - 1 + n >= len(series):
                skipped[n] += 1
        if not valid:
            continue
        prefix, _ = split(series, spec)
        try:
            forecasts = ar_baseline(prefix, order, max_h)
        except DegenerateInputError as exc:
            failures.append((spec.c, str(exc)))
            for n, _ in valid:
                skipped[n] += 1
            continue
        for n, idx in valid:
            rows.append(
                LookaheadRow(
                    c=spec.c,
                    horizon=n,
                    target_x=float(series.cycles[idx]),
                    predicted=float(forecasts[n - 1]),
                    sigma=float("nan"),
                    actual=float(series.capacities[idx]),
                )
            )
    return LookaheadResult(
        rows=tuple(rows),
        rmse=_collect_rmse(rows, horizons),
        skipped=skipped,
        failures=tuple(failures),
    )


# --- rolling end-of-life evaluation ----------------------------------------------


@dataclass(frozen=True)
class OriginRecord:
    """Outcome of one rolling origin: capacity RMSE plus EoL forecast."""

    c: int
    current_x: float
    rmse_q: float | None
    eol: EolForecast | None
    eol_estimate: float | None
    clamped: bool = False
    failed: bool = False
    error: str | None = None


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregated rolling evaluation for one target cell."""

    cell_id: str
    threshold: float
    true_eol: float
    horizon_x: float
    records: tuple[OriginRecord, ...]
    rmse_eol: float
    lookahead_rmse: dict[int, float] | None = None

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if r.failed)

    def with_lookahead(self, result: LookaheadResult) -> "EvaluationReport":
        return EvaluationReport(
            cell_id=self.cell_id,
            threshold=self.threshold,
            true_eol=self.true_eol,
            horizon_x=self.horizon_x,
            records=self.records,
            rmse_eol=self.rmse_eol,
            lookahead_rmse=dict(result.rmse),
        )

    def to_dict(self) -> dict:
        return {
            "cell_id": self.cell_id,
            "threshold": self.threshold,
            "true_eol": self.true_eol,
            "horizon_x": self.horizon_x,
            "rmse_eol": self.rmse_eol,
            "n_records": len(self.records),
            "n_failed": self.n_failed,
            "lookahead_rmse": None
            if self.lookahead_rmse is None
            else {str(k): v for k, v in sorted(self.lookahead_rmse.items())},
            "records": [
                {
                    "c": r.c,
                    "current_x": r.current_x,
                    "rmse_q": r.rmse_q,
                    "eol": None if r.eol is None else r.eol.to_dict(),
                    "eol_estimate": r.eol_estimate,
                    "clamped": r.clamped,
                    "failed": r.failed,
                    "error": r.error,
                }
                for r in self.records
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        out = [
            [
                "c",
                "current_x",
                "rmse_q",
                "eol_mean",
                "eol_lower",
                "eol_upper",
                "eol_estimate",
                "clamped",
                "failed",
            ]
        ]
        for r in self.records:
            eol = r.eol
            out.append(
                [
                    str(r.c),
                    repr(r.current_x),
                    "" if r.rmse_q is None else repr(r.rmse_q),
                    "" if eol is None else repr(eol.eol_mean),
                    "" if eol is None else repr(eol.eol_lower),
                    "" if eol is None else repr(eol.eol_upper),
                    "" if r.eol_estimate is None else repr(r.eol_estimate),
                    str(int(r.clamped)),
                    str(int(r.failed)),
                ]
            )
        return out


def true_end_of_life(series: CapacitySeries, threshold: float) -> float:
    """Interpolated crossing of the observed capacity below the threshold."""
    eol = find_eol(series.cycles, series.capacities, threshold, float(series.cycles[0]))
    if not math.isfinite(eol):
        raise UndefinedMetricError(
            f"cell {series.cell_id!r} never crosses threshold {threshold}"
        )
    return eol


class GpForecaster:
    """Default forecaster for rolling evaluations: retrain, predict, extrapolate.

    Keeps the previous optimum as a warm start between calls.
    """

    def __init__(self, kernel_expr, mean_expr, config, warm_start=True):
        self.kernel_expr = kernel_expr
        self.mean_expr = mean_expr
        self.config = config
        self.warm_start = warm_start
        self._warm = None

    def __call__(self, train_series, test_x, spec, horizon_x):
        model = model_for_series(train_series, self.kernel_expr, self.mean_expr)
        extra = [model.opt_vector()]
        if self.warm_start and self._warm is not None:
            extra.append(self._warm)
        result = train(model, self.config, extra_starts=extra)
        if self.warm_start:
            self._warm = result.model.opt_vector()
        predicted = result.model.posterior(test_x).mean if len(test_x) else np.array([])
        forecast = forecast_eol(result.model, spec, horizon_x)
        return predicted, forecast


class MogpForecaster:
    """Rolling forecaster that conditions on companion cells' full histories.

    At each origin the model sees every observation of the companion cells
    plus the target cell's prefix; it predicts the target's future capacity
    through the shared input kernel scaled by learned output correlations.
    """

    def __init__(self, companions, kernel_expr, mean_expr, config, warm_start=True):
        self.companions = tuple(companions)
        self.kernel_expr = kernel_expr
        self.mean_expr = mean_expr
        self.config = config
        self.warm_start = warm_start
        self._warm = None

    def __call__(self, train_series, test_x, spec, horizon_x):
        fleet_now = Fleet(self.companions + (train_series,))
        target_label = fleet_now.m
        x_all, y_all, _ = fleet_now.labeled_arrays()
        input_kernel = with_data_scales(parse_kernel(self.kernel_expr), x_all, y_all)
        mean = mean_from_token(self.mean_expr, x_all, y_all)
        model = GpModel.for_fleet(fleet_now, input_kernel, mean=mean)
        extra = [model.opt_vector()]
        if self.warm_start and self._warm is not None:
            extra.append(self._warm)
        result = train(model, self.config, extra_starts=extra)
        if self.warm_start:
            self._warm = result.model.opt_vector()
        if len(test_x):
            labels = np.full(len(test_x), target_label, dtype=int)
            predicted = result.model.posterior(test_x, labels=labels).mean
        else:
            predicted = np.array([])
        forecast = forecast_eol(
            result.model,
            spec,
            horizon_x,
            current_x=float(train_series.cycles[-1]),
            label=target_label,
        )
        return predicted, forecast


def _one_origin(forecaster, series, spec, horizon_x, true_eol) -> OriginRecord:
    train_series, test_series = split(series, spec)
    mask = test_series.cycles <= true_eol
    current_x = float(train_series.cycles[-1])
    try:
        predicted, forecast = forecaster(
            train_series, test_series.cycles[mask], spec, horizon_x
        )
        q = rmse_q(predicted, test_series.capacities[mask])
        clamped = not math.isfinite(forecast.eol_mean)
        estimate = horizon_x if clamped else forecast.eol_mean
        return OriginRecord(spec.c, current_x, q, forecast, estimate, clamped)
    except (TrainingError, NumericalError, UndefinedMetricError) as exc:
        return OriginRecord(
            spec.c, current_x, None, None, None, failed=True, error=str(exc)
        )


def _origin_worker(payload) -> OriginRecord:
    return _one_origin(*payload)


def _rolling_eval(series, forecaster, start_fraction, threshold, horizon_factor, jobs=1):
    true_eol = true_end_of_life(series, threshold)
    horizon_x = horizon_factor * float(series.cycles[-1])
    specs = []
    for spec in rolling_origins(series, start_fraction, threshold):
        if not np.any(series.cycles[spec.c :] <= true_eol):
            break  # past end of life; remaining test windows are empty
        specs.append(spec)
    if jobs > 1 and len(specs) > 1:
        payloads = [(forecaster, series, spec, horizon_x, true_eol) for spec in specs]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_origin_worker, payloads))
    else:
        records = [
            _one_origin(forecaster, series, spec, horizon_x, true_eol) for spec in specs
        ]
    estimates = [r.eol_estimate for r in records if not r.failed]
    agg = rmse_eol(estimates, true_eol) if estimates else float("nan")
    return EvaluationReport(
        cell_id=series.cell_id,
        threshold=threshold,
        true_eol=true_eol,
        horizon_x=horizon_x,
        records=tuple(records),
        rmse_eol=agg,
    )


def evaluate(
    series: CapacitySeries,
    kernel_expr: str = "MA5+MA3",
    mean_expr: str = "CONST",
    start_fraction: float = 0.2,
    eol_threshold: float = 0.7,
    config: TrainConfig = TrainConfig(),
    warm_start: bool = True,
    horizon_factor: float = 2.0,
    forecaster=None,
    jobs: int = 1,
) -> EvaluationReport:
    """Rolling evaluation of capacity RMSE and end-of-life accuracy.

    Origins run from ``start_fraction`` of the data until the observed end
    of life; infinite point forecasts are clamped to the horizon
    (``horizon_factor`` times the final observed position) and flagged.
    With ``jobs`` > 1 origins run in separate processes, which requires
    ``warm_start=False`` since warm starting chains origins sequentially.
    """
    if jobs > 1 and warm_start:
        raise ConfigError("parallel origins cannot warm start; pass warm_start=False")
    if forecaster is None:
        forecaster = GpForecaster(kernel_expr, mean_expr, config, warm_start)
    return _rolling_eval(
        series, forecaster, start_fraction, eol_threshold, horizon_factor, jobs
    )


def evaluate_mogp(
    fleet: Fleet,
    target: str,
    train_cells,
    kernel_expr: str = "MA5+MA3",
    mean_expr: str = "CONST",
    start_fraction: float = 0.2,
    eol_threshold: float = 0.7,
    config: TrainConfig = TrainConfig(),
    warm_start: bool = True,
    horizon_factor: float = 2.0,
    jobs: int = 1,
) -> EvaluationReport:
    """Rolling multi-output evaluation of one target cell.

    Companion cells contribute their full histories at every origin; the
    target contributes data up to the split only.  The target takes the
    last output label.
    """
    if jobs > 1 and warm_start:
        raise ConfigError("parallel origins cannot warm start; pass warm_start=False")
    train_cells = list(train_cells)
    if target in train_cells:
        raise ConfigError(f"target {target!r} also listed as a training cell")
    if not train_cells:
        raise ConfigError("multi-output evaluation needs at least one training cell")
    sub = fleet.subfleet(train_cells + [target])
    companions = sub.series[:-1]
    target_series = sub.series[-1]
    forecaster = MogpForecaster(companions, kernel_expr, mean_expr, config, warm_start)
    return _rolling_eval(
        target_series, forecaster, start_fraction, eol_threshold, horizon_factor, jobs
    )
