"""Forecast-quality metrics and rolling battery-health evaluations.

Two headline metrics: capacity RMSE over a held-out window, and RMSE of
predicted end of life (the cycle where capacity first drops below the
threshold) against the observed crossing.

Every rolling evaluation applies a per-origin step at each split position
from a starting fraction of the data onward, through
:func:`optimize.pool_map` (in order or in worker processes), and
:func:`_attempt` records an origin that fails with one of
:data:`ORIGIN_ERRORS` instead of aborting the sweep.  ``lookahead`` and
``ar_lookahead`` share one fixed-horizon sweep and differ only in their
predict step; ``evaluate`` and ``evaluate_mogp`` share one end-of-life
backtest, :func:`_backtest`, which forecasts out to :data:`HORIZON_FACTOR`
times the last observed position.  A sweep whose start fraction leaves it
no origin to score raises :class:`DegenerateInputError` before any fit.
The GP steps fit through :class:`GpForecaster`, which hands the prefix, or
the fleet of companions plus prefix, to :func:`optimize.model_for_series`
and warm-starts each fit from the previous optimum.

Results are plain frozen dataclasses (:class:`OriginRecord`,
:class:`LookaheadRow`, :class:`EolForecast` and their containers) with no
file format of their own; :mod:`gpprog.cli` writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import CapacitySeries, Fleet, rolling_origins, split
from .errors import (
    BoundsError,
    ConfigError,
    DegenerateInputError,
    NumericalError,
    TrainingError,
    UndefinedMetricError,
)
from .gp import GpModel, Posterior
from .optimize import TrainConfig, model_for_series, pool_map, train

DEFAULT_HORIZONS = (5, 10, 20, 40)

# end-of-life forecasts run out to this multiple of the last observed position
HORIZON_FACTOR = 2.0


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


def rmse_eol(predictions, truth: float) -> float:
    """RMSE of end-of-life predictions against the observed end of life.

    Any non-finite prediction makes the metric undefined; the rolling
    evaluations clamp forecasts that never cross to the horizon first.
    """
    predictions = np.asarray(predictions, dtype=float)
    if predictions.size == 0:
        raise DegenerateInputError("no end-of-life predictions to score")
    if not math.isfinite(truth):
        raise UndefinedMetricError(f"true end of life {truth} is not finite")
    if not np.all(np.isfinite(predictions)):
        if np.all(np.isposinf(predictions)):
            raise UndefinedMetricError("every end-of-life prediction is infinite")
        raise UndefinedMetricError("non-finite end-of-life prediction")
    return float(np.sqrt(np.mean((predictions - truth) ** 2)))


def find_eol(xs, values, threshold: float, start_x: float) -> float:
    """First x after ``start_x`` where the curve drops below ``threshold``.

    The curve is the linear interpolant of (xs, values).  If the first
    point past ``start_x`` is already below the threshold the answer snaps
    to that grid point.  Returns +inf when the curve never drops below.
    ``threshold`` must lie in (0, 1).
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"EoL threshold must lie in (0, 1), got {threshold}")
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


def forecast_grid(current_x: float, horizon_x: float, train_x) -> np.ndarray:
    """The grid from ``current_x`` to ``horizon_x``: one step per cycle when
    every training input in ``train_x`` is a whole cycle, 200 points otherwise."""
    if not horizon_x > current_x:
        raise ConfigError(f"horizon {horizon_x} not beyond current x {current_x}")
    if np.all(train_x == np.floor(train_x)):
        return current_x + np.arange(0.0, math.floor(horizon_x - current_x) + 0.5)
    return np.linspace(current_x, horizon_x, 200)


def forecast_eol(
    model: GpModel,
    threshold: float,
    horizon_x: float,
    label: int | None = None,
) -> EolForecast:
    """Extrapolate the posterior on a forecast grid and read off the crossings
    of ``threshold``, stamped with the target's number of training inputs as ``c``.

    The grid runs from the last training input of the target, the output
    ``label`` of a multi-output model, to ``horizon_x`` (see
    :func:`forecast_grid`); :func:`eol_crossings` reads the estimates.  A
    single-output model takes no label.
    """
    if model.labels is None:
        if label is not None:
            raise ConfigError(f"single-output model takes no target label, got {label}")
        target_x = model.x
    else:
        if label is None:
            raise ConfigError("multi-output model needs a target label")
        target_x = model.x[model.labels == label]
        if target_x.size == 0:
            raise BoundsError(f"no training inputs with target label {label}")
    current_x = float(target_x.max())
    grid = forecast_grid(current_x, horizon_x, model.x)
    labels = None if model.labels is None else np.full(len(grid), label, dtype=int)
    return eol_crossings(model.posterior(grid, labels=labels), len(target_x), threshold, current_x)


def eol_crossings(post: Posterior, c: int, threshold: float, current_x: float) -> EolForecast:
    """End-of-life estimates at ``threshold`` from a posterior on a forecast grid
    that starts at ``current_x``, the last of the ``c`` training inputs.

    The point estimate comes from the posterior mean curve; the interval
    comes from the mean +/- 2 sigma curves (noise included).
    """
    grid = post.x
    lower_curve, upper_curve = post.bounds()
    eol_mean = find_eol(grid, post.mean, threshold, current_x)
    # a band curve already below the threshold at the origin snaps to the
    # first grid step, which can land past the mean's interpolated crossing;
    # coerce such boundary cases back into a coherent interval
    eol_lower = min(find_eol(grid, lower_curve, threshold, current_x), eol_mean)
    eol_upper = max(find_eol(grid, upper_curve, threshold, current_x), eol_mean)
    return EolForecast(
        c=c,
        current_x=current_x,
        threshold=threshold,
        eol_mean=eol_mean,
        eol_lower=eol_lower,
        eol_upper=eol_upper,
    )


# --- the origin engine --------------------------------------------------------

# what one rolling origin may fail with; the failure is recorded with its
# message and the sweep goes on
ORIGIN_ERRORS = (DegenerateInputError, NumericalError, TrainingError, UndefinedMetricError)


def _attempt(step, origin):
    try:
        return step(origin), None
    except ORIGIN_ERRORS as exc:
        return None, str(exc)


class GpForecaster:
    """Default forecaster for rolling evaluations: retrain, predict, extrapolate.

    Without ``companions`` each model is fitted to the prefix of one cell.
    With them it is a multi-output model over the companion cells' full
    histories plus the prefix, which takes the last output label, so the
    target's future borrows from the companions through learned output
    correlations.  Keeps the previous optimum as a warm start between fits.
    """

    def __init__(self, kernel_expr, mean_expr, config, warm_start=True, companions=()):
        self.kernel_expr = kernel_expr
        self.mean_expr = mean_expr
        self.config = config
        self.warm_start = warm_start
        self.companions = tuple(companions)
        self.label = len(self.companions) + 1 if self.companions else None
        self._warm = None

    def fit(self, prefix: CapacitySeries) -> GpModel:
        """The trained model at one origin, starting also from the last optimum."""
        data = Fleet(self.companions + (prefix,)) if self.companions else prefix
        model = model_for_series(data, self.kernel_expr, self.mean_expr)
        trained = train(model, self.config, warm=self._warm).model
        if self.warm_start:
            self._warm = trained.hyperparameters().values
        return trained

    def __call__(self, train_series, test_x, threshold, horizon_x):
        model = self.fit(train_series)
        labels = None if self.label is None else np.full(len(test_x), self.label, dtype=int)
        predicted = model.posterior(test_x, labels=labels).mean
        forecast = forecast_eol(model, threshold, horizon_x, label=self.label)
        return predicted, forecast


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


def _check_horizons(horizons) -> tuple[int, ...]:
    horizons = tuple(int(n) for n in horizons)
    if not horizons:
        raise ConfigError("at least one horizon required")
    if any(n < 1 for n in horizons):
        raise ConfigError(f"horizons must be >= 1, got {horizons}")
    if len(set(horizons)) != len(horizons):
        raise ConfigError(f"duplicate horizons in {horizons}")
    return horizons


def _horizon_sweep(series, horizons, start_fraction, predict) -> LookaheadResult:
    """Fixed-horizon forecasts from every rolling origin.

    ``predict(prefix, steps, xs)`` returns the predicted means and standard
    deviations at the inputs ``xs`` that lie ``steps`` observations past the
    prefix.  Origins whose every target lies beyond the series end are
    skipped without a call; a failed origin skips its targets.
    """
    horizons = _check_horizons(horizons)
    origins = rolling_origins(series, start_fraction)
    last = len(series) - 1
    if origins[0] - 1 + min(horizons) > last:  # every origin would be skipped
        raise DegenerateInputError(f"cell {series.cell_id!r} splits at {origins[0]} of {last + 1} "
                                   f"points from start fraction {start_fraction}, so even the "
                                   f"smallest horizon, {min(horizons)}, lies past the last point")

    def step(c):
        steps = np.array([n for n in horizons if c - 1 + n <= last])
        idx = c - 1 + steps
        prefix, _ = split(series, c)
        means, sds = predict(prefix, steps, series.cycles[idx])
        return [
            LookaheadRow(
                c=c,
                horizon=int(n),
                target_x=float(series.cycles[i]),
                predicted=float(mean),
                sigma=float(sd),
                actual=float(series.capacities[i]),
            )
            for n, i, mean, sd in zip(steps, idx, means, sds)
        ]

    active = [c for c in origins if c - 1 + min(horizons) <= last]
    rows: list[LookaheadRow] = []
    failures = []
    for c, (made, error) in zip(active, pool_map(partial(_attempt, step), active, 1)):
        if error is None:
            rows.extend(made)
        else:
            failures.append((c, error))
    errors = {n: [(r.predicted - r.actual) ** 2 for r in rows if r.horizon == n] for n in horizons}
    return LookaheadResult(
        rows=tuple(rows),
        rmse={n: float(np.sqrt(np.mean(errs))) for n, errs in errors.items() if errs},
        skipped={n: len(origins) - len(errs) for n, errs in errors.items()},
        failures=tuple(failures),
    )


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
    skipped.  Per-origin failures are recorded, never raised; a start
    fraction that leaves no target within the smallest horizon raises
    :class:`DegenerateInputError`.
    """
    forecaster = GpForecaster(kernel_expr, mean_expr, config, warm_start)

    def predict(prefix, steps, xs):
        post = forecaster.fit(prefix).posterior(xs)
        return post.mean, post.sigma_noisy

    return _horizon_sweep(series, horizons, start_fraction, predict)


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

    def predict(prefix, steps, xs):
        return ar_baseline(prefix, order, int(steps.max()))[steps - 1], np.full(len(xs), np.nan)

    return _horizon_sweep(series, horizons, start_fraction, predict)


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

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if r.failed)


def true_end_of_life(series: CapacitySeries, threshold: float) -> float:
    """Interpolated crossing of the observed capacity below the threshold."""
    eol = find_eol(series.cycles, series.capacities, threshold, float(series.cycles[0]))
    if not math.isfinite(eol):
        raise UndefinedMetricError(
            f"cell {series.cell_id!r} never crosses threshold {threshold}"
        )
    return eol


def _origin_record(forecaster, series, threshold, horizon_x, true_eol, c) -> OriginRecord:
    train_series, test_series = split(series, c)
    mask = test_series.cycles <= true_eol
    predicted, forecast = forecaster(train_series, test_series.cycles[mask], threshold, horizon_x)
    q = rmse_q(predicted, test_series.capacities[mask])
    clamped = not math.isfinite(forecast.eol_mean)
    estimate = horizon_x if clamped else forecast.eol_mean
    return OriginRecord(c, float(train_series.cycles[-1]), q, forecast, estimate, clamped)


def _backtest(series, forecaster, start_fraction, eol_threshold, jobs) -> EvaluationReport:
    """:func:`evaluate` of ``series`` through ``forecaster``, called as in
    :func:`_origin_record`; its ``warm_start`` flag says whether fits chain."""
    if jobs > 1 and forecaster.warm_start:
        raise ConfigError(f"origins of {series.cell_id!r} cannot run in {jobs} jobs with a warm "
                          "start, which chains each fit to the one before")
    true_eol = true_end_of_life(series, eol_threshold)
    horizon_x = HORIZON_FACTOR * float(series.cycles[-1])
    # origins past the observed end of life have empty test windows
    origins = [c for c in rolling_origins(series, start_fraction) if series.cycles[c] <= true_eol]
    if not origins:
        raise DegenerateInputError(f"cell {series.cell_id!r} has no origin from start fraction "
                                   f"{start_fraction} before its observed end of life at cycle "
                                   f"{true_eol:.6g} (threshold {eol_threshold})")
    step = partial(_origin_record, forecaster, series, eol_threshold, horizon_x, true_eol)
    records = [
        record
        if error is None
        else OriginRecord(
            c, float(series.cycles[c - 1]), None, None, None, failed=True, error=error
        )
        for c, (record, error) in zip(origins, pool_map(partial(_attempt, step), origins, jobs))
    ]
    estimates = [r.eol_estimate for r in records if not r.failed]
    return EvaluationReport(
        cell_id=series.cell_id,
        threshold=eol_threshold,
        true_eol=true_eol,
        horizon_x=horizon_x,
        records=tuple(records),
        rmse_eol=rmse_eol(estimates, true_eol) if estimates else float("nan"),
    )


def evaluate(
    series: CapacitySeries,
    kernel_expr: str = "MA5+MA3",
    mean_expr: str = "CONST",
    start_fraction: float = 0.2,
    eol_threshold: float = 0.7,
    config: TrainConfig = TrainConfig(),
    warm_start: bool = True,
    jobs: int = 1,
) -> EvaluationReport:
    """Rolling evaluation of capacity RMSE and end-of-life accuracy.

    Origins run from ``start_fraction`` of the data until the observed end
    of life; a start fraction that leaves none raises
    :class:`DegenerateInputError`.  Each origin retrains a
    :class:`GpForecaster`; infinite point forecasts are clamped to the horizon
    (:data:`HORIZON_FACTOR` times the final observed position) and flagged.
    With ``jobs`` > 1 origins run in separate processes, which requires
    ``warm_start=False`` since warm starting chains origins sequentially.
    """
    forecaster = GpForecaster(kernel_expr, mean_expr, config, warm_start)
    return _backtest(series, forecaster, start_fraction, eol_threshold, jobs)


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
    jobs: int = 1,
) -> EvaluationReport:
    """Rolling multi-output evaluation of one target cell.

    Companion cells contribute their full histories at every origin; the
    target contributes data up to the split only.  The target takes the
    last output label.  A repeated or unknown cell, the target among the
    training cells, or a start fraction :func:`evaluate` rejects raises.
    """
    train_cells = list(train_cells)
    if target in train_cells:
        raise ConfigError(f"target {target!r} also listed as a training cell")
    if not train_cells:
        raise ConfigError("multi-output evaluation needs at least one training cell")
    if len(set(train_cells)) < len(train_cells):
        raise ConfigError(f"training cells {train_cells} name a cell more than once")
    sub = fleet.subfleet(train_cells + [target])
    forecaster = GpForecaster(
        kernel_expr, mean_expr, config, warm_start, companions=sub.series[:-1]
    )
    return _backtest(sub.series[-1], forecaster, start_fraction, eol_threshold, jobs)
