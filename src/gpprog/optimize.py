"""Model building, hyperparameter training and compound-kernel search.

:func:`model_for_series` turns a (kernel expression, mean token, data)
triple into an untrained model: a single-output one for one cell, the
multi-output one for a fleet.  Training minimizes the negative log marginal
likelihood with a quasi-Newton optimizer (L-BFGS-B, analytic gradients)
restarted from a Latin hypercube of starting points.  Each run is
box-constrained to the same data-driven bounds that seed the starts; see
:func:`train` for the rationale.  :func:`pool_map` is the one place that
starts worker processes, for the kernel search and the rolling evaluations.
Training and search results are plain records (:class:`RestartRecord`,
:class:`SearchEntry`); :mod:`gpprog.cli` writes them.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from . import kernels as kx
from . import meanfn as mx
from .dataset import CapacitySeries, Fleet
from .errors import ConfigError, DegenerateInputError, NumericalError, TrainingError
from .gp import LOG_NOISE_VARIANCE, GpModel, _pin_blas_threads

_PENALTY = 1e25
DEFAULT_BASES = ("SE", "MA3", "MA5", "PER")


@dataclass(frozen=True)
class TrainConfig:
    """Budget and reproducibility knobs for one training run."""

    n_restarts: int = 10
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ConfigError(f"n_restarts must be >= 1, got {self.n_restarts}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RestartRecord:
    """One L-BFGS-B run; ``evaluations`` is its nfev, of which ``penalties``
    failed numerically and were penalized."""

    start_nlml: float
    final_nlml: float
    message: str
    evaluations: int
    penalties: int


@dataclass(frozen=True)
class TrainResult:
    model: GpModel
    nlml: float
    restarts: tuple[RestartRecord, ...]

    @property
    def lml(self) -> float:
        return -self.nlml


def _lhs_design(seed: int, n: int, bounds: np.ndarray) -> np.ndarray:
    """Stratified Latin hypercube: one sample per axis bin per dimension."""
    rng = np.random.default_rng(seed)
    dim = len(bounds)
    u = np.empty((n, dim))
    for j in range(dim):
        perm = rng.permutation(n)
        u[:, j] = (perm + rng.uniform(0.0, 1.0, size=n)) / n
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def default_lhs_bounds(model: GpModel) -> np.ndarray:
    """Starting bounds scaled to the training data, per parameter kind.

    Length scales and periods scale with the input range, output scales and
    noise with the target standard deviation, mean-function coefficients
    with the observed target spread.
    """
    x, y = model.x, model.y
    x_range = float(x.max() - x.min()) if len(x) > 1 else 1.0
    if x_range <= 0:
        x_range = 1.0
    # densely sampled inputs make shorter length scales identifiable
    spacing = float(np.median(np.diff(np.unique(x)))) if len(np.unique(x)) > 1 else x_range
    shortest = min(0.1 * x_range, 2.0 * spacing)
    y_std = float(np.std(y))
    if y_std <= 0 or not math.isfinite(y_std):
        y_std = max(0.05 * abs(float(np.mean(y))), 1e-3)
    y_spread = float(y.max() - y.min())
    y_spread = max(y_spread, 0.05)
    y_mean = float(np.mean(y))
    bounds = []
    for kind in model.param_kinds():
        if kind == kx.LOG_LENGTH_SCALE:
            bounds.append((math.log(shortest), math.log(10.0 * x_range)))
        elif kind == kx.LOG_WIGGLE:
            bounds.append((math.log(0.25), math.log(10.0)))
        elif kind == kx.LOG_PERIOD:
            bounds.append((math.log(0.1 * x_range), math.log(2.0 * x_range)))
        elif kind == kx.LOG_OUTPUT_SCALE:
            bounds.append((math.log(0.01 * y_std), math.log(10.0 * y_std)))
        elif kind == kx.LOG_NOISE_SCALE:
            bounds.append((math.log(1e-4 * y_std), math.log(0.5 * y_std)))
        elif kind == LOG_NOISE_VARIANCE:
            bounds.append((2.0 * math.log(1e-4 * y_std), 2.0 * math.log(0.5 * y_std)))
        elif kind == kx.ANGLE:
            bounds.append((0.01, math.pi - 0.01))
        elif kind == kx.LOG_TAU:
            bounds.append((math.log(0.1), math.log(10.0)))
        elif kind == mx.MEAN_OFFSET:
            # early prefixes have tiny spread; the offset must still be able
            # to sit a whole amplitude away from the observed window
            half = max(2.0 * y_spread, 0.5 * max(abs(y_mean), 1e-3))
            bounds.append((y_mean - half, y_mean + half))
        elif kind == mx.MEAN_AMPLITUDE:
            amp = max(2.0 * y_spread, max(abs(y_mean), 1e-3))
            bounds.append((-amp, amp))
        elif kind == mx.MEAN_RATE:
            bounds.append((-3.0 / x_range, 3.0 / x_range))
        else:
            raise ConfigError(f"no default bounds for parameter kind {kind!r}")
    return np.array(bounds)


def _objective(model: GpModel):
    """NLML and gradient at an optimization-space vector, penalized where
    evaluation fails numerically."""
    dim = len(model.opt_vector())

    def fun(theta):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value, grads = model.nlml_value_and_gradients(theta)
        except (NumericalError, FloatingPointError, OverflowError, np.linalg.LinAlgError):
            return _PENALTY, np.zeros(dim)
        if not (math.isfinite(value) and np.isfinite(grads).all()):
            return _PENALTY, np.zeros(dim)
        return value, grads

    return fun


def train(model: GpModel, config: TrainConfig = TrainConfig(), extra_starts=()) -> TrainResult:
    """Fit hyperparameters by multi-start NLML minimization.

    ``extra_starts`` lets callers add warm starts (for example the previous
    optimum in a rolling evaluation) on top of the Latin hypercube draws;
    each must be a finite optimization-space vector of the model's length,
    and is clipped to the bounds.  The search is box-constrained to the
    same bounds that seed the starts, which keeps hyperparameters in the
    identifiable region the bounds describe (a period longer than the
    observed window, say, is just an expensive way to mimic a smooth
    kernel).  The returned model is the best local optimum found; its NLML
    never exceeds that of any start, which is the first point L-BFGS-B
    evaluates.
    """
    if len(model.x) < 2:
        raise DegenerateInputError("training requires at least two points")
    dim = len(model.opt_vector())
    bounds = default_lhs_bounds(model)
    starts = list(_lhs_design(config.seed, config.n_restarts, bounds))
    for extra in extra_starts:
        extra = np.asarray(extra, dtype=float)
        if extra.shape != (dim,) or not np.all(np.isfinite(extra)):
            raise ConfigError(f"extra start must be {dim} finite values, got {extra.tolist()}")
        starts.append(np.clip(extra, bounds[:, 0], bounds[:, 1]))
    fun = _objective(model)
    records = []
    best_value = math.inf
    best_theta = None
    for start in starts:
        values = []

        def recorded(theta):
            value, grads = fun(theta)
            values.append(value)
            return value, grads

        result = minimize(
            recorded,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=list(map(tuple, bounds)),
            options={"maxiter": config.max_iterations, "gtol": 1e-6},
        )
        f0, value, theta = values[0], float(result.fun), result.x
        if f0 < value:  # never accept a step that lost ground on its start
            value, theta = f0, start
        message = result.message if isinstance(result.message, str) else str(result.message)
        records.append(
            RestartRecord(float(f0), value, message, int(result.nfev), values.count(_PENALTY))
        )
        if value < best_value:
            best_value, best_theta = value, theta
    if best_theta is None or best_value >= _PENALTY / 2:
        raise TrainingError(
            "all restarts failed numerically",
            diagnostics=[
                f"start nlml {r.start_nlml:.6g} -> {r.final_nlml:.6g}: {r.message} "
                f"({r.evaluations} evaluations, {r.penalties} penalized)"
                for r in records
            ],
        )
    trained = model.with_opt_vector(best_theta)
    return TrainResult(trained, best_value, tuple(records))


# --- compound kernel search ---------------------------------------------------


@dataclass(frozen=True)
class SearchEntry:
    """One trained candidate in a kernel search, ranked by NLML."""

    kernel: str
    nlml: float
    hyperparameters: dict[str, float]

    @property
    def lml(self) -> float:
        return -self.nlml


@dataclass(frozen=True)
class KernelSearchResult:
    entries: tuple[SearchEntry, ...]
    failures: tuple[tuple[str, str], ...] = ()

    @property
    def best(self) -> SearchEntry:
        if not self.entries:
            raise TrainingError("every kernel candidate failed to train")
        return self.entries[0]


def candidate_pairs(bases) -> list[str]:
    """All unordered pairs (with replacement) of base kernel tokens."""
    bases = [b.strip().upper() for b in bases]
    if not bases:
        raise ConfigError("kernel search needs at least one base kernel")
    if len(set(bases)) != len(bases):
        raise ConfigError(f"duplicate bases in {tuple(bases)}")
    for b in bases:
        kx.base_kernel(b)  # validate tokens up front
    return [
        f"{bases[i]}+{bases[j]}"
        for i in range(len(bases))
        for j in range(i, len(bases))
    ]


def model_for_series(data, kernel_expr: str, mean_expr: str = "CONST") -> GpModel:
    """Build an untrained model from grammar expressions.

    ``data`` is a :class:`CapacitySeries`, an ``(x, y)`` pair or a
    :class:`Fleet`.  A fleet gets the multi-output model over every cell's
    observations: the covariance becomes Product(LabelCovariance(m), kernel)
    with every correlation angle at pi/4, and the mean is fitted to all
    cells together.
    """
    labels = None
    if isinstance(data, Fleet):
        x, y, labels = data.labeled_arrays()
    elif isinstance(data, CapacitySeries):
        x, y = data.cycles, data.capacities
    else:
        x, y = data
    kernel = kx.with_data_scales(kx.parse_kernel(kernel_expr), x, y)
    if labels is not None:
        angles = (math.pi / 4,) * (data.m * (data.m - 1) // 2)
        kernel = kx.Product(kx.LabelCovariance(data.m, angles=angles), kernel)
    mean = mx.mean_from_token(mean_expr, x, y)
    return GpModel(kernel, x, y, mean=mean, labels=labels)


def pool_map(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, in order.

    With ``jobs`` > 1 and more than one item the calls run in ``jobs``
    worker processes, so ``fn`` and the items must pickle and each worker
    holds its own copy of them.  Each worker pins its BLAS to one thread
    before its first call.
    """
    items = list(items)
    if jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_pin_blas_threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _search_one(payload):
    expr, series, mean_expr, config = payload
    model = model_for_series(series, expr, mean_expr)
    try:
        result = train(model, config, extra_starts=[model.opt_vector()])
    except TrainingError as exc:
        return expr, None, None, str(exc)
    raw = result.model.hyperparameters().raw()
    return expr, float(result.nlml), raw, None


def kernel_search(
    series: CapacitySeries,
    bases=DEFAULT_BASES,
    config: TrainConfig = TrainConfig(),
    mean_expr: str = "CONST",
    jobs: int = 1,
) -> KernelSearchResult:
    """Train every pairwise sum of the base kernels and rank by NLML.

    Each candidate gets its own deterministic seed derived from the
    configured seed and its position, so results do not depend on ``jobs``.
    Ties in NLML keep candidate order.
    """
    exprs = candidate_pairs(bases)
    payloads = [
        (expr, series, mean_expr, replace(config, seed=config.seed + 7919 * i))
        for i, expr in enumerate(exprs)
    ]
    outcomes = pool_map(_search_one, payloads, jobs)
    scored = []
    failures = []
    for idx, (expr, nlml, raw, error) in enumerate(outcomes):
        if error is not None:
            failures.append((expr, error))
        else:
            scored.append((nlml, idx, SearchEntry(expr, nlml, raw)))
    scored.sort(key=lambda item: (item[0], item[1]))
    return KernelSearchResult(
        entries=tuple(entry for _, _, entry in scored), failures=tuple(failures)
    )
