"""Model building, hyperparameter training and compound-kernel search.

:func:`model_for_series` turns a (kernel expression, mean token, data)
triple into an untrained model: a single-output one for one cell, the
multi-output one for a fleet.  Training minimizes the negative log marginal
likelihood with a quasi-Newton optimizer (L-BFGS-B, analytic gradients)
restarted from a Latin hypercube of starting points, the model's own
parameters and an optional warm start.  The starts are drawn in data-driven
bounds on the hyperparameters and mapped into the model's optimization
coordinates (:meth:`GpModel.opt_map`: the mean's rates in units of the input
range, and a single-scale kernel's scale solved rather than searched), and
each run is box-constrained to the image of those bounds; see :func:`train`
for the rationale.  :func:`pool_map` is the one place that starts worker
processes, for the kernel search and the rolling evaluations.
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
from .gp import GpModel, _pin_blas_threads, default_lhs_bounds, starts_and_bounds

_PENALTY = 1e25
_MAX_ITERATIONS = 200
DEFAULT_BASES = ("SE", "MA3", "MA5", "PER")


@dataclass(frozen=True)
class TrainConfig:
    """Training budget and seed; ``n_restarts`` counts the Latin hypercube starts."""

    n_restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ConfigError(f"n_restarts must be >= 1, got {self.n_restarts}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RestartRecord:
    """One L-BFGS-B run; ``evaluations`` counts its NLML evaluations (its
    nfev), of which ``penalties`` failed numerically and were penalized."""

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


class _Callbacks:
    """L-BFGS-B's value and gradient callbacks for one restart.

    Each NLML evaluation is penalized where it fails numerically, and its
    value is kept in ``values``.  L-BFGS-B asks for the gradient right after
    the value at the same point, so ``gradient`` reuses that evaluation and
    evaluates again only at a point ``value`` did not just see.  Neither
    touches numpy's floating-point warnings; :func:`train` ignores them for
    all its runs.
    """

    def __init__(self, model: GpModel):
        self.model = model
        self.values: list[float] = []
        self._theta = self._grads = None

    def value(self, theta) -> float:
        try:
            value, grads = self.model.nlml_value_and_gradients(theta)
            failed = not (math.isfinite(value) and np.isfinite(grads).all())
        except (NumericalError, FloatingPointError, OverflowError, np.linalg.LinAlgError):
            failed = True
        if failed:
            value, grads = _PENALTY, np.zeros(len(theta))
        self.values.append(value)
        self._theta, self._grads = np.array(theta), grads
        return value

    def gradient(self, theta) -> np.ndarray:
        if not np.array_equal(theta, self._theta):
            self.value(theta)
        return self._grads


def train(model: GpModel, config: TrainConfig = TrainConfig(), warm=None) -> TrainResult:
    """Fit hyperparameters by multi-start NLML minimization.

    Every caller gets the same starts, in this order (``restarts`` keeps it):
    ``config.n_restarts`` Latin hypercube draws, the model's own parameters,
    and ``warm`` if given (say, a rolling sweep's previous optimum, as its
    ``hyperparameters().values``).  All are hyperparameter vectors, mapped
    into the model's optimization coordinates (a warm start travels as
    hyperparameters because those coordinates depend on the input range).
    The draws lie in :func:`default_lhs_bounds`, and the image of those
    bounds box-constrains the search, which keeps hyperparameters in the
    identifiable region they describe (a period longer than the observed
    window, say, is just an expensive way to mimic a smooth kernel); the
    last two starts are clipped to that box.  A solved scale is not searched;
    the step holds it to its own box (see :func:`default_lhs_bounds`).
    The returned model is the best local optimum found; its NLML never
    exceeds that of any start, which L-BFGS-B evaluates first.
    """
    if len(model.x) < 2:
        raise DegenerateInputError(f"training requires at least two points, got {len(model.x)}")
    own = model.hyperparameters().values
    extra = [own] if warm is None else [own, np.asarray(warm, dtype=float)]
    if extra[-1].shape != own.shape or not np.all(np.isfinite(extra[-1])):
        raise ConfigError(f"warm start must be {len(own)} finite values, got {extra[-1].tolist()}")
    bounds = default_lhs_bounds(model)
    lo, hi = bounds.T
    to_opt = model.opt_map()
    # the image of the bounds under the linear map: each end takes the other
    # end where a coefficient is negative (log lambda falls as the scale rises)
    up, down = np.maximum(to_opt, 0.0), np.minimum(to_opt, 0.0)
    box = np.column_stack([up @ lo + down @ hi, up @ hi + down @ lo])
    starts = [
        *_lhs_design(config.seed, config.n_restarts, bounds) @ to_opt.T,
        *np.clip(np.array(extra) @ to_opt.T, box[:, 0], box[:, 1]),
    ]
    records = []
    best_value = math.inf
    best_theta = None
    # an extreme step overflows the kernel or the mean; the callbacks
    # penalize what that breaks, so the warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in starts:
            calls = _Callbacks(model)
            result = minimize(
                calls.value,
                start,
                jac=calls.gradient,
                method="L-BFGS-B",
                bounds=list(map(tuple, box)),
                options={"maxiter": _MAX_ITERATIONS, "gtol": 1e-6},
            )
            values = calls.values
            f0, value, theta = values[0], float(result.fun), result.x
            if f0 < value:  # never accept a step that lost ground on its start
                value, theta = f0, start
            message = str(result.message)
            records.append(
                RestartRecord(float(f0), value, message, len(values), values.count(_PENALTY))
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
    """One trained candidate in a kernel search, ranked by NLML, with its
    hyperparameters and its mean's parameters as :func:`meanfn.mean_params`
    gives them."""

    kernel: str
    nlml: float
    hyperparameters: dict[str, float]
    mean_params: dict[str, float]

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
    and the mean is fitted to all cells together.  Every parameter starts
    where :func:`~gpprog.gp.starts_and_bounds` puts it for the data: the
    correlation angles at pi/4, EXPDEG's rate at -1 / x_range, and so on.
    """
    labels = None
    if isinstance(data, Fleet):
        x, y, labels = data.labeled_arrays()
    elif isinstance(data, CapacitySeries):
        x, y = data.cycles, data.capacities
    else:
        x, y = data
    kernel = kx.parse_kernel(kernel_expr)
    if labels is not None:  # placeholder angles, which the starts replace
        angles = [0.0] * (data.m * (data.m - 1) // 2)
        kernel = kx.Product(kx.LabelCovariance(data.m, angles), kernel)
    model = GpModel(kernel, x, y, mean=mx.mean_from_token(mean_expr, y), labels=labels)
    starts = iter(starts_and_bounds(model)[0])
    kernel = kernel._with_raw(starts)
    noise = next(starts)
    return GpModel(kernel, x, y, mean=model.mean._with_raw(starts), noise_variance=noise,
                   labels=labels)


def pool_map(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, in order.

    With ``jobs`` > 1 and more than one item the calls run in
    ``min(jobs, len(items))`` worker processes, so ``fn`` and the items must
    pickle and each worker holds its own copy of them.  Each worker pins its
    BLAS to one thread before its first call.
    """
    items = list(items)
    if jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(min(jobs, len(items)), initializer=_pin_blas_threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _search_one(payload) -> SearchEntry | str:
    """One trained candidate, or the message it failed to train with."""
    expr, series, mean_expr, config = payload
    try:
        result = train(model_for_series(series, expr, mean_expr), config)
    except TrainingError as exc:
        return str(exc)
    model = result.model
    return SearchEntry(
        expr, float(result.nlml), model.hyperparameters().raw(), mx.mean_params(model.mean)
    )


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
    entries = [o for o in outcomes if isinstance(o, SearchEntry)]
    return KernelSearchResult(
        entries=tuple(sorted(entries, key=lambda e: e.nlml)),  # stable: ties keep candidate order
        failures=tuple((expr, o) for expr, o in zip(exprs, outcomes) if isinstance(o, str)),
    )
