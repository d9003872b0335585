"""Exact Gaussian process regression with an explicit prior mean.

The observation model is

    y_i = m(x_i) + f(x_i) + eps_i,   f ~ GP(0, k),   eps ~ N(0, sigma^2)

All inference reuses a single Cholesky factorization of K + sigma^2 I:
the marginal likelihood, its gradients, posterior conditioning and additive
decomposition.  Posterior variances take the prior variance k(x*, x*) from
the kernel diagonal (Rasmussen & Williams 2006, eq. 2.26), and test inputs
are conditioned POSTERIOR_BLOCK at a time (their columns are independent,
Alg. 2.1), so a posterior of N inputs needs O(N) memory for its outputs plus
O(POSTERIOR_BLOCK n) scratch, whatever N.  Models are immutable;
training evaluates candidate parameter vectors against one model and builds
the trained instance once via ``with_opt_vector``.

Training searches optimization coordinates, which differ from the
hyperparameters (``GpModel.hyperparameters``, log values for positive
parameters) in two ways.  The mean's rates are searched in units of the
input range, as rate * x_range.  And when the kernel has exactly one scale
(one output or noise scale and no sum, so K + sigma^2 I = s (R + lambda I)),
that scale is not searched: the noise entry is log lambda = log sigma^2 -
log s, and each step solves s = r^T (R + lambda I)^-1 r / n in closed form,
the concentrated likelihood of kriging (Rasmussen & Williams 2006, §5.4;
Jones, Schonlau & Welch 1998), held to a box set by the data (a mean that
fits the targets exactly would otherwise leave s = 0 and an NLML without a
lower bound).  A kernel with two or more scales keeps them all in the
search.  ``GpModel.opt_map`` is the linear map from
hyperparameters to optimization coordinates.  Every parameter's start and
its starting bounds come from one rule per parameter kind,
:func:`starts_and_bounds`, which reads the data through the input range,
the inputs' spacing and the targets' spread; kernels and mean functions
read none.

Per model, the first evaluation keeps what theta does not change: the
distinct pair keys of the inputs, each pair's index into them, an n x n
gram buffer and the layout of the optimization vectors.  A training step
computes the rest: exp of the log entries, the mean's offset and basis,
one evaluation of the kernel and its gradients on all the keys, the
gathered gram, LAPACK's dpotrf, one dpotrs on [y - offset | basis] (on
y - offset alone when the basis is empty), the mean's linear coefficients by
generalised least squares (a q x q solve, Rasmussen & Williams 2006, §2.7;
q = 2 for EXPDEG, 0 otherwise), the solved scale when there is one, dpotri,
and W = K^-1 - alpha alpha^T / s summed by key.  The coefficients and the
scale minimise the NLML, so its gradient in them is zero, or the scale is
held at an end of its box, where it does not move with theta: either way
the step's gradient holds for the profiled NLML too.  The trained model
carries them.
Whole-cycle inputs have about n keys; fractional ones, where nearly every
pair is distinct, about n^2/2, so a step's temporaries are then O(P n^2/2)
for P kernel parameters, the order of the n x n arrays it holds anyway.
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from scipy.linalg import blas, lapack, solve_triangular

from .errors import ConfigError, ContractError, NumericalError
from .kernels import (
    ANGLE,
    LOG_LENGTH_SCALE,
    LOG_NOISE_SCALE,
    LOG_OUTPUT_SCALE,
    LOG_PERIOD,
    LOG_WIGGLE,
    Hyperparameters,
    Kernel,
    PairKeys,
    Product,
    Sum,
    is_log_kind,
    natural_values,
    numbered_tokens,
    sum_terms,
    unique_pair_keys,
    with_label_pairs,
)
from .meanfn import MEAN_RATE, MeanFunction, Zero

LOG_NOISE_VARIANCE = "log_noise_variance"

# a posterior conditions its inputs in blocks of this many, so that its scratch
# (a block's cross-covariance, its kernel temporaries and v = L^-1 k*) stays a
# few hundred kilobytes however long the grid; far smaller blocks move last digits
POSTERIOR_BLOCK = 128

_LOG2PI = math.log(2.0 * math.pi)

# eigenvalues of H^T K^-1 H, scaled to a unit diagonal, below this fraction of
# the largest count as zero: with all inputs equal the basis has rank one and
# rounding leaves its second eigenvalue near cond(K) eps, while on B1's rolling
# fits (MA3 or NOISE with EXPDEG) it was never below 0.02
_RANK_TOL = 1e-8
_TINY = np.finfo(float).tiny


@cache
def _pin_blas_threads() -> None:
    """Limit the OpenBLAS builds bundled with scipy and numpy to one thread.

    OpenBLAS splits dpotri, and dpotrf from n of about 150, across its
    threads, which moves results in the last digits with the core count; at
    these sizes one thread is also the fastest.  Runs once per process,
    before its first factorization, and ``optimize.pool_map`` runs it in
    each worker.
    """
    pinned = False
    for package, pattern, setter in (
        (scipy, "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
        (np, "libscipy_openblas64_-*.so", "scipy_openblas_set_num_threads64_"),
    ):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                set_threads = getattr(ctypes.CDLL(str(path)), setter)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            pinned = True
    if not pinned:
        print("gpprog: no bundled OpenBLAS found, so its threads are not pinned", file=sys.stderr)


def jittered_cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, adding diagonal jitter only if needed.

    The entries are scanned for non-finite values only when their sum is not
    finite: dpotrf reads one triangle and passes NaN through.  The first
    attempt uses no jitter; on failure the jitter starts at 1e-9 times the
    mean diagonal and escalates tenfold up to 1e-3 of it, after which a
    NumericalError is raised.
    """
    _pin_blas_threads()
    chol, info = lapack.dpotrf(a, lower=1, clean=1)
    if not math.isfinite(a.sum()) and not np.all(np.isfinite(a)):
        raise NumericalError("covariance matrix contains non-finite entries")
    if info == 0:
        return chol, 0.0
    diag_mean = float(np.mean(np.diag(a)))
    jitter = diag_mean * 1e-9
    while 0.0 < jitter <= diag_mean * 1e-3:
        chol, info = lapack.dpotrf(a + jitter * np.eye(len(a)), lower=1, clean=1)
        if info == 0:
            return chol, jitter
        jitter *= 10.0
    eigs = np.linalg.eigvalsh(a)
    raise NumericalError(
        "covariance not positive definite even with jitter "
        f"{diag_mean * 1e-3:.3e}; eigenvalue range "
        f"[{eigs[0]:.3e}, {eigs[-1]:.3e}]"
    )


@dataclass(frozen=True, eq=False)
class PosteriorComponent:
    """Posterior of one additive kernel term."""

    name: str
    mean: np.ndarray
    variance: np.ndarray


@dataclass(frozen=True, eq=False)
class Posterior:
    """Posterior at a set of test inputs.

    ``variance_latent`` excludes observation noise; ``variance_noisy`` adds
    it back and is what the credible bounds use.
    """

    x: np.ndarray
    labels: np.ndarray | None
    mean: np.ndarray
    variance_latent: np.ndarray
    variance_noisy: np.ndarray
    components: tuple[PosteriorComponent, ...] | None = None

    @property
    def sigma_latent(self) -> np.ndarray:
        return np.sqrt(self.variance_latent)

    @property
    def sigma_noisy(self) -> np.ndarray:
        return np.sqrt(self.variance_noisy)

    def bounds(self):
        """(lower, upper) credible curves at mean +/- 2 noisy standard deviations."""
        sd = self.sigma_noisy
        return self.mean - 2.0 * sd, self.mean + 2.0 * sd


def _nlml(chol: np.ndarray, resid: np.ndarray, alpha: np.ndarray, scale: float = 1.0) -> float:
    """Negative log marginal likelihood of the covariance scale * A, from the
    Cholesky factor of A and alpha = A^-1 resid."""
    half_log_det = np.log(chol.diagonal()).sum()
    n = len(resid)
    return float(
        0.5 * (resid @ alpha) / scale + 0.5 * n * math.log(scale) + half_log_det + 0.5 * n * _LOG2PI
    )


def _solved_scale(resid: np.ndarray, alpha: np.ndarray, box: tuple[float, float]) -> float:
    """The scale s in ``box`` that minimises the NLML of the covariance s A:
    r^T A^-1 r / n, with alpha = A^-1 r, clamped to the box.  The NLML is
    convex in log s, so the clamped value is the box's best.

    Without the floor, a mean that fits the targets to rounding would leave
    a scale of zero or of rounding noise, and an NLML without a lower bound.
    The floor is the least noise variance of the starting bounds, not the
    square of the scale's own least: on rolling B1, 39 of 83 trained scales
    lie on that, and with it as the floor the kink cost L-BFGS-B more
    evaluations (11,531 at seed 0) than searching the scale did (10,063).
    The top is the square of the scale's greatest starting bound."""
    scale = float(resid @ alpha) / len(resid)
    if not math.isfinite(scale):
        raise NumericalError(f"solved kernel scale {scale} is not finite")
    return min(max(scale, box[0]), box[1])


def _single_scale(kernel: Kernel) -> int | None:
    """The index among the kernel's parameters of its one scale, when its gram
    is that scale squared times a gram free of it: it has one output or noise
    scale, and no sum, which would add a term the scale does not multiply.
    None otherwise."""
    def has_sum(node):
        if isinstance(node, Product):
            return has_sum(node.left) or has_sum(node.right)
        return isinstance(node, Sum)

    kinds = kernel.hyperparameters().kinds
    scales = [i for i, kind in enumerate(kinds) if kind in (LOG_OUTPUT_SCALE, LOG_NOISE_SCALE)]
    return scales[0] if len(scales) == 1 and not has_sum(kernel) else None


class _Layout(NamedTuple):
    """How a model's optimization vectors map to its parameters."""

    logs: np.ndarray  # the positions of the log entries
    noise: int  # the noise entry's index, after the kernel's searched entries
    dim: int  # the vectors' length
    scale: int | None  # the kernel's solved scale, as an index among its parameters
    scale_box: tuple[float, float]  # the solved scale's bounds (a variance, as s)
    units: tuple[float, ...]  # the mean's entries' units: x_range for a rate, else 1
    to_opt: np.ndarray  # the matrix from hyperparameters to optimization coordinates


def _gls_coefficients(a: np.ndarray, b: np.ndarray) -> list[float]:
    """The minimum-norm solution of the GLS normal equations a beta = b, with
    a = H^T K^-1 H and b = H^T K^-1 r for a basis H of at most two columns;
    where H is rank deficient, every solution gives the same NLML.

    Scaled to a unit diagonal, a is [[1, c], [c, 1]] with eigenvalues
    1 +- |c|, so the rank test is blind to the columns' scales; a zero column
    gets a zero coefficient.  Plain floats: a numpy call costs more here.
    """
    scales = [1.0 / math.sqrt(max(v, _TINY)) for v in a.diagonal().tolist()]
    r = [v * s for v, s in zip(b.tolist(), scales)]
    if len(r) == 2:
        c = float(a[0, 1]) * scales[0] * scales[1]
        if 1.0 - abs(c) > _RANK_TOL * (1.0 + abs(c)):
            r = [(r[0] - c * r[1]) / (1.0 - c * c), (r[1] - c * r[0]) / (1.0 - c * c)]
        else:  # rank one: project onto the eigenvector (1, sign c) / sqrt 2
            sign = math.copysign(1.0, c)
            t = (r[0] + sign * r[1]) / (2.0 * (1.0 + abs(c)))
            r = [t, sign * t]
    return [v * s for v, s in zip(r, scales)]


def _checked_variance(var: np.ndarray, scale: float) -> np.ndarray:
    """Clamp tiny negative variances from rounding; fail loudly otherwise."""
    floor = -1e-10 * max(1.0, scale)
    if np.any(var < floor):
        raise NumericalError(
            f"posterior variance {var.min():.3e} below tolerance {floor:.3e}"
        )
    return np.clip(var, 0.0, None)


def starts_and_bounds(model: GpModel) -> tuple[list[float], np.ndarray]:
    """Each hyperparameter's start, as a natural-space value, and its
    starting bounds, in ``model.hyperparameters()`` coordinates (log values
    for log kinds), from one rule per parameter kind.

    The rules read the data through the input range (``model.x_range``), the
    median spacing of the distinct inputs (for the least length scale) and
    the targets' standard deviation, or, for targets without spread, 5% of
    their mean and at least 1e-3.  Length scales, periods and the mean's rate
    scale with the range, output scales and noise with the deviation.  Each
    output scale opens a slot for its leaf's length scale or period, 4x
    shorter than the last slot's, so that summed components start on
    distinct timescales instead of a symmetric (and optimizer-degenerate)
    configuration.  The noise variance starts at 1e-4 whatever the data;
    :func:`~gpprog.optimize.train` clips a start outside the bounds' image to
    it.  The mean's linear coefficients are solved, not searched, so they
    have neither.
    """
    x_range, distinct, y = model.x_range, np.unique(model.x), model.y
    # densely sampled inputs make shorter length scales identifiable
    spacing = float(np.median(np.diff(distinct))) if len(distinct) > 1 else x_range
    shortest = min(0.1 * x_range, 2.0 * spacing)
    y_std = float(np.std(y))
    if y_std <= 0 or not math.isfinite(y_std):
        y_std = max(0.05 * abs(float(np.mean(y))), 1e-3)
    slot, length = 0, x_range
    starts, bounds = [], []
    for kind in model.param_kinds():
        if kind == LOG_OUTPUT_SCALE:
            length = x_range / (3.0 * 4.0**slot)
            slot += 1
            starts.append(y_std)
            bounds.append((math.log(0.01 * y_std), math.log(10.0 * y_std)))
        elif kind == LOG_LENGTH_SCALE:
            starts.append(length)
            bounds.append((math.log(shortest), math.log(10.0 * x_range)))
        elif kind == LOG_WIGGLE:
            starts.append(1.0)
            bounds.append((math.log(0.25), math.log(10.0)))
        elif kind == LOG_PERIOD:
            starts.append(2.0 * length)
            bounds.append((math.log(0.1 * x_range), math.log(2.0 * x_range)))
        elif kind == LOG_NOISE_SCALE:
            starts.append(y_std / 10.0)
            bounds.append((math.log(1e-4 * y_std), math.log(0.5 * y_std)))
        elif kind == LOG_NOISE_VARIANCE:
            starts.append(1e-4)
            bounds.append((2.0 * math.log(1e-4 * y_std), 2.0 * math.log(0.5 * y_std)))
        elif kind == ANGLE:
            starts.append(math.pi / 4)
            bounds.append((0.01, math.pi - 0.01))
        elif kind == MEAN_RATE:
            starts.append(-1.0 / x_range)
            bounds.append((-3.0 / x_range, 3.0 / x_range))
        else:
            raise ConfigError(f"no default bounds for parameter kind {kind!r}")
    return starts, np.array(bounds)


def default_lhs_bounds(model: GpModel) -> np.ndarray:
    """The starting bounds of :func:`starts_and_bounds`.  A solved kernel
    scale takes its box from them too (see ``_solved_scale``);
    :func:`~gpprog.optimize.train` draws its starts in them."""
    return starts_and_bounds(model)[1]


class GpModel:
    """An immutable GP regression model bound to its training data.

    ``labels`` marks multi-output training data; they must then accompany
    every prediction request as well.
    """

    def __init__(
        self,
        kernel: Kernel,
        x,
        y,
        mean: MeanFunction | None = None,
        noise_variance: float = 1e-4,
        labels=None,
    ):
        self.kernel = kernel
        self.mean = mean if mean is not None else Zero()
        self.x = np.asarray(x, dtype=float).copy()
        self.y = np.asarray(y, dtype=float).copy()
        self.labels = None if labels is None else np.asarray(labels, dtype=int).copy()
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ConfigError("training inputs and targets must be equal-length 1-d")
        if len(self.x) < 1:
            raise ConfigError("at least one training point required")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ConfigError("non-finite training data")
        if self.labels is not None and self.labels.shape != self.x.shape:
            raise ConfigError("labels must match training inputs in length")
        if not (noise_variance > 0 and math.isfinite(noise_variance)):
            raise ConfigError(f"noise variance must be positive, got {noise_variance}")
        self.noise_variance = float(noise_variance)
        for arr in (self.x, self.y) + (() if self.labels is None else (self.labels,)):
            arr.flags.writeable = False

    # --- parameter plumbing ---------------------------------------------------

    def hyperparameters(self) -> Hyperparameters:
        """Kernel parameters, then log noise variance, then the mean's searched
        parameters; its linear coefficients are solved, so they are not here.
        A solved kernel scale is here, as the model holds it."""
        kh = self.kernel.hyperparameters()
        names = list(kh.names) + ["noise.variance"]
        kinds = list(kh.kinds) + [LOG_NOISE_VARIANCE]
        values = list(kh.values) + [math.log(self.noise_variance)]
        for local, kind, value in self.mean._param_specs():
            names.append(f"mean.{local}")
            kinds.append(kind)
            values.append(value)
        return Hyperparameters(tuple(names), tuple(kinds), np.array(values))

    def opt_vector(self) -> np.ndarray:
        """The model's own parameters in optimization coordinates."""
        return self._layout.to_opt @ self.hyperparameters().values

    def opt_map(self) -> np.ndarray:
        """The (read-only) matrix that takes hyperparameter vectors, as
        ``hyperparameters().values``, to optimization coordinates.

        Each row has one entry per hyperparameter except a solved scale: the
        identity for the kernel's other parameters, x_range for the mean's
        rates, and for the noise entry log sigma^2 - 2 log(scale) when the
        scale is solved (kernel scales are standard deviations).
        """
        return self._layout.to_opt

    def param_kinds(self) -> tuple[str, ...]:
        return self.hyperparameters().kinds

    def with_opt_vector(self, values) -> "GpModel":
        """The same model at an optimization-space vector, its mean's linear
        coefficients, and its kernel's scale if it has one, solved there.

        The new model keeps the solve's Cholesky factor for its posteriors
        (times the square root of a solved scale s: the factor is of K / s),
        with alpha solved from its own mean, so that it conditions as a model
        built from scratch: exactly with the scale searched, to rounding with
        it solved.  It also takes over the pair keys and the layout, which the
        vector does not change; the n x n buffer in the keys is only scratch
        inside ``_factor``, so the two models share it.
        """
        kraw, noise, mraw = self._natural(values)
        layout = self._layout
        mean = self.mean._with_raw(iter(mraw))
        k = self.kernel._evaluate(self._keys[0], iter(kraw), False)[0]
        columns, _ = mean._evaluate(self.x, mraw)
        chol, jitter, resid, alpha, beta = self._factor(k, noise, columns)
        if layout.scale is not None:
            scale = _solved_scale(resid, alpha, layout.scale_box)
            kraw[layout.scale] = math.sqrt(scale)
            noise *= scale
            chol *= math.sqrt(scale)
            jitter *= scale
        model = GpModel(
            self.kernel._with_raw(iter(kraw)),
            self.x,
            self.y,
            mean=mean._with_coefficients(beta),
            noise_variance=noise,
            labels=self.labels,
        )
        resid = model.y - model.mean(model.x)
        alpha, _ = lapack.dpotrs(chol, resid, lower=1)
        model.__dict__.update(
            _keys=self._keys, _layout=self._layout, _factorization=(chol, jitter, resid, alpha)
        )
        return model

    @cached_property
    def x_range(self) -> float:
        """The spread of the training inputs, or 1 where they have none."""
        spread = float(np.ptp(self.x))
        return spread if spread > 0 else 1.0

    @cached_property
    def _layout(self) -> _Layout:
        kinds = list(self.param_kinds())
        nk = self.kernel.n_params()
        scale = _single_scale(self.kernel)
        units = tuple(self.x_range if kind == MEAN_RATE else 1.0 for kind in kinds[nk + 1 :])
        to_opt = np.diag([1.0] * (nk + 1) + list(units))
        box = (1.0, 1.0)
        if scale is not None:
            # from the least noise variance of the starting bounds to the
            # square of the scale's greatest (see _solved_scale)
            bounds = default_lhs_bounds(self)
            box = (math.exp(bounds[nk, 0]), math.exp(2.0 * bounds[scale, 1]))
            to_opt[nk, scale] = -2.0
            to_opt = np.delete(to_opt, scale, axis=0)
            del kinds[scale]
            nk -= 1
        to_opt.flags.writeable = False
        logs = np.flatnonzero([is_log_kind(k) for k in kinds])
        return _Layout(logs, nk, len(kinds), scale, box, units, to_opt)

    @cached_property
    def _keys(self) -> tuple[PairKeys, np.ndarray, np.ndarray]:
        """The distinct pair keys of the training inputs, with their label
        pairs indexed for the kernel, each pair's index into them (n x n),
        and an n x n buffer that every training step gathers its gram into."""
        keys, inverse = unique_pair_keys(self.x, self.labels)
        return with_label_pairs(self.kernel, keys), inverse, np.empty(inverse.shape)

    def _natural(self, values) -> tuple[list[float], float, list[float]]:
        """An optimization vector in natural space, range-checked: the
        kernel's parameters (a solved scale at 1), the noise variance (its
        ratio lambda to the solved scale, if any) and the mean's parameters."""
        layout = self._layout
        values = np.asarray(values, dtype=float)
        if len(values) != layout.dim:
            raise ConfigError(f"expected {layout.dim} parameter values, got {len(values)}")
        noise = values[layout.noise]
        if noise > 700.0:
            raise NumericalError(f"log noise variance {noise} leaves the float range")
        raw = natural_values(values, layout.logs)
        kraw = raw[: layout.noise]
        if layout.scale is not None:
            kraw.insert(layout.scale, 1.0)
        mraw = [v / unit for v, unit in zip(raw[layout.noise + 1 :], layout.units)]
        return kraw, raw[layout.noise], mraw

    # --- inference ---------------------------------------------------------

    @cached_property
    def _factorization(self):
        """(Cholesky factor, jitter, residual, alpha) at the model's own
        parameters, its mean taken as it is; computed on first use."""
        k = self.kernel._evaluate(self._keys[0], iter(self.kernel._raw_values()), False)[0]
        return self._factor(k, self.noise_variance, self.mean(self.x)[:, None])[:4]

    def _factor(self, k, noise, columns):
        """(Cholesky factor, jitter, residual, alpha, beta), with the gram
        gathered from the kernel's values ``k`` on the distinct keys and the
        mean offset + H beta from ``columns`` = [offset | H], which this
        overwrites, with beta solved by generalised least squares."""
        _, inverse, a = self._keys
        # the inverse comes from np.unique, so mode="clip" only skips its range check
        np.take(k, inverse, out=a, mode="clip")
        a.ravel()[:: len(a) + 1] += noise
        # the gram is symmetric, so its transpose is the same matrix in the
        # Fortran order that LAPACK takes without a transposing copy
        chol, jitter = jittered_cholesky(a.T)
        np.subtract(self.y, columns[:, 0], out=columns[:, 0])  # [y - offset | H]
        if columns.shape[1] == 1:  # an empty basis: nothing to solve
            resid = columns[:, 0]
            alpha, _ = lapack.dpotrs(chol, resid, lower=1)
            return chol, jitter, resid, alpha, []
        solved, _ = lapack.dpotrs(chol, columns, lower=1)
        normal = columns[:, 1:].T @ solved  # [H^T K^-1 r | H^T K^-1 H]
        beta = _gls_coefficients(normal[:, 1:], normal[:, 0])
        weights = np.array([1.0] + [-v for v in beta])
        return chol, jitter, columns @ weights, solved @ weights, beta

    def nlml(self) -> float:
        """Negative log marginal likelihood of the training data."""
        chol, _, resid, alpha = self._factorization
        return _nlml(chol, resid, alpha)

    def nlml_value_and_gradients(self, theta) -> tuple[float, np.ndarray]:
        """NLML and its gradient in optimization space (kernel, noise, mean),
        with the mean's linear coefficients, and the kernel's scale if it has
        one, solved at ``theta``.

        Evaluated at the optimization-space vector ``theta`` (the model's own
        is ``opt_vector()``) without building a new model: the pair keys and
        the parameter layout are computed on first use and kept.  The
        gradient is eq. 5.9 of Rasmussen & Williams (2006),
        1/2 tr((K^-1 - alpha alpha^T) dK).  With the scale s solved, K is
        s (R + lambda I), the NLML is r^T alpha / (2 s) + n/2 log s +
        1/2 log|R + lambda I| + n/2 log 2 pi (r^T alpha / s = n unless s is
        held at an end of its box), and W = (R + lambda I)^-1 -
        alpha alpha^T / s with alpha = (R + lambda I)^-1 r.

        The kernel and its gradients are evaluated once, on all the model's
        distinct pair keys; the values are gathered into the gram and each
        gradient is contracted with W summed by key, one dot product each.
        A mean parameter's entry is -(dH/dp beta)^T alpha / s, over x_range
        for a rate: the NLML's gradient in the solved coefficients beta and
        scale s is zero, or s is held at an end of its box.
        """
        kraw, noise, mraw = self._natural(theta)
        scale_index = self._layout.scale
        columns, basis_grads = self.mean._evaluate(self.x, mraw)
        keys, inverse, _ = self._keys
        k, dks = self.kernel._evaluate(keys, iter(kraw), True)
        chol, _, resid, alpha, beta = self._factor(k, noise, columns)
        del k
        scale = 1.0 if scale_index is None else _solved_scale(resid, alpha, self._layout.scale_box)
        value = _nlml(chol, resid, alpha, scale)
        # dpotri leaves the lower triangle Z of K^-1 (the upper stays zero) and
        # dsyr takes alpha alpha^T / s off that triangle in place.  Every dK is
        # symmetric, so 1/2 tr((K^-1 - alpha alpha^T / s) dK) = <W, dK> with W
        # the triangle, its diagonal halved.  The products go through scipy's
        # BLAS, the library that factorized K: numpy links its own OpenBLAS,
        # and with threads unpinned the two libraries' thread pools stall each
        # other once n^2 passes 10^4 (100x slower per evaluation).
        z, info = lapack.dpotri(chol, lower=1, overwrite_c=1)
        if info:
            raise NumericalError(f"dpotri failed with info {info}")
        z = blas.dsyr(-1.0 / scale, alpha, lower=1, a=z, overwrite_a=1)
        w = z.T.ravel()  # W row by row (z.T is C-ordered, so this is a view)
        w[:: len(z) + 1] *= 0.5
        noise_grad = noise * float(w[:: len(z) + 1].sum())
        weights = np.bincount(inverse.ravel(), weights=w)
        if scale_index is not None:
            del dks[scale_index]
        grads = [blas.ddot(weights, dk) for dk in dks]
        grads.append(noise_grad)
        if beta:
            mean_grads = (basis_grads @ beta @ alpha).tolist()
            grads.extend(-g / (scale * unit) for g, unit in zip(mean_grads, self._layout.units))
        return value, np.array(grads)

    def _require_labels(self, x_new, labels):
        x_new = np.asarray(x_new, dtype=float)
        if self.labels is not None:
            if labels is None:
                raise ConfigError("model was trained on labeled inputs; pass labels")
            labels = np.asarray(labels, dtype=int)
            if labels.shape != x_new.shape:
                raise ConfigError("labels must match prediction inputs in length")
        elif labels is not None:
            raise ConfigError("model was trained without labels")
        return x_new, labels

    def posterior(self, x_new, labels=None) -> Posterior:
        """Posterior mean and variance at new inputs.

        Time grows linearly in ``len(x_new)``, and memory is O(len(x_new))
        for the outputs plus O(POSTERIOR_BLOCK n) scratch: the inputs are
        conditioned a block at a time, and the prior variances come from the
        kernel diagonal, never from the N x N prior gram over the new inputs.
        """
        return self._condition(*self._require_labels(x_new, labels))

    def decompose_posterior(self, x_new, labels=None) -> Posterior:
        """Posterior split into one component per additive kernel term.

        The observation noise appears as a final implicit component: test
        points carry fresh noise draws, so its mean is zero and its
        variance is the noise variance everywhere.  Component means plus
        the prior mean reproduce the total posterior mean exactly.  Memory
        is bounded as for :meth:`posterior`, with one mean and one variance
        per component.
        """
        if isinstance(self.kernel, Product):
            raise ContractError(
                "cannot decompose a product kernel into additive components"
            )
        x_new, labels = self._require_labels(x_new, labels)
        terms = sum_terms(self.kernel)
        names = numbered_tokens(term._token() for term in terms)
        return self._condition(x_new, labels, dict(zip(names, terms)))

    def _condition(self, x_new, labels, terms: dict[str, Kernel] | None = None) -> Posterior:
        """The posterior at new inputs, with a component per named additive
        term in ``terms`` when given.

        Only the length-N outputs outlive a block of POSTERIOR_BLOCK inputs.
        Each term's block cross-covariance k* is solved once: its mean offset
        is k* alpha, and v = L^-1 k*^T is linear in k*, so the whole kernel's
        offset is the sum of the terms' and its variance is its prior variance
        less |sum of the terms' v|^2.  Variances are checked against the
        largest prior variance on all the inputs, whatever the block.
        """
        chol, _, _, alpha = self._factorization
        kernels = [self.kernel] if terms is None else list(terms.values())
        # a last slot for the whole kernel's variance, unless it is the one term
        whole = [self.kernel] if len(kernels) > 1 else []
        priors = [k._diag(x_new, labels) for k in kernels + whole]
        offsets = [np.empty(len(x_new)) for _ in kernels]
        variances = [np.empty(len(x_new)) for _ in priors]
        for start in range(0, len(x_new), POSTERIOR_BLOCK):
            block = slice(start, start + POSTERIOR_BLOCK)
            block_labels = None if labels is None else labels[block]
            v_sum = None
            for kernel, offset, prior, var in zip(kernels, offsets, priors, variances):
                ks = kernel._gram(x_new[block], block_labels, self.x, self.labels)
                offset[block] = ks @ alpha
                v = solve_triangular(chol, ks.T, lower=True, check_finite=False)
                var[block] = prior[block] - np.sum(v * v, axis=0)
                v_sum = v if v_sum is None else np.add(v_sum, v, out=v_sum)
            if whole:
                variances[-1][block] = priors[-1][block] - np.sum(v_sum * v_sum, axis=0)
        variances = [_checked_variance(v, p.max(initial=1.0)) for v, p in zip(variances, priors)]
        components = None
        if terms is not None:
            noise = np.full(len(x_new), self.noise_variance)
            components = (
                *map(PosteriorComponent, terms, offsets, variances),
                PosteriorComponent("noise", np.zeros(len(x_new)), noise),
            )
        return Posterior(
            x=x_new,
            labels=labels,
            mean=self.mean(x_new) + (offsets[0] if terms is None else sum(offsets)),
            variance_latent=variances[-1],
            variance_noisy=variances[-1] + self.noise_variance,
            components=components,
        )
