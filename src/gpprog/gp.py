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

Per model, the first evaluation keeps what theta does not change: the
distinct pair keys of the inputs, each pair's index into them, an n x n
gram buffer and the positions of the log parameters.  A training step
computes the rest: exp of those parameters, the mean's offset and basis,
one evaluation of the kernel and its gradients on all the keys, the
gathered gram, LAPACK's dpotrf, one dpotrs on [y - offset | basis], the
mean's linear coefficients by generalised least squares (a q x q solve,
Rasmussen & Williams 2006, §2.7; q = 2 for EXPDEG, 0 otherwise), dpotri, and
W = K^-1 - alpha alpha^T summed by key.  The coefficients minimise the NLML,
so its gradient in them is zero and the step's gradient holds for the
profiled NLML too; the trained model carries them in its mean.
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

import numpy as np
import scipy
from scipy.linalg import blas, lapack, solve_triangular

from .errors import ConfigError, ContractError, NumericalError
from .kernels import (
    Hyperparameters,
    Kernel,
    PairKeys,
    Product,
    is_log_kind,
    natural_values,
    sum_terms,
    unique_pair_keys,
    with_label_pairs,
)
from .meanfn import MeanFunction, Zero

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


def _nlml(chol: np.ndarray, resid: np.ndarray, alpha: np.ndarray) -> float:
    """Negative log marginal likelihood from the Cholesky factor and alpha = K^-1 resid."""
    half_log_det = np.log(chol.diagonal()).sum()
    return float(0.5 * resid @ alpha + half_log_det + 0.5 * len(resid) * _LOG2PI)


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
        parameters; its linear coefficients are solved, so they are not here."""
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
        return self.hyperparameters().values.copy()

    def param_kinds(self) -> tuple[str, ...]:
        return self.hyperparameters().kinds

    def with_opt_vector(self, values) -> "GpModel":
        """The same model at an optimization-space vector, its mean's linear
        coefficients solved there.

        The new model keeps the solve's Cholesky factor for its posteriors,
        with alpha solved from its own mean, so that it conditions exactly as
        a model built from scratch.  It also takes over the pair keys and the
        layout, which the vector does not change; the n x n buffer in the
        keys is only scratch inside ``_factor``, so the two models share it.
        """
        raw = self._natural(values)
        nk = self._layout[1]
        kernel = self.kernel._with_raw(iter(raw[:nk]))
        mean = self.mean._with_raw(iter(raw[nk + 1 :]))
        k = kernel._evaluate(self._keys[0], iter(raw[:nk]), False)[0]
        columns, _ = mean._evaluate(self.x, raw[nk + 1 :])
        chol, jitter, _, _, beta = self._factor(k, raw[nk], columns)
        model = GpModel(
            kernel,
            self.x,
            self.y,
            mean=mean._with_coefficients(beta),
            noise_variance=raw[nk],
            labels=self.labels,
        )
        resid = model.y - model.mean(model.x)
        alpha, _ = lapack.dpotrs(chol, resid, lower=1)
        model.__dict__.update(
            _keys=self._keys, _layout=self._layout, _factorization=(chol, jitter, resid, alpha)
        )
        return model

    @cached_property
    def _layout(self) -> tuple[np.ndarray, int, int]:
        """The positions of the log entries in optimization vectors, the
        noise entry's index and the vectors' length."""
        kinds = self.param_kinds()
        return np.flatnonzero([is_log_kind(k) for k in kinds]), self.kernel.n_params(), len(kinds)

    @cached_property
    def _keys(self) -> tuple[PairKeys, np.ndarray, np.ndarray]:
        """The distinct pair keys of the training inputs, with their label
        pairs indexed for the kernel, each pair's index into them (n x n),
        and an n x n buffer that every training step gathers its gram into."""
        keys, inverse = unique_pair_keys(self.x, self.labels)
        return with_label_pairs(self.kernel, keys), inverse, np.empty(inverse.shape)

    def _natural(self, values) -> list[float]:
        """An optimization-space vector in natural space, range-checked."""
        log_positions, nk, dim = self._layout
        values = np.asarray(values, dtype=float)
        if len(values) != dim:
            raise ConfigError(f"expected {dim} parameter values, got {len(values)}")
        if values[nk] > 700.0:
            raise NumericalError(f"log noise variance {values[nk]} leaves the float range")
        return natural_values(values, log_positions)

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
        solved, _ = lapack.dpotrs(chol, columns, lower=1)
        normal = columns[:, 1:].T @ solved  # [H^T K^-1 r | H^T K^-1 H]
        beta = _gls_coefficients(normal[:, 1:], normal[:, 0])
        # with an empty basis, both are the first column times exactly 1
        weights = np.array([1.0] + [-v for v in beta])
        return chol, jitter, columns @ weights, solved @ weights, beta

    def nlml(self) -> float:
        """Negative log marginal likelihood of the training data."""
        chol, _, resid, alpha = self._factorization
        return _nlml(chol, resid, alpha)

    def nlml_value_and_gradients(self, theta) -> tuple[float, np.ndarray]:
        """NLML and its gradient in optimization space (kernel, noise, mean),
        with the mean's linear coefficients solved at ``theta``.

        Evaluated at the optimization-space vector ``theta`` (the model's own
        is ``opt_vector()``) without building a new model: the pair keys and
        the parameter layout are computed on first use and kept.  The
        gradient is eq. 5.9 of Rasmussen & Williams (2006),
        1/2 tr((K^-1 - alpha alpha^T) dK).

        The kernel and its gradients are evaluated once, on all the model's
        distinct pair keys; the values are gathered into the gram and each
        gradient is contracted with W summed by key, one dot product each.
        A mean parameter's entry is -(dH/dp beta)^T alpha: the NLML's gradient
        in the solved coefficients beta is zero.
        """
        raw = self._natural(theta)
        nk = self._layout[1]
        kraw, noise = raw[:nk], raw[nk]
        columns, basis_grads = self.mean._evaluate(self.x, raw[nk + 1 :])
        keys, inverse, _ = self._keys
        k, dks = self.kernel._evaluate(keys, iter(kraw), True)
        chol, _, resid, alpha, beta = self._factor(k, noise, columns)
        del k
        value = _nlml(chol, resid, alpha)
        # dpotri leaves the lower triangle Z of K^-1 (the upper stays zero) and
        # dsyr takes alpha alpha^T off that triangle in place.  Every dK is
        # symmetric, so 1/2 tr((K^-1 - alpha alpha^T) dK) = <W, dK> with W the
        # triangle, its diagonal halved.  The products go through scipy's BLAS,
        # the library that factorized K: numpy links its own OpenBLAS, and with
        # threads unpinned the two libraries' thread pools stall each other
        # once n^2 passes 10^4 (100x slower per evaluation).
        z, info = lapack.dpotri(chol, lower=1, overwrite_c=1)
        if info:
            raise NumericalError(f"dpotri failed with info {info}")
        z = blas.dsyr(-1.0, alpha, lower=1, a=z, overwrite_a=1)
        w = z.T.ravel()  # W row by row (z.T is C-ordered, so this is a view)
        w[:: len(z) + 1] *= 0.5
        noise_grad = noise * float(w[:: len(z) + 1].sum())
        weights = np.bincount(inverse.ravel(), weights=w)
        grads = [blas.ddot(weights, dk) for dk in dks]
        return value, np.concatenate([grads, [noise_grad], -(basis_grads @ beta @ alpha)])

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
        terms = {}
        seen: dict[str, int] = {}
        for term in sum_terms(self.kernel):
            token = term._token()
            seen[token] = seen.get(token, 0) + 1
            terms[token if seen[token] == 1 else f"{token}_{seen[token]}"] = term
        return self._condition(x_new, labels, terms)

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
