"""Exact Gaussian process regression with an explicit prior mean.

The observation model is

    y_i = m(x_i) + f(x_i) + eps_i,   f ~ GP(0, k),   eps ~ N(0, sigma^2)

All inference reuses a single Cholesky factorization of K + sigma^2 I:
the marginal likelihood, its gradients, posterior conditioning and additive
decomposition.  Posterior variances take the prior variance k(x*, x*) from
the kernel diagonal (Rasmussen & Williams 2006, eq. 2.26), so prediction
memory is linear in the number of test inputs.  Models are immutable;
training evaluates candidate parameter vectors against one model and builds
the trained instance once via ``with_opt_vector``.

Per model, the first evaluation keeps what theta does not change: the
distinct pair keys of the inputs, each pair's index into them, an n x n
gram buffer and the positions of the log parameters.  A training step
computes the rest: exp of those parameters, the mean, the kernel and its
gradients on the keys, the gathered gram, LAPACK's dpotrf, dpotrs and
dpotri, and W = K^-1 - alpha alpha^T summed by key.
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
    key_blocks,
    natural_values,
    sum_terms,
    unique_pair_keys,
)
from .meanfn import MeanFunction, Zero

LOG_NOISE_VARIANCE = "log_noise_variance"

_LOG2PI = math.log(2.0 * math.pi)


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
    it back and is what the default credible bounds use.
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

    def bounds(self, n_sigma: float = 2.0, include_noise: bool = True):
        """(lower, upper) credible curves at mean +/- n_sigma standard deviations."""
        sd = self.sigma_noisy if include_noise else self.sigma_latent
        return self.mean - n_sigma * sd, self.mean + n_sigma * sd


def _nlml(chol: np.ndarray, resid: np.ndarray, alpha: np.ndarray) -> float:
    """Negative log marginal likelihood from the Cholesky factor and alpha = K^-1 resid."""
    half_log_det = np.log(chol.diagonal()).sum()
    return float(0.5 * resid @ alpha + half_log_det + 0.5 * len(resid) * _LOG2PI)


def _checked_variance(var: np.ndarray, scale: float) -> np.ndarray:
    """Clamp tiny negative variances from rounding; fail loudly otherwise."""
    floor = -1e-10 * max(1.0, scale)
    if np.any(var < floor):
        raise NumericalError(
            f"posterior variance {var.min():.3e} below tolerance {floor:.3e}"
        )
    return np.clip(var, 0.0, None)


def _latent_variance(kernel, v: np.ndarray, x_new, labels) -> np.ndarray:
    """``kernel``'s prior variance at new inputs less the column sums of v^2."""
    prior = kernel._diag(x_new, labels)
    return _checked_variance(prior - np.sum(v * v, axis=0), prior.max(initial=1.0))


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
        """Kernel parameters, then log noise variance, then mean parameters."""
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
        """The same model at an optimization-space vector.

        The inputs, labels and parameter kinds do not change, so the new
        model takes over whichever of the pair keys and the layout this one
        has computed; the n x n buffer in the keys is only scratch inside
        ``_factor``, so the two models can share it.
        """
        raw = iter(self._natural(values))
        kernel = self.kernel._with_raw(raw)
        noise_variance = next(raw)
        model = GpModel(
            kernel,
            self.x,
            self.y,
            mean=self.mean._with_raw(raw),
            noise_variance=noise_variance,
            labels=self.labels,
        )
        model.__dict__.update({k: v for k, v in vars(self).items() if k in ("_keys", "_layout")})
        return model

    @cached_property
    def _layout(self) -> tuple[np.ndarray, int, int]:
        """The positions of the log entries in optimization vectors, the
        noise entry's index and the vectors' length."""
        kinds = self.param_kinds()
        return np.flatnonzero([is_log_kind(k) for k in kinds]), self.kernel.n_params(), len(kinds)

    @cached_property
    def _keys(self) -> tuple[list[tuple[slice, PairKeys]], np.ndarray, np.ndarray]:
        """The distinct pair keys of the training inputs in blocks of at most
        KEY_BLOCK keys, each pair's index into them (n x n), and an n x n
        buffer that every training step gathers its gram into."""
        keys, inverse = unique_pair_keys(self.x, self.labels)
        return key_blocks(keys), inverse, np.empty(inverse.shape)

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
        """The factorization at the model's own parameters, computed on first use."""
        kraw = self.kernel._raw_values()
        ks = [self.kernel._evaluate(keys, iter(kraw), False)[0] for _, keys in self._keys[0]]
        return self._factor(ks, self.noise_variance, self.mean(self.x))

    def _factor(self, ks, noise, mean):
        """(Cholesky factor, jitter, residual, alpha), with the gram gathered
        from the kernel's values ``ks`` on each block of distinct keys."""
        _, inverse, a = self._keys
        # the inverse comes from np.unique, so mode="clip" only skips its range check
        np.take(ks[0] if len(ks) == 1 else np.concatenate(ks), inverse, out=a, mode="clip")
        a.ravel()[:: len(a) + 1] += noise
        # the gram is symmetric, so its transpose is the same matrix in the
        # Fortran order that LAPACK takes without a transposing copy
        chol, jitter = jittered_cholesky(a.T)
        resid = self.y - mean
        alpha, _ = lapack.dpotrs(chol, resid, lower=1)
        return chol, jitter, resid, alpha

    def nlml(self) -> float:
        """Negative log marginal likelihood of the training data."""
        chol, _, resid, alpha = self._factorization
        return _nlml(chol, resid, alpha)

    def nlml_value_and_gradients(self, theta=None) -> tuple[float, np.ndarray]:
        """NLML and its gradient in optimization space (kernel, noise, mean).

        Evaluated at the optimization-space vector ``theta`` when given,
        else at the model's own parameters, without building a new model:
        the pair keys and the parameter layout are computed on first use and
        kept.  The gradient is eq. 5.9 of Rasmussen & Williams (2006),
        1/2 tr((K^-1 - alpha alpha^T) dK).

        The kernel is evaluated on the model's distinct pair keys, block by
        block, and its gradients are contracted with W summed by key.  W needs
        the factorized gram, so every block but the last is evaluated twice,
        for the gram and then for its gradients; the last block's gradients
        are kept across the factorization.  Whole-cycle inputs have a single
        block, so their kernel is evaluated once per step.
        """
        if theta is None:
            raw = [*self.kernel._raw_values(), self.noise_variance, *self.mean._raw_values()]
        else:
            raw = self._natural(theta)
        nk = self._layout[1]
        kraw, noise = raw[:nk], raw[nk]
        mean, mean_grads = self.mean._evaluate(self.x, raw[nk + 1 :])
        blocks, inverse, _ = self._keys
        ks = [self.kernel._evaluate(keys, iter(kraw), False)[0] for _, keys in blocks[:-1]]
        k_last, dks_last = self.kernel._evaluate(blocks[-1][1], iter(kraw), True)
        chol, _, resid, alpha = self._factor(ks + [k_last], noise, mean)
        del ks, k_last
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
        del chol, z, w
        grads = np.zeros(nk)
        for block, keys in blocks[:-1]:  # one block's gradients at a time
            grads += [blas.ddot(weights[block], dk) for dk in self.kernel._evaluate(keys, iter(kraw), True)[1]]
        grads += [blas.ddot(weights[blocks[-1][0]], dk) for dk in dks_last]
        return value, np.concatenate([grads, [noise_grad], -(mean_grads.T @ alpha)])

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

        Time and memory grow linearly in ``len(x_new)``: the prior
        variances come from the kernel diagonal, never from the N x N prior
        gram over the new inputs.
        """
        x_new, labels = self._require_labels(x_new, labels)
        return self._posterior(x_new, labels, *self._solve(self.kernel, x_new, labels))

    def _solve(self, kernel, x_new, labels):
        """``kernel``'s share of the posterior mean at new inputs (prior mean
        excluded), and v = L^-1 k*, both from one len(x_new) x n
        cross-covariance k*."""
        chol, _, _, alpha = self._factorization
        ks = kernel._gram(x_new, labels, self.x, self.labels)
        return ks @ alpha, solve_triangular(chol, ks.T, lower=True, check_finite=False)

    def _posterior(self, x_new, labels, offset, v, components=None) -> Posterior:
        var = _latent_variance(self.kernel, v, x_new, labels)
        return Posterior(
            x=x_new,
            labels=labels,
            mean=self.mean(x_new) + offset,
            variance_latent=var,
            variance_noisy=var + self.noise_variance,
            components=components,
        )

    def decompose_posterior(self, x_new, labels=None) -> Posterior:
        """Posterior split into one component per additive kernel term.

        The observation noise appears as a final implicit component: test
        points carry fresh noise draws, so its mean is zero and its
        variance is the noise variance everywhere.  Component means plus
        the prior mean reproduce the total posterior mean exactly.

        Each term's cross-covariance is solved once: v = L^-1 k* is linear in
        k*, so the whole kernel's mean offset is the sum of the terms' and its
        variance is its prior variance less |sum of the terms' v|^2.
        """
        if isinstance(self.kernel, Product):
            raise ContractError(
                "cannot decompose a product kernel into additive components"
            )
        x_new, labels = self._require_labels(x_new, labels)
        terms = sum_terms(self.kernel)
        names = []
        seen: dict[str, int] = {}
        for term in terms:
            token = term._token()
            seen[token] = seen.get(token, 0) + 1
            names.append(token if seen[token] == 1 else f"{token}_{seen[token]}")
        components, offset, v_sum = [], 0.0, None
        for name, term in zip(names, terms):
            term_offset, v = self._solve(term, x_new, labels)
            variance = _latent_variance(term, v, x_new, labels)
            components.append(PosteriorComponent(name, term_offset, variance))
            offset = offset + term_offset
            v_sum = v if v_sum is None else np.add(v_sum, v, out=v_sum)
        noise = np.full(len(x_new), self.noise_variance)
        components.append(PosteriorComponent("noise", np.zeros(len(x_new)), noise))
        return self._posterior(x_new, labels, offset, v_sum, tuple(components))
