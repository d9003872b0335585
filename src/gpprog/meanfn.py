"""Explicit prior mean functions for the regression model.

The observation model is y = m(x) + f(x) + noise, where f is the
zero-mean process and m is one of the functions here.  A mean function is
m(x) = offset(x) + H(x) beta: a fixed offset plus a basis H whose linear
coefficients beta are the fields named in ``_coefficients``.  Training
searches only the parameters the basis depends on (``_params``, declared
through the kernel leaves' base :class:`~gpprog.kernels.Parametrized`);
for each of them the coefficients that minimise the NLML are the
generalised least-squares solution (Rasmussen & Williams 2006, §2.7), which
:class:`~gpprog.gp.GpModel` solves on its Cholesky factor.  The zero and
constant means have an empty basis and nothing to train; the exponential
degradation mean's a1 and a2 are solved, and only its rate a3 is searched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import ConfigError, NumericalError
from .kernels import Parametrized

# parameter kind for data-driven search bounds
MEAN_RATE = "mean_rate"

_EXP_LIMIT = 700.0  # exp() overflows past this
# below this |a3 x|, expm1(z)/z and its derivative come from their Taylor series:
# the direct derivative (exp(z) - expm1(z)/z)/z loses about 2 eps/|z| to cancellation
_SERIES_LIMIT = 1e-3


class MeanFunction(Parametrized, ABC):
    """Base class; subclasses are immutable value objects with at most two
    linear coefficients, the most the GLS solve handles."""

    _coefficients: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self):
        super().__post_init__()
        for name in self._coefficients:
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")

    def __call__(self, x) -> np.ndarray:
        columns, _ = self._evaluate(np.asarray(x, dtype=float), self._raw_values())
        beta = [getattr(self, name) for name in self._coefficients]
        return columns[:, 0] + columns[:, 1:] @ beta

    def _with_coefficients(self, beta) -> "MeanFunction":
        """A copy with the linear coefficients set to ``beta``."""
        return replace(self, **{name: float(b) for name, b in zip(self._coefficients, beta)})

    @abstractmethod
    def _evaluate(self, x: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
        """With the trainable parameters set to ``values``: a new (n, 1 + q)
        array of the offset and then the basis, one column per coefficient,
        and the basis's gradient (p, n, q)."""


@dataclass(frozen=True)
class Zero(MeanFunction):
    """m(x) = 0."""

    def _evaluate(self, x, values):
        return np.zeros((len(x), 1)), np.empty((0, len(x), 0))


@dataclass(frozen=True)
class Constant(MeanFunction):
    """m(x) = value, fixed (not trained)."""

    value: float = 0.0

    def _evaluate(self, x, values):
        return np.full((len(x), 1), self.value), np.empty((0, len(x), 0))


@dataclass(frozen=True)
class ExpDegradation(MeanFunction):
    """m(x) = a1 + a2 * g(x) with g(x) = expm1(a3 * x) / a3, the empirical
    capacity-fade shape a + b * exp(a3 * x) on the basis [1, g].

    g tends to x as a3 -> 0, so a1 = m(0) and a2 = m'(0) at any rate.  a1
    and a2 are solved for each a3, not searched; only a3 is trainable.
    Typical fits have a2 < 0 with either a3 > 0 (accelerating loss) or
    a3 < 0 (decelerating loss approaching the asymptote a1 - a2 / a3).
    """

    a1: float = 0.0
    a2: float = 0.0
    a3: float = -1.0
    _params = (("a3", MEAN_RATE),)
    _coefficients = ("a1", "a2")

    def _evaluate(self, x, values):
        (a3,) = (float(v) for v in values)
        z = a3 * x
        # fmax skips NaN, as the elementwise comparison does
        if np.fmax.reduce(z, initial=-np.inf) > _EXP_LIMIT:
            bad = x[z > _EXP_LIMIT][0]
            raise NumericalError(f"exp overflow in degradation mean at x={bad} with a3={a3}")
        # g = x phi(z) and dg/da3 = x^2 phi'(z), with phi(z) = expm1(z) / z and
        # phi'(z) = (exp(z) - phi(z)) / z, written in place into their columns
        columns = np.ones((len(x), 3))
        columns[:, 0] = 0.0
        grads = np.zeros((1, len(x), 2))
        phi, dphi = columns[:, 2], grads[0, :, 1]
        small = np.abs(z) < _SERIES_LIMIT
        any_small = small.any()
        zs = np.where(small, 1.0, z) if any_small else z
        np.expm1(zs, out=dphi)
        np.divide(dphi, zs, out=phi)
        dphi += 1.0
        dphi -= phi
        dphi /= zs
        if any_small:
            t = z[small]
            phi[small] = 1.0 + t * (1 / 2 + t * (1 / 6 + t * (1 / 24 + t / 120)))
            dphi[small] = 1 / 2 + t * (1 / 3 + t * (1 / 8 + t * (1 / 30 + t / 144)))
        phi *= x
        dphi *= x
        dphi *= x
        return columns, grads

    @classmethod
    def initial_guess(cls, x) -> "ExpDegradation":
        """Crude decay-shaped start: the rate set by the input range."""
        x = np.asarray(x, dtype=float)
        x_range = float(x[-1] - x[0]) if len(x) > 1 else 1.0
        if x_range <= 0:
            x_range = 1.0
        return cls(a3=-1.0 / x_range)


MEAN_TOKENS = ("ZERO", "CONST", "EXPDEG")


def mean_from_token(token: str, x, y) -> MeanFunction:
    """Build a mean function for training data from a grammar token.

    CONST is pinned to the mean of the observed targets and left fixed;
    EXPDEG starts from the heuristic initial rate.
    """
    token = token.strip().upper()
    if token == "ZERO":
        return Zero()
    if token == "CONST":
        return Constant(value=float(np.mean(np.asarray(y, dtype=float))))
    if token == "EXPDEG":
        return ExpDegradation.initial_guess(x)
    raise ConfigError(f"unknown mean token {token!r}; expected one of {MEAN_TOKENS}")


def mean_params(mean: MeanFunction) -> dict[str, float]:
    """All defining parameters (trained, solved or fixed), for serialization."""
    return asdict(mean)
