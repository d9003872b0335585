"""Explicit prior mean functions for the regression model.

The observation model is y = m(x) + f(x) + noise, where f is the
zero-mean process and m is one of the functions here.  The exponential
degradation mean's coefficients are optimized jointly with the kernel
hyperparameters; the zero and constant means have nothing to train.  Mean
functions declare their parameters through the kernel leaves' base,
:class:`~gpprog.kernels.Parametrized`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .kernels import Parametrized

# parameter kinds for data-driven search bounds
MEAN_OFFSET = "mean_offset"
MEAN_AMPLITUDE = "mean_amplitude"
MEAN_RATE = "mean_rate"

_EXP_LIMIT = 700.0  # exp() overflows past this


class MeanFunction(Parametrized, ABC):
    """Base class; subclasses are immutable value objects."""

    def __call__(self, x) -> np.ndarray:
        return self._evaluate(np.asarray(x, dtype=float), self._raw_values())[0]

    def gradients(self, x) -> np.ndarray:
        """Partial derivatives w.r.t. trainable parameters, shape (n, p)."""
        return self._evaluate(np.asarray(x, dtype=float), self._raw_values())[1]

    @abstractmethod
    def _evaluate(self, x: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
        """m(x) and its (n, p) gradient with the trainable parameters set to ``values``."""


@dataclass(frozen=True)
class Zero(MeanFunction):
    """m(x) = 0."""

    def _evaluate(self, x, values):
        return np.zeros(len(x)), np.zeros((len(x), 0))


@dataclass(frozen=True)
class Constant(MeanFunction):
    """m(x) = value, fixed (not trained)."""

    value: float = 0.0

    def _evaluate(self, x, values):
        return np.full(len(x), self.value), np.zeros((len(x), 0))


@dataclass(frozen=True)
class ExpDegradation(MeanFunction):
    """m(x) = a1 + a2 * exp(a3 * x), the empirical capacity-fade shape.

    All three coefficients are trainable.  Typical fits have either a2 < 0
    with a3 > 0 (accelerating loss) or a2 > 0 with a3 < 0 (decelerating
    loss approaching the asymptote a1).
    """

    a1: float = 0.0
    a2: float = 1.0
    a3: float = -1.0
    _params = (("a1", MEAN_OFFSET), ("a2", MEAN_AMPLITUDE), ("a3", MEAN_RATE))

    def _evaluate(self, x, values):
        a1, a2, a3 = (float(v) for v in values)
        e = a3 * x
        # fmax skips NaN, as the elementwise comparison does
        if np.fmax.reduce(e, initial=-np.inf) > _EXP_LIMIT:
            bad = x[e > _EXP_LIMIT][0]
            raise NumericalError(f"exp overflow in degradation mean at x={bad} with a3={a3}")
        e = np.exp(e)
        grads = np.empty((len(x), 3))
        grads[:, 0] = 1.0
        grads[:, 1] = e
        np.multiply(a2 * x, e, out=grads[:, 2])
        return a1 + a2 * e, grads

    @classmethod
    def initial_guess(cls, x, y) -> "ExpDegradation":
        """Crude decay-shaped start: asymptote at the last observation,
        amplitude spanning the observed drop, rate set by the input range."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x_range = float(x[-1] - x[0]) if len(x) > 1 else 1.0
        if x_range <= 0:
            x_range = 1.0
        return cls(a1=float(y[-1]), a2=float(y[0] - y[-1]), a3=-1.0 / x_range)


MEAN_TOKENS = ("ZERO", "CONST", "EXPDEG")


def mean_from_token(token: str, x, y) -> MeanFunction:
    """Build a mean function for training data from a grammar token.

    CONST is pinned to the mean of the observed targets and left fixed;
    EXPDEG starts from the heuristic initial guess.
    """
    token = token.strip().upper()
    if token == "ZERO":
        return Zero()
    if token == "CONST":
        return Constant(value=float(np.mean(np.asarray(y, dtype=float))))
    if token == "EXPDEG":
        return ExpDegradation.initial_guess(x, y)
    raise ConfigError(f"unknown mean token {token!r}; expected one of {MEAN_TOKENS}")


def mean_params(mean: MeanFunction) -> dict[str, float]:
    """All defining parameters (trained or not), for serialization."""
    return asdict(mean)
