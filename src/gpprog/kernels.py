"""Covariance functions over a scalar input axis, with analytic gradients.

The kernel algebra is a small immutable expression tree: four stationary
bases (squared exponential, Matern 3/2 and 5/2, periodic), a white-noise
leaf, Sum and Product nodes, and a label correlation that turns any input
kernel into a multi-output one via

    k((x, l), (x', l')) = K_label[l, l'] * k_input(x, x').

Every node depends on a pair of inputs only through its key: the distance
|x - x'| and, for labeled inputs, the two labels.  Each node has one
evaluation, ``_evaluate``, from an array of keys to its values and, when
asked, its gradients.  Cross-covariances and prior variances evaluate it on
every pair's key; a square gram evaluates it once per distinct key and
gathers.  Battery cycles are integers, so the n^2 pairs of a capacity history
share about n distinct distances (124 keys for the 15,376 pairs of cell A1).
A model's training step evaluates the kernel and its gradients once on all
of its :class:`PairKeys`; fractional inputs make nearly every pair distinct,
about n^2/2 keys, and every array of that evaluation then has that length.

Each leaf, and each mean function in :mod:`gpprog.meanfn`, declares its
parameters once, as a ``_params`` tuple of (field, kind) pairs in
optimization order; their :class:`Parametrized` base reads them out and
rebuilds the object from new values.  Only the label covariance (its angles
are one tuple field) and the Sum and Product nodes override that.

Positive hyperparameters are optimized in log space; the gradients returned by
``_evaluate`` are taken with respect to that parametrization.  The label
correlation is built from hypersphere angles, which keeps it positive
semi-definite with unit diagonal for any angle values, so the input kernel's
output scales carry all of the variance.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import ClassVar, Iterator, NamedTuple

import numpy as np

from .errors import BoundsError, ConfigError, NumericalError

# parameter kinds, which set data-driven starts and search bounds (gp.starts_and_bounds)
LOG_OUTPUT_SCALE = "log_output_scale"
LOG_LENGTH_SCALE = "log_length_scale"
# the periodic kernel's wiggliness divides sin^2, so it carries no input units
LOG_WIGGLE = "log_wiggle"
LOG_PERIOD = "log_period"
LOG_NOISE_SCALE = "log_noise_scale"
ANGLE = "angle"

def is_log_kind(kind: str) -> bool:
    """Kinds named log_* live in log space in optimization vectors."""
    return kind.startswith("log_")


class LabeledInput(NamedTuple):
    """An input location paired with its integer output label (1-based)."""

    x: float
    label: int


def coerce_inputs(xs) -> tuple[np.ndarray, np.ndarray | None]:
    """Turn a sequence of floats or LabeledInput into (x, labels) arrays."""
    if isinstance(xs, np.ndarray) and xs.ndim == 1:
        return xs.astype(float, copy=False), None
    xs = list(xs)
    if xs and isinstance(xs[0], LabeledInput):
        x = np.array([p.x for p in xs], dtype=float)
        labels = np.array([p.label for p in xs], dtype=int)
        return x, labels
    return np.asarray(xs, dtype=float), None


@dataclass(frozen=True)
class Hyperparameters:
    """Named view of a parameter vector.

    Positive-constrained entries hold log values; angles are raw radians.
    A kernel's are the coordinates its gradients are taken in; a model's
    map to the ones training searches through ``GpModel.opt_map``.
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not (len(self.names) == len(self.kinds) == len(values)):
            raise ConfigError("hyperparameter names/kinds/values length mismatch")
        if not np.all(np.isfinite(values)):
            raise ConfigError("non-finite hyperparameter values")

    def raw(self) -> dict[str, float]:
        """Parameters in their natural (non-log) space, keyed by name."""
        out = {}
        for name, kind, value in zip(self.names, self.kinds, self.values):
            out[name] = float(np.exp(value)) if is_log_kind(kind) else float(value)
        return out


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


class PairKeys(NamedTuple):
    """All a kernel here reads of a pair of inputs: the distance |x - x'| and,
    for labeled inputs, the two labels.  The arrays broadcast against each
    other; the kernel's values come out in their common shape.

    ``pairs``, when set, is :func:`label_pairs` of the keys for the kernel's
    label covariance; see :func:`with_label_pairs`.
    """

    d: np.ndarray
    l1: np.ndarray | None = None
    l2: np.ndarray | None = None
    pairs: np.ndarray | None = None


def unique_pair_keys(x, labels) -> tuple[PairKeys, np.ndarray]:
    """The distinct keys among the n^2 pairs of ``x``, and an n x n array with
    each pair's index into them.

    Every kernel here is symmetric in its two labels, so a key holds the
    smaller label first, and pairs (i, j) and (j, i) share one key.
    Integer inputs such as battery cycles give about n distinct distances.
    """
    n = len(x)
    d, inverse = np.unique(np.abs(x[:, None] - x[None, :]), return_inverse=True)
    if labels is None:
        return PairKeys(d), inverse.reshape(n, n)
    base = labels.min()
    span = int(labels.max() - base) + 1
    lo = np.minimum(labels[:, None], labels[None, :]) - base
    hi = np.maximum(labels[:, None], labels[None, :]) - base
    codes, inverse = np.unique((inverse.reshape(n, n) * span + lo) * span + hi, return_inverse=True)
    keys = PairKeys(d[codes // span**2], codes // span % span + base, codes % span + base)
    return keys, inverse.reshape(n, n)


def label_pairs(keys: PairKeys, m: int) -> np.ndarray:
    """Each key's label pair as a flat index (l1 - 1) m + (l2 - 1) into an
    m x m matrix; a label outside 1..m raises BoundsError."""
    if keys.l1 is None:
        raise ConfigError("label covariance requires labeled inputs")
    for labels in (keys.l1, keys.l2):
        if labels.min(initial=1) < 1 or labels.max(initial=m) > m:
            bad = labels[(labels < 1) | (labels > m)]
            raise BoundsError(f"labels {sorted(set(bad.tolist()))} outside 1..{m}")
    return (keys.l1 - 1) * m + (keys.l2 - 1)


def with_label_pairs(kernel: "Kernel", keys: PairKeys) -> PairKeys:
    """``keys`` with their label pairs checked and indexed once for the
    kernel's label covariance, so that evaluations on them skip both;
    unchanged for a kernel with none, or with ones of different sizes."""
    sizes = {leaf.m for leaf in kernel._walk() if isinstance(leaf, LabelCovariance)}
    if len(sizes) != 1:
        return keys
    return keys._replace(pairs=label_pairs(keys, *sizes))


def natural_values(values: np.ndarray, log_positions: np.ndarray) -> list[float]:
    """Optimization-space values in natural space (exp of the entries at
    ``log_positions``), as a list.

    An extreme optimizer step can push exp out of the float range; that
    raises NumericalError instead of returning inf or zero.
    """
    out = values.tolist()
    logs = values[log_positions]
    with np.errstate(over="ignore", under="ignore"):
        raw = np.exp(logs).tolist()
    if math.inf in raw:
        raise NumericalError(f"log parameter {logs[raw.index(math.inf)]} overflows")
    if 0.0 in raw:
        raise NumericalError(f"log parameter {logs[raw.index(0.0)]} underflows to zero")
    for i, value in zip(log_positions.tolist(), raw):
        out[i] = value
    return out


class Parametrized:
    """Base of the immutable dataclasses whose parameters are the fields
    named in ``_params``, as (field, kind) pairs in optimization order.

    Construction checks that log_* kinds are positive and finite and that
    every other parameter is finite.
    """

    _params: ClassVar[tuple[tuple[str, str], ...]] = ()

    def __post_init__(self):
        for name, kind, value in self._param_specs():
            if is_log_kind(kind):
                _check_positive(name, value)
            elif not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")

    def _walk(self) -> Iterator["Parametrized"]:
        """The leaves, in parameter order; a leaf is its own."""
        yield self

    def _param_specs(self) -> list[tuple[str, str, float]]:
        """(name, kind, natural-space value) of each of this leaf's parameters."""
        return [(name, kind, getattr(self, name)) for name, kind in self._params]

    def _raw_values(self) -> list[float]:
        """Natural-space parameters of every leaf, in leaf order."""
        return [raw for leaf in self._walk() for _, _, raw in leaf._param_specs()]

    def _with_raw(self, values: Iterator[float]):
        """A copy with the parameters drawn from ``values`` in order."""
        return replace(self, **{name: next(values) for name, _ in self._params})

    def n_params(self) -> int:
        return sum(len(leaf._param_specs()) for leaf in self._walk())


class Kernel(Parametrized, ABC):
    """Base class for covariance expression nodes."""

    def gram(self, xs, xs2=None) -> np.ndarray:
        """Covariance matrix between ``xs`` and ``xs2`` (defaults to ``xs``)."""
        x1, l1 = coerce_inputs(xs)
        if xs2 is None:
            x2, l2 = x1, l1
        else:
            x2, l2 = coerce_inputs(xs2)
        return self._gram(x1, l1, x2, l2)

    def gram_with_gradients(self, xs) -> tuple[np.ndarray, list[np.ndarray]]:
        """Square gram and its per-parameter gradients, optimization space."""
        x, labels = coerce_inputs(xs)
        keys, inverse = unique_pair_keys(x, labels)
        k, grads = self._evaluate(keys, iter(self._raw_values()), True)
        return k[inverse], [g[inverse] for g in grads]

    def hyperparameters(self) -> Hyperparameters:
        names, kinds, values = [], [], []
        leaves = list(self._walk())
        for leaf, prefix in zip(leaves, numbered_tokens(leaf._token().lower() for leaf in leaves)):
            for local, kind, raw in leaf._param_specs():
                names.append(f"{prefix}.{local}")
                kinds.append(kind)
                values.append(math.log(raw) if is_log_kind(kind) else raw)
        return Hyperparameters(tuple(names), tuple(kinds), np.array(values))

    def with_hyperparameters(self, values) -> "Kernel":
        """New kernel with parameters replaced (optimization-space vector)."""
        values = np.asarray(values, dtype=float)
        if len(values) != self.n_params():
            raise ConfigError(
                f"expected {self.n_params()} parameter values, got {len(values)}"
            )
        logs = np.flatnonzero([is_log_kind(k) for k in self.hyperparameters().kinds])
        return self._with_raw(iter(natural_values(values, logs)))

    def __add__(self, other: "Kernel") -> "Sum":
        return Sum(self, other)

    def __mul__(self, other: "Kernel") -> "Product":
        return Product(self, other)

    def _gram(self, x1, l1, x2, l2) -> np.ndarray:
        """Covariance between every x1 (labels l1) and every x2 (labels l2),
        from the key of each pair; labels count only when both sides have them."""
        d = np.abs(x1[:, None] - x2[None, :])
        keys = PairKeys(d) if l1 is None or l2 is None else PairKeys(d, l1[:, None], l2[None, :])
        return self._evaluate(keys, iter(self._raw_values()), False)[0]

    def _diag(self, x, labels) -> np.ndarray:
        """The prior variances k(x_i, x_i) in O(len(x)) time and memory.

        Equal to ``np.diag(self._gram(x, labels, x, labels))`` bit for bit:
        both apply the same elementwise formula at distance 0.
        """
        keys = PairKeys(np.zeros(len(x)), labels, labels)
        return self._evaluate(keys, iter(self._raw_values()), False)[0]

    # --- subclass surface -------------------------------------------------

    @abstractmethod
    def _evaluate(
        self, keys: PairKeys, raw: Iterator[float], grads: bool
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """The node's value at every key and, if ``grads``, its gradient with
        respect to each of its optimization-space parameters (else []).

        The node's natural-space parameters are drawn from ``raw`` in leaf
        order.  Every returned array is new and shares no memory with another,
        so callers may update them in place.
        """

    def _token(self) -> str:
        return type(self).__name__


class _Stationary(Kernel):
    """A leaf that depends on the distance alone, output_scale^2 at distance 0.

    Its parameters are output_scale and length_scale unless it says otherwise.
    """

    output_scale: float
    length_scale: float
    _params = (("output_scale", LOG_OUTPUT_SCALE), ("length_scale", LOG_LENGTH_SCALE))


@dataclass(frozen=True)
class SquaredExponential(_Stationary):
    """k(x, x') = output_scale^2 * exp(-(x - x')^2 / length_scale^2)."""

    output_scale: float = 1.0
    length_scale: float = 1.0

    def _evaluate(self, keys, raw, grads):
        sigma2, length = next(raw) ** 2, next(raw)
        r2 = (keys.d / length) ** 2
        k = sigma2 * np.exp(-r2)
        return k, [2.0 * k, 2.0 * r2 * k] if grads else []

    def _token(self):
        return "SE"


@dataclass(frozen=True)
class Matern(_Stationary):
    """Matern covariance with smoothness 3/2 or 5/2.

    nu = 3/2:  sigma^2 (1 + a) exp(-a),            a = sqrt(3) |d| / rho
    nu = 5/2:  sigma^2 (1 + a + a^2/3) exp(-a),    a = sqrt(5) |d| / rho
    """

    nu: float = 2.5
    output_scale: float = 1.0
    length_scale: float = 1.0

    def __post_init__(self):
        if self.nu not in (1.5, 2.5):
            raise ConfigError(f"unsupported Matern smoothness nu={self.nu}")
        super().__post_init__()

    def _evaluate(self, keys, raw, grads):
        sigma2, length = next(raw) ** 2, next(raw)
        a = keys.d * ((math.sqrt(3.0) if self.nu == 1.5 else math.sqrt(5.0)) / length)
        e = sigma2 * np.exp(-a)
        # k = poly e, with poly = 1 + a for nu = 3/2 and 1 + a (1 + a / 3) for nu = 5/2;
        # d k / d log rho = e a^2, times (1 + a) / 3 for nu = 5/2
        if self.nu == 1.5:
            k = (a + 1.0) * e
            return k, [2.0 * k, a * a * e] if grads else []
        k = ((a / 3.0 + 1.0) * a + 1.0) * e
        return k, [2.0 * k, a * a * (a + 1.0) / 3.0 * e] if grads else []

    def _token(self):
        return "MA3" if self.nu == 1.5 else "MA5"


@dataclass(frozen=True)
class Periodic(_Stationary):
    """k = output_scale^2 exp(-(2/length_scale^2) sin^2(pi (x - x') / period))."""

    output_scale: float = 1.0
    length_scale: float = 1.0
    period: float = 1.0
    _params = (("output_scale", LOG_OUTPUT_SCALE), ("length_scale", LOG_WIGGLE),
               ("period", LOG_PERIOD))

    def _evaluate(self, keys, raw, grads):
        sigma2, length, period = next(raw) ** 2, next(raw), next(raw)
        u = np.pi * keys.d / period
        s2 = np.sin(u) ** 2
        k = sigma2 * np.exp(-2.0 * s2 / length**2)
        if not grads:
            return k, []
        # d k / d log length = k 4 sin^2(u) / length^2;
        # d k / d log period = k 2 pi d sin(2u) / (length^2 period)
        return k, [
            2.0 * k,
            4.0 / length**2 * s2 * k,
            2.0 * np.pi / (length**2 * period) * keys.d * np.sin(2.0 * u) * k,
        ]

    def _token(self):
        return "PER"


@dataclass(frozen=True)
class WhiteNoise(Kernel):
    """k = scale^2 when the two inputs coincide exactly, else 0."""

    scale: float = 1.0
    _params = (("scale", LOG_NOISE_SCALE),)

    def _evaluate(self, keys, raw, grads):
        # the inputs coincide where the distance is 0 and, when labeled, the labels agree
        same = keys.d == 0.0
        if keys.l1 is not None:
            same = same & (keys.l1 == keys.l2)
        k = next(raw) ** 2 * same
        return k, [2.0 * k] if grads else []

    def _token(self):
        return "NOISE"


# --- label covariance ------------------------------------------------------


def _spherical_column(angles) -> list[float]:
    """Column len(angles) (0-based) of the factor: a point on the unit sphere
    in R^(len(angles) + 1) written in spherical coordinates."""
    column, prod = [], 1.0
    for a in angles:
        column.append(prod * math.cos(a))
        prod *= math.sin(a)
    return column + [prod]


def _spherical_factor(angles, m: int) -> np.ndarray:
    """Upper-triangular factor with unit-norm columns from m(m-1)/2 angles.

    Column c takes the c angles after the first c(c-1)/2, so diag(S^T S) is
    exactly 1 and off-diagonal entries of S^T S lie in [-1, 1] for any angle
    values.
    """
    s = np.zeros((m, m))
    for c in range(m):
        s[: c + 1, c] = _spherical_column(angles[c * (c - 1) // 2 : c * (c + 1) // 2])
    return s


def _spherical_factor_grads(angles, m: int) -> list[np.ndarray]:
    """d S / d angle for each angle, matching _spherical_factor's layout.

    The angle at position j of column c enters entries j..c of that column
    once each, as a cosine at j and as a sine below; shifting it by pi/2
    differentiates both, so each gradient rebuilds that column alone.
    """
    grads = []
    for c in range(1, m):
        for j in range(c):
            shifted = list(angles[c * (c - 1) // 2 : c * (c + 1) // 2])
            shifted[j] += math.pi / 2
            g = np.zeros((m, m))
            g[j : c + 1, c] = _spherical_column(shifted)[j:]
            grads.append(g)
    return grads


def label_covariance(angles, scale: float, m: int) -> np.ndarray:
    """m x m output covariance scale * S^T S from hypersphere angles, checked
    as ``LabelCovariance(m, angles)``, which is the one with ``scale`` 1."""
    _check_positive("scale", scale)
    s = _spherical_factor(LabelCovariance(m, angles).angles, m)
    return scale * (s.T @ s)


@dataclass(frozen=True)
class LabelCovariance(Kernel):
    """Correlation between integer output labels, S^T S, which is
    ``label_covariance(angles, 1.0, m)``.

    ``angles`` holds m(m-1)/2 hypersphere angles.  A common scale would only
    trade off against the input kernel's output scales, so there is none.
    """

    m: int
    angles: tuple[float, ...] = ()

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"label covariance needs m >= 1, got {self.m}")
        angles = np.asarray(self.angles, dtype=float)
        expected = self.m * (self.m - 1) // 2
        if angles.shape != (expected,):
            raise ConfigError(
                f"label covariance for m={self.m} needs {expected} angles, got {angles.shape}"
            )
        object.__setattr__(self, "angles", tuple(angles.tolist()))
        super().__post_init__()

    def _evaluate(self, keys, raw, grads):
        angles = [next(raw) for _ in self.angles]
        flat = label_pairs(keys, self.m) if keys.pairs is None else keys.pairs
        s = _spherical_factor(angles, self.m)
        mats = [s.T @ s]
        if grads:
            # each angle's gradient dS^T S + S^T dS; S^T dS is dS^T S transposed
            products = [ds.T @ s for ds in _spherical_factor_grads(angles, self.m)]
            mats += [p + p.T for p in products]
        # gathered by label pair through flat m x m indices; the labels are
        # checked, so mode="clip" only skips a second range check
        k, *dks = [np.take(mat.ravel(), flat, mode="clip") for mat in mats]
        return k, dks

    def _param_specs(self):
        return [(f"phi_{i + 1}", ANGLE, a) for i, a in enumerate(self.angles)]

    def _with_raw(self, values):
        return replace(self, angles=tuple(next(values) for _ in self.angles))

    def _token(self):
        return "LABEL"


@dataclass(frozen=True)
class _Composite(Kernel):
    """A node that combines two kernels and has no parameters of its own."""

    left: Kernel
    right: Kernel

    def _walk(self):
        yield from self.left._walk()
        yield from self.right._walk()

    def _with_raw(self, values):
        return type(self)(self.left._with_raw(values), self.right._with_raw(values))


@dataclass(frozen=True)
class Sum(_Composite):
    def _evaluate(self, keys, raw, grads):
        kl, gl = self.left._evaluate(keys, raw, grads)
        kr, gr = self.right._evaluate(keys, raw, grads)
        return kl + kr, gl + gr


@dataclass(frozen=True)
class Product(_Composite):
    def _evaluate(self, keys, raw, grads):
        kl, gl = self.left._evaluate(keys, raw, grads)
        kr, gr = self.right._evaluate(keys, raw, grads)
        for g in gl:
            g *= kr
        for g in gr:
            g *= kl
        return kl * kr, gl + gr


def numbered_tokens(tokens) -> list[str]:
    """The tokens, each repeat numbered: the k-th copy of a token is token_k
    from k = 2 on."""
    seen: dict[str, int] = {}
    names = []
    for token in tokens:
        seen[token] = seen.get(token, 0) + 1
        names.append(token if seen[token] == 1 else f"{token}_{seen[token]}")
    return names


def sum_terms(kernel: Kernel) -> list[Kernel]:
    """Flatten nested Sum nodes into a list of addends."""
    if isinstance(kernel, Sum):
        return sum_terms(kernel.left) + sum_terms(kernel.right)
    return [kernel]


def mogp_gram(label_cov: np.ndarray, input_kernel: Kernel, inputs) -> np.ndarray:
    """Multi-output gram: entries K_label[l_i, l_j] * k_input(x_i, x_j).

    ``inputs`` is a sequence of LabeledInput with labels in 1..m.  When the
    inputs are cell-major copies of one shared grid this equals the
    Kronecker product of the label covariance with the input-kernel gram.
    """
    label_cov = np.asarray(label_cov, dtype=float)
    m = label_cov.shape[0]
    if label_cov.shape != (m, m):
        raise ConfigError(f"label covariance must be square, got {label_cov.shape}")
    x, labels = coerce_inputs(inputs)
    if labels is None:
        raise ConfigError("mogp_gram requires labeled inputs")
    if np.any((labels < 1) | (labels > m)):
        bad = labels[(labels < 1) | (labels > m)]
        raise BoundsError(f"labels {sorted(set(bad.tolist()))} outside 1..{m}")
    kx = input_kernel._gram(x, None, x, None)
    return label_cov[np.ix_(labels - 1, labels - 1)] * kx


# --- text grammar ------------------------------------------------------------

_BASE_FACTORIES = {
    "SE": SquaredExponential,
    "MA3": lambda: Matern(nu=1.5),
    "MA5": lambda: Matern(nu=2.5),
    "PER": Periodic,
    "NOISE": WhiteNoise,
}


def base_kernel(token: str) -> Kernel:
    """Fresh base kernel with default parameters for a grammar token."""
    try:
        return _BASE_FACTORIES[token.strip().upper()]()
    except KeyError:
        raise ConfigError(
            f"unknown kernel token {token.strip()!r}; expected one of "
            f"{sorted(_BASE_FACTORIES)}"
        ) from None


def parse_kernel(expression: str) -> Kernel:
    """Parse a '+'-separated kernel expression such as 'MA5+MA3+NOISE'."""
    tokens = [t for t in expression.split("+")]
    if not tokens or any(not t.strip() for t in tokens):
        raise ConfigError(f"malformed kernel expression {expression!r}")
    kernel = base_kernel(tokens[0])
    for token in tokens[1:]:
        kernel = Sum(kernel, base_kernel(token))
    return kernel


def format_kernel(kernel: Kernel) -> str:
    """Inverse of parse_kernel for sums of base kernels."""
    return "+".join(term._token() for term in sum_terms(kernel))
