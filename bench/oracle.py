"""Reference computations made apart from gpprog.

The output checks compare gpprog's results with what is computed here from
the input CSVs and the reported hyperparameters, using only the csv module
and plain numpy: a capacity reader, a threshold-crossing scan, the kernel
formulas, and a dense Gaussian process that solves with ``numpy.linalg``
instead of reusing a Cholesky factor.
"""

from __future__ import annotations

import csv
import math

import numpy as np

_LOG2PI = math.log(2.0 * math.pi)


class CheckFailed(AssertionError):
    """An output of gpprog disagrees with the reference or breaks a property."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a, b, rtol: float, atol: float = 0.0) -> bool:
    """Element-wise |a - b| <= atol + rtol |b|, with equal infinities allowed."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        near = np.abs(a - b) <= atol + rtol * np.abs(b)
    return bool(np.all(both_inf | near))


def read_cells(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Capacity CSV as {cell_id: (cycles, capacities / first capacity)}, sorted by cycle."""
    raw: dict[str, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            raw.setdefault(row["cell_id"], []).append(
                (float(row["cycle"]), float(row["capacity"]))
            )
    cells = {}
    for cell_id, rows in raw.items():
        rows.sort()
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        cells[cell_id] = (x, y / y[0])
    return cells


def first_crossing(xs, values, threshold: float, start_x: float) -> float:
    """First x after ``start_x`` where the linear interpolant falls below ``threshold``.

    When the first point past ``start_x`` is already below, the answer is
    that point; +inf when the curve never falls below.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    below = np.flatnonzero((xs > start_x) & (values < threshold))
    if below.size == 0:
        return math.inf
    j = int(below[0])
    if j > 0 and values[j - 1] >= threshold:
        frac = (values[j - 1] - threshold) / (values[j - 1] - values[j])
        xc = xs[j - 1] + frac * (xs[j] - xs[j - 1])
        if xc > start_x:
            return float(xc)
    return float(xs[j])


def kernel_terms(expression: str) -> list[tuple[str, str]]:
    """(token, parameter prefix) per '+' term, numbering repeats as gpprog names them."""
    seen: dict[str, int] = {}
    terms = []
    for token in expression.upper().split("+"):
        seen[token] = seen.get(token, 0) + 1
        prefix = token.lower() if seen[token] == 1 else f"{token.lower()}_{seen[token]}"
        terms.append((token, prefix))
    return terms


def term_covariance(token: str, params: dict[str, float], d: np.ndarray) -> np.ndarray:
    """One stationary kernel at distances ``d``, in gpprog's parametrisation."""
    s2 = params["output_scale"] ** 2
    ell = params["length_scale"]
    if token == "SE":
        return s2 * np.exp(-((d / ell) ** 2))
    if token == "MA3":
        a = math.sqrt(3.0) * d / ell
        return s2 * (1.0 + a) * np.exp(-a)
    if token == "MA5":
        a = math.sqrt(5.0) * d / ell
        return s2 * (1.0 + a + a * a / 3.0) * np.exp(-a)
    if token == "PER":
        return s2 * np.exp(-2.0 * np.sin(np.pi * d / params["period"]) ** 2 / ell**2)
    raise ValueError(f"no reference formula for kernel token {token!r}")


def sum_covariance(expression: str, hyper: dict[str, float], x1, x2) -> list[np.ndarray]:
    """Per-term covariance matrices between x1 and x2 for a '+' expression."""
    d = np.abs(np.asarray(x1, dtype=float)[:, None] - np.asarray(x2, dtype=float)[None, :])
    out = []
    for token, prefix in kernel_terms(expression):
        params = {
            key.split(".", 1)[1]: value
            for key, value in hyper.items()
            if key.split(".", 1)[0] == prefix
        }
        out.append(term_covariance(token, params, d))
    return out


def dense_nlml(k: np.ndarray, noise: float, resid: np.ndarray) -> float:
    """Negative log marginal likelihood from slogdet and a dense solve."""
    a = k + noise * np.eye(len(resid))
    sign, logdet = np.linalg.slogdet(a)
    require(sign > 0, "reference covariance is not positive definite")
    return float(0.5 * resid @ np.linalg.solve(a, resid) + 0.5 * logdet + 0.5 * len(resid) * _LOG2PI)


def dense_posterior(k_train, k_cross, k_test_diag, noise, resid):
    """Posterior mean offset and latent variance by dense solves."""
    a = k_train + noise * np.eye(len(resid))
    mean = k_cross @ np.linalg.solve(a, resid)
    var = k_test_diag - np.einsum("ij,ji->i", k_cross, np.linalg.solve(a, k_cross.T))
    return mean, var
