"""Shared test oracles, written independently of the library internals.

The dense Gaussian oracle builds the full joint covariance and uses plain
inverses and slogdet, no Cholesky reuse, so agreement with the library is
meaningful.  The finite-difference oracle and the brute-force crossing
scanner play the same role for gradients and end-of-life detection.
"""

from __future__ import annotations

import math

import numpy as np

from gpprog import (
    CapacitySeries,
    GpModel,
    Matern,
    Periodic,
    SquaredExponential,
    Sum,
    WhiteNoise,
)


def dense_oracle(model: GpModel, x_test: np.ndarray, labels_test=None):
    """NLML and posterior moments from explicit dense linear algebra.

    ``labels_test`` labels the test inputs of a multi-output model.
    """
    x, y, labels = model.x, model.y, model.labels
    n = len(x)
    k_train = model.kernel._gram(x, labels, x, labels)
    a = k_train + model.noise_variance * np.eye(n)
    a_inv = np.linalg.inv(a)
    resid = y - model.mean(x)
    sign, logdet = np.linalg.slogdet(a)
    assert sign > 0, "oracle covariance not positive definite"
    nlml = 0.5 * resid @ a_inv @ resid + 0.5 * logdet + 0.5 * n * math.log(2 * math.pi)

    k_cross = model.kernel._gram(x_test, labels_test, x, labels)
    k_test = model.kernel._gram(x_test, labels_test, x_test, labels_test)
    mean = model.mean(x_test) + k_cross @ a_inv @ resid
    cov = k_test - k_cross @ a_inv @ k_cross.T
    return float(nlml), mean, np.diag(cov).copy()


def central_difference_gradients(model: GpModel, step: float = 1e-6) -> np.ndarray:
    """Finite-difference NLML gradient in optimization space."""
    theta = model.opt_vector()
    grads = np.empty_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grads[i] = (
            model.with_opt_vector(up).nlml() - model.with_opt_vector(down).nlml()
        ) / (2 * step)
    return grads


def monotone_benchmark(n_points: int = 60, seed: int = 3) -> CapacitySeries:
    """Smooth strictly fading series for sanity checks on horizon error growth."""
    x = np.arange(1.0, n_points + 1.0)
    y = 1.0 - 0.30 * (x / n_points) ** 1.6
    y = y + 0.001 * np.random.default_rng(seed).standard_normal(n_points)
    return CapacitySeries.from_raw("MONO", x, y)


def brute_force_eol(xs, values, threshold: float, start_x: float, n_scan: int = 200_001) -> float:
    """First sub-threshold point of the linear interpolant by dense scan.

    Scans a fine grid over (start_x, xs[-1]], then refines the bracketing
    segment by bisection on the interpolant.  Used to cross-check the
    analytic crossing finder on curves in generic position.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    lo = max(start_x, xs[0])
    grid = np.linspace(lo, xs[-1], n_scan)[1:]
    curve = np.interp(grid, xs, values)
    below = np.nonzero(curve < threshold)[0]
    if len(below) == 0:
        return math.inf
    j = below[0]
    if j == 0:
        return float(grid[0])
    a, b = grid[j - 1], grid[j]
    for _ in range(80):
        mid = 0.5 * (a + b)
        if np.interp(mid, xs, values) < threshold:
            b = mid
        else:
            a = mid
    return float(b)


def random_kernel(rng: np.random.Generator, max_terms: int = 3):
    """Random additive kernel drawn from the expression grammar."""
    def leaf():
        choice = rng.integers(0, 5)
        length = float(rng.uniform(0.5, 3.0))
        out = float(rng.uniform(0.3, 2.0))
        if choice == 0:
            return SquaredExponential(out, length)
        if choice == 1:
            return Matern(nu=1.5, output_scale=out, length_scale=length)
        if choice == 2:
            return Matern(nu=2.5, output_scale=out, length_scale=length)
        if choice == 3:
            return Periodic(out, float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.0, 5.0)))
        return WhiteNoise(float(rng.uniform(0.1, 1.0)))

    kernel = leaf()
    for _ in range(int(rng.integers(0, max_terms))):
        kernel = Sum(kernel, leaf())
    return kernel


def random_problem(rng: np.random.Generator, n_train_max: int = 8, n_test_max: int = 4):
    """Small random regression problem for oracle comparisons."""
    n_train = int(rng.integers(2, n_train_max + 1))
    n_test = int(rng.integers(1, n_test_max + 1))
    x = np.sort(rng.uniform(0.0, 10.0, size=n_train))
    # keep training inputs distinct so WhiteNoise terms stay diagonal
    x += np.arange(n_train) * 1e-3
    y = rng.standard_normal(n_train)
    x_test = np.sort(rng.uniform(-2.0, 12.0, size=n_test))
    kernel = random_kernel(rng)
    noise = float(rng.uniform(0.05, 0.5))
    model = GpModel(kernel, x, y, noise_variance=noise)
    return model, x_test
