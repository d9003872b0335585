"""Property tests for the NLML, its gradient, the kernel diagonal and the posterior.

Random compound kernels (sums and products of every base kernel, optionally
under a label covariance) and every mean function are evaluated at a vector
other than the model's own parameters, and checked against the dense oracle,
central differences and a model rebuilt at that vector.  The same kernels'
diagonals are checked against their full grams, and posteriors at new
(labeled) inputs against the dense oracle.

Training evaluates kernels once per distinct (distance, label pair), so the
inputs are drawn three ways: spread floats, where nearly every pair is
distinct; whole cycles, where distances repeat; and cycles that advance by 1
or 1.5, which mix whole and half distances.  On cycles, labeled points share
them, so points with different labels coincide in x.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpprog import (
    Constant,
    ExpDegradation,
    GpModel,
    LabelCovariance,
    Matern,
    Periodic,
    Product,
    SquaredExponential,
    Sum,
    WhiteNoise,
    Zero,
)

from helpers import central_difference_gradients, dense_oracle

scales = st.floats(0.3, 2.0)
lengths = st.floats(0.5, 3.0)

leaves = st.one_of(
    st.builds(SquaredExponential, scales, lengths),
    st.builds(lambda s, l: Matern(1.5, s, l), scales, lengths),
    st.builds(lambda s, l: Matern(2.5, s, l), scales, lengths),
    st.builds(Periodic, scales, st.floats(0.5, 2.0), st.floats(1.0, 5.0)),
    st.builds(WhiteNoise, st.floats(0.1, 1.0)),
)

compound_kernels = st.recursive(
    leaves,
    lambda children: st.builds(
        lambda op, left, right: op(left, right),
        st.sampled_from([Sum, Product]),
        children,
        children,
    ),
    max_leaves=4,
)


@st.composite
def training_inputs(draw, n):
    """n training inputs: spread floats, or a grid of cycles repeated to length n."""
    kind = draw(st.sampled_from(["float", "cycle", "1.5-cycle"]))
    if kind == "float":
        x = np.sort(np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))))
        return x + np.arange(n) * 1e-2  # distinct inputs keep the oracle's inverse well conditioned
    # every cycle of the grid appears at least twice
    k = draw(st.integers(1, n // 2))
    if kind == "cycle":
        grid = np.array(draw(st.lists(st.integers(0, 10), min_size=k, max_size=k)), dtype=float)
    else:
        steps = draw(st.lists(st.sampled_from([1.0, 1.5]), min_size=k, max_size=k))
        grid = np.cumsum(steps)
    return np.resize(grid, n)


@st.composite
def problems(draw):
    """A model, and an optimization-space vector near but not at its parameters."""
    n = draw(st.integers(2, 9))
    x = draw(training_inputs(n))
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    kernel = draw(compound_kernels)
    labels = None
    m = draw(st.integers(0, 5))
    if m:
        n_angles = m * (m - 1) // 2
        angles = draw(st.lists(st.floats(0.2, math.pi - 0.2), min_size=n_angles, max_size=n_angles))
        kernel = Product(LabelCovariance(m, tuple(angles), draw(st.floats(0.5, 2.0))), kernel)
        labels = np.array(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    mean = draw(st.sampled_from(["ZERO", "CONST", "EXPDEG"]))
    if mean == "ZERO":
        mean = Zero()
    elif mean == "CONST":
        mean = Constant(value=float(np.mean(y)))
    else:
        mean = ExpDegradation(
            draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.3, 0.1))
        )
    model = GpModel(kernel, x, y, mean, draw(st.floats(0.05, 0.5)), labels=labels)
    theta = model.opt_vector()
    steps = st.lists(st.floats(-0.3, 0.3), min_size=len(theta), max_size=len(theta))
    theta += np.array(draw(steps))
    return model, theta


@st.composite
def predictions(draw):
    """A model at a drawn parameter vector, and new inputs to predict at,
    labeled when the model is."""
    model, theta = draw(problems())
    model = model.with_opt_vector(theta)
    n = draw(st.integers(1, 6))
    # some new inputs repeat training inputs, so cross-covariances meet coincidences
    new = st.one_of(st.floats(-2.0, 12.0), st.sampled_from(model.x.tolist()))
    x_new = np.array(draw(st.lists(new, min_size=n, max_size=n)))
    labels = None
    if model.labels is not None:
        m = model.kernel.left.m
        labels = np.array(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    return model, x_new, labels


def oracle_nlml(model: GpModel) -> float:
    labels = None if model.labels is None else model.labels[:1]
    return dense_oracle(model, model.x[:1], labels)[0]


@given(problems())
def test_value_matches_dense_oracle_and_rebuilt_model(problem):
    model, theta = problem
    value, _ = model.nlml_value_and_gradients(theta)
    rebuilt = model.with_opt_vector(theta)
    assert value == pytest.approx(oracle_nlml(rebuilt), rel=1e-8, abs=1e-8)
    assert value == pytest.approx(rebuilt.nlml(), rel=1e-10, abs=1e-10)


@given(problems())
def test_gradient_matches_central_differences(problem):
    model, theta = problem
    _, grads = model.nlml_value_and_gradients(theta)
    fd = central_difference_gradients(model.with_opt_vector(theta))
    assert np.allclose(grads, fd, rtol=2e-4, atol=2e-6)


@given(problems())
def test_own_parameters_are_the_default(problem):
    model, _ = problem
    value, grads = model.nlml_value_and_gradients()
    value_at, grads_at = model.nlml_value_and_gradients(model.opt_vector())
    assert value == pytest.approx(value_at, rel=1e-10, abs=1e-10)
    assert np.allclose(grads, grads_at, rtol=1e-8, atol=1e-10)


@given(predictions())
def test_diagonal_equals_gram_diagonal(prediction):
    model, x_new, labels = prediction
    gram = model.kernel._gram(x_new, labels, x_new, labels)
    assert np.array_equal(model.kernel._diag(x_new, labels), np.diag(gram))


@given(predictions())
def test_posterior_matches_dense_oracle(prediction):
    model, x_new, labels = prediction
    post = model.posterior(x_new, labels)
    _, mean_ref, var_ref = dense_oracle(model, x_new, labels)
    assert np.allclose(post.mean, mean_ref, rtol=1e-8, atol=1e-10)
    assert np.allclose(post.variance_latent, var_ref, rtol=1e-8, atol=1e-9)
