"""Property tests for the NLML, its gradient, the kernel diagonal and the posterior.

Random compound kernels (sums and products of every base kernel, optionally
under a label covariance) and every mean function are evaluated at a vector
other than the model's own parameters, and checked against the dense oracle,
central differences and a model rebuilt at that vector.  A kernel with one
scale has it solved in its box at every vector, and its NLML is checked to
be the least NLML over that scale in the box.  The same kernels' diagonals
are checked against their full grams, and posteriors at new (labeled)
inputs against the dense oracle.

Training evaluates kernels once per distinct (distance, label pair), so the
inputs are drawn three ways: spread floats, where nearly every pair is
distinct; whole cycles, where distances repeat; and cycles that advance by 1
or 1.5, which mix whole and half distances.  On cycles, labeled points share
them, so points with different labels coincide in x.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

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
from gpprog import gp as gp_module

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
def problems(draw, kernels=compound_kernels):
    """A model, and an optimization-space vector near but not at its parameters."""
    n = draw(st.integers(2, 9))
    x = draw(training_inputs(n))
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    kernel = draw(kernels)
    labels = None
    m = draw(st.integers(0, 5))
    if m:
        n_angles = m * (m - 1) // 2
        angles = draw(st.lists(st.floats(0.2, math.pi - 0.2), min_size=n_angles, max_size=n_angles))
        kernel = Product(LabelCovariance(m, tuple(angles)), kernel)
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
def predictions(draw, sizes=st.integers(1, 6)):
    """A model at a drawn parameter vector, and new inputs to predict at,
    labeled when the model is."""
    model, theta = draw(problems())
    model = model.with_opt_vector(theta)
    n = draw(sizes)
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


@given(problems(leaves))
def test_solved_scale_minimises_the_searched_nlml(problem):
    # one leaf, under a label covariance or not, has one scale: the step
    # solves it in its box, and its NLML is the least of the NLMLs with the
    # scale searched in that box (the model rebuilt at theta, its kernel's
    # scale and the noise variance both times c), which the dense oracle
    # gives; c = 1 is best
    model, theta = problem
    assert model._layout.scale is not None and len(theta) == len(model.hyperparameters().names) - 1
    value, _ = model.nlml_value_and_gradients(theta)
    rebuilt = model.with_opt_vector(theta)
    raw = rebuilt.kernel._raw_values()
    index = model._layout.scale
    lo, hi = model._layout.scale_box
    scale = raw[index] ** 2
    assert lo * (1.0 - 1e-12) <= scale <= hi * (1.0 + 1e-12)

    def searched(log_c):
        scaled = raw[:index] + [raw[index] * math.exp(0.5 * log_c)] + raw[index + 1 :]
        return oracle_nlml(GpModel(rebuilt.kernel._with_raw(iter(scaled)), model.x, model.y,
                                   rebuilt.mean, rebuilt.noise_variance * math.exp(log_c),
                                   labels=model.labels))

    # the NLML is convex in log c, so a bounded scalar search finds the box's best
    best = minimize_scalar(searched, bounds=(min(math.log(lo / scale), 0.0),
                                             max(math.log(hi / scale), 0.0)),
                           method="bounded", options={"xatol": 1e-9})
    assert best.x == pytest.approx(0.0, abs=1e-5)
    assert value == pytest.approx(best.fun, rel=1e-8, abs=1e-8)
    assert value == pytest.approx(searched(0.0), rel=1e-8, abs=1e-8)


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


@given(
    problems().filter(lambda problem: isinstance(problem[0].mean, ExpDegradation)),
    st.sampled_from([1e-4, 1e-2, 1.0]),
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
)
def test_solved_coefficients_minimise_the_nlml(problem, scale, direction):
    # the coefficients with_opt_vector solves are the GLS ones: no other a1
    # and a2 fit better, near or far.  A model built with the moved
    # coefficients keeps them (its own factorization solves nothing), and the
    # dense oracle pins its value
    model, theta = problem
    solved = model.with_opt_vector(theta)
    mean = solved.mean
    a1, a2 = (b + scale * d * (abs(b) + 1e-3) for b, d in zip((mean.a1, mean.a2), direction))
    moved = GpModel(solved.kernel, model.x, model.y, replace(mean, a1=a1, a2=a2),
                    solved.noise_variance, labels=model.labels)
    assert moved.nlml() == pytest.approx(oracle_nlml(moved), rel=1e-8, abs=1e-8)
    assert solved.nlml() <= moved.nlml() + 1e-9 * max(1.0, abs(moved.nlml()))


def _assert_close(blocked, whole):
    scale = max(float(np.max(np.abs(whole))), 1.0)
    assert np.max(np.abs(blocked - whole)) <= 1e-12 * scale


@given(predictions(st.integers(7, 27)))
def test_blocks_condition_like_one_block(prediction):
    # 7 to 27 new inputs are one to three blocks of 7 and a remainder; a
    # block larger than the inputs conditions them all at once.  A second
    # term on top makes every model, labeled ones included, decomposable.
    model, x_new, labels = prediction
    summed = GpModel(Sum(model.kernel, Matern(1.5, 0.5, 2.0)), model.x, model.y, model.mean,
                     model.noise_variance, labels=model.labels)
    results = []
    for block in (7, 10**6):
        with mock.patch.object(gp_module, "POSTERIOR_BLOCK", block):
            results.append((model.posterior(x_new, labels),
                            summed.decompose_posterior(x_new, labels)))
    (post, dec), (post_whole, dec_whole) = results
    for blocked, whole in ((post, post_whole), (dec, dec_whole)):
        for field in ("mean", "variance_latent", "variance_noisy"):
            _assert_close(getattr(blocked, field), getattr(whole, field))
    for comp, comp_whole in zip(dec.components, dec_whole.components, strict=True):
        assert comp.name == comp_whole.name
        _assert_close(comp.mean, comp_whole.mean)
        _assert_close(comp.variance, comp_whole.variance)
    _assert_close(summed.mean(x_new) + sum(c.mean for c in dec.components), dec.mean)
