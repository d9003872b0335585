"""Mean function values, gradients, and the token grammar."""

import math

import numpy as np
import pytest

from gpprog import (
    ConfigError,
    Constant,
    ExpDegradation,
    NumericalError,
    Zero,
    mean_from_token,
    mean_params,
)
from gpprog.meanfn import MEAN_TOKENS


def fd_mean_gradients(mean, x, step=1e-7):
    base = np.array(mean._raw_values())
    cols = []
    for i in range(len(base)):
        up, down = base.copy(), base.copy()
        up[i] += step
        down[i] -= step
        cols.append((mean._with_raw(iter(up))(x) - mean._with_raw(iter(down))(x)) / (2 * step))
    return np.column_stack(cols) if cols else np.zeros((len(x), 0))


class TestZeroAndConstant:
    def test_zero(self):
        m = Zero()
        x = np.linspace(0, 5, 4)
        assert np.array_equal(m(x), np.zeros(4))
        # the offset column and an empty basis, with no parameters to differentiate
        assert [a.shape for a in m._evaluate(x, m._raw_values())] == [(4, 1), (0, 4, 0)]
        assert m.n_params() == 0

    def test_constant_fixed(self):
        m = Constant(value=0.93)
        x = np.arange(3.0)
        assert np.array_equal(m(x), [0.93, 0.93, 0.93])
        assert m.n_params() == 0
        # the offset column and an empty basis, with no parameters to differentiate
        assert [a.shape for a in m._evaluate(x, m._raw_values())] == [(3, 1), (0, 3, 0)]


class TestExpDegradation:
    def test_values(self):
        # a1 + a2 * expm1(a3 x) / a3: the curve 0.7 + 0.3 exp(-0.01 x)
        m = ExpDegradation(a1=1.0, a2=-0.003, a3=-0.01)
        x = np.array([0.0, 100.0])
        assert np.allclose(m(x), [1.0, 0.7 + 0.3 * np.exp(-1.0)], rtol=1e-14)

    @pytest.mark.parametrize("a3", [0.0, 1e-9, -1e-9, -6.7e-41, 5e-4, -2e-3, -0.05])
    def test_basis_is_continuous_through_zero_rate(self, a3):
        # g(x) = expm1(a3 x) / a3 and dg/da3 against their series in a3 x,
        # summed far past the terms the small-rate branch keeps
        x = np.array([0.0, 0.5, 1.0, 2.0, 20.0])
        columns, grads = ExpDegradation(a3=a3)._evaluate(x, [a3])
        basis = columns[:, 1:]
        z = a3 * x
        terms = [z**j / math.factorial(j + 1) for j in range(25)]
        dterms = [(j + 1) * z**j / math.factorial(j + 2) for j in range(25)]
        assert np.array_equal(basis[:, 0], np.ones(len(x)))
        assert np.allclose(basis[:, 1], x * sum(terms), rtol=1e-13, atol=0.0)
        assert np.array_equal(grads[0, :, 0], np.zeros(len(x)))
        assert np.allclose(grads[0, :, 1], x * x * sum(dterms), rtol=1e-11, atol=0.0)
        assert np.all(np.isfinite(basis)) and np.all(np.isfinite(grads))

    def test_coefficients_are_value_and_slope_at_zero(self):
        m = ExpDegradation(a1=0.9, a2=-0.004, a3=0.02)
        h = 1e-6
        assert m(np.array([0.0]))[0] == 0.9
        slope = (m(np.array([h])) - m(np.array([-h])))[0] / (2 * h)
        assert slope == pytest.approx(-0.004, rel=1e-8)

    @pytest.mark.parametrize("token", MEAN_TOKENS)
    def test_gradients_match_finite_differences(self, token):
        rng = np.random.default_rng(4)
        x = np.linspace(0, 50, 9)
        for _ in range(10):
            coefficients = [
                float(rng.uniform(0.5, 1.5)),
                float(rng.uniform(-0.02, 0.02)),
                float(rng.uniform(-0.05, 0.02)),
            ]
            m = mean_from_token(token, 1.0 - 0.004 * x)
            # the searched parameters read back in the order they were set,
            # and the solved coefficients are set apart from them
            m = m._with_raw(iter(coefficients[2:]))
            m = m._with_coefficients(coefficients[:2])
            assert m._raw_values() == coefficients[2:][: m.n_params()]
            _, basis_grads = m._evaluate(x, m._raw_values())
            beta = [getattr(m, name) for name in m._coefficients]
            assert np.allclose((basis_grads @ beta).T, fd_mean_gradients(m, x),
                               rtol=1e-5, atol=1e-7)

    def test_overflow_raises(self):
        m = ExpDegradation(a1=1.0, a2=10.0, a3=10.0)
        with pytest.raises(NumericalError, match="exp overflow"):
            m(np.array([100.0]))

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ConfigError):
            ExpDegradation(a1=np.inf)

    def test_n_params(self):
        # a1 and a2 are solved, so only the rate is searched
        assert ExpDegradation().n_params() == 1
        assert ExpDegradation._coefficients == ("a1", "a2")


class TestTokens:
    def test_zero_token(self):
        assert isinstance(mean_from_token("ZERO", [1.0]), Zero)

    def test_const_token_pins_target_mean(self):
        m = mean_from_token("const", [1.0, 0.9, 0.8])
        assert isinstance(m, Constant)
        assert m.value == pytest.approx(0.9)
        assert m.n_params() == 0

    def test_expdeg_token(self):
        m = mean_from_token("EXPDEG", [1.0, 0.9])
        assert isinstance(m, ExpDegradation)

    def test_unknown_token(self):
        with pytest.raises(ConfigError, match="unknown mean token"):
            mean_from_token("LINEAR", [1.0])

    def test_mean_params(self):
        assert mean_params(Zero()) == {}
        assert mean_params(Constant(0.8)) == {"value": 0.8}
        assert mean_params(ExpDegradation(1.0, -0.003, -0.01)) == {
            "a1": 1.0,
            "a2": -0.003,
            "a3": -0.01,
        }
