"""Mean function values, gradients, and the token grammar."""

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
        assert m.gradients(x).shape == (4, 0)
        assert m.n_params() == 0

    def test_constant_fixed(self):
        m = Constant(value=0.93)
        x = np.arange(3.0)
        assert np.array_equal(m(x), [0.93, 0.93, 0.93])
        assert m.n_params() == 0
        assert m.gradients(x).shape == (3, 0)


class TestExpDegradation:
    def test_values(self):
        m = ExpDegradation(a1=0.7, a2=0.3, a3=-0.01)
        x = np.array([0.0, 100.0])
        assert np.allclose(m(x), [1.0, 0.7 + 0.3 * np.exp(-1.0)], rtol=1e-14)

    @pytest.mark.parametrize("token", MEAN_TOKENS)
    def test_gradients_match_finite_differences(self, token):
        rng = np.random.default_rng(4)
        x = np.linspace(0, 50, 9)
        for _ in range(10):
            coefficients = [
                float(rng.uniform(0.5, 1.5)),
                float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(-0.05, 0.02)),
            ]
            m = mean_from_token(token, x, 1.0 - 0.004 * x)
            # the declared parameters read back in the order they were set
            m = m._with_raw(iter(coefficients[: m.n_params()]))
            assert m._raw_values() == coefficients[: m.n_params()]
            assert np.allclose(m.gradients(x), fd_mean_gradients(m, x), rtol=1e-5, atol=1e-7)

    def test_overflow_raises(self):
        m = ExpDegradation(a1=0.0, a2=1.0, a3=10.0)
        with pytest.raises(NumericalError, match="exp overflow"):
            m(np.array([100.0]))
        with pytest.raises(NumericalError):
            m.gradients(np.array([100.0]))

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ConfigError):
            ExpDegradation(a1=np.inf)

    def test_initial_guess_matches_endpoints(self):
        x = np.array([0.0, 40.0, 80.0])
        y = np.array([1.0, 0.9, 0.82])
        m = ExpDegradation.initial_guess(x, y)
        assert m.a1 == pytest.approx(0.82)
        assert m.a2 == pytest.approx(0.18)
        assert m.a3 == pytest.approx(-1 / 80)
        # evaluates to y[0] at the origin by construction
        assert m(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_n_params(self):
        assert ExpDegradation().n_params() == 3


class TestTokens:
    def test_zero_token(self):
        assert isinstance(mean_from_token("ZERO", [0.0], [1.0]), Zero)

    def test_const_token_pins_target_mean(self):
        m = mean_from_token("const", [0, 1, 2], [1.0, 0.9, 0.8])
        assert isinstance(m, Constant)
        assert m.value == pytest.approx(0.9)
        assert m.n_params() == 0

    def test_expdeg_token(self):
        m = mean_from_token("EXPDEG", [0.0, 10.0], [1.0, 0.9])
        assert isinstance(m, ExpDegradation)

    def test_unknown_token(self):
        with pytest.raises(ConfigError, match="unknown mean token"):
            mean_from_token("LINEAR", [0.0], [1.0])

    def test_mean_params(self):
        assert mean_params(Zero()) == {}
        assert mean_params(Constant(0.8)) == {"value": 0.8}
        assert mean_params(ExpDegradation(0.7, 0.3, -0.01)) == {
            "a1": 0.7,
            "a2": 0.3,
            "a3": -0.01,
        }
