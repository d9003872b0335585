"""Kernel values, gradients, composition, label covariance, and grammar."""

import math

import numpy as np
import pytest

from gpprog import (
    BoundsError,
    ConfigError,
    Hyperparameters,
    LabelCovariance,
    LabeledInput,
    Matern,
    NumericalError,
    Periodic,
    Product,
    SquaredExponential,
    Sum,
    WhiteNoise,
    base_kernel,
    format_kernel,
    label_covariance,
    mogp_gram,
    parse_kernel,
    sum_terms,
)
from gpprog.kernels import (
    LOG_WIGGLE,
    coerce_inputs,
    is_log_kind,
    unique_pair_keys,
    with_label_pairs,
)

from helpers import random_kernel


def fd_gram_gradients(kernel, x, step=1e-6):
    """Central differences of the gram in optimization space."""
    theta = kernel.hyperparameters().values
    grads = []
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grads.append(
            (kernel.with_hyperparameters(up).gram(x) - kernel.with_hyperparameters(down).gram(x))
            / (2 * step)
        )
    return grads


class TestAnalyticForms:
    def test_se_closed_form(self):
        k = SquaredExponential(output_scale=1.3, length_scale=2.0)
        d = 0.7
        expected = 1.3**2 * math.exp(-((d / 2.0) ** 2))
        assert np.isclose(k.gram([0.0], [d])[0, 0], expected, rtol=1e-14)

    def test_matern32_closed_form(self):
        sigma, rho, d = 0.8, 1.7, 0.9
        a = math.sqrt(3) * d / rho
        expected = sigma**2 * (1 + a) * math.exp(-a)
        k = Matern(nu=1.5, output_scale=sigma, length_scale=rho)
        assert np.isclose(k.gram([0.0], [d])[0, 0], expected, rtol=1e-14)

    def test_matern52_closed_form(self):
        sigma, rho, d = 1.1, 0.6, 0.4
        a = math.sqrt(5) * d / rho
        expected = sigma**2 * (1 + a + a * a / 3) * math.exp(-a)
        k = Matern(nu=2.5, output_scale=sigma, length_scale=rho)
        assert np.isclose(k.gram([0.0], [d])[0, 0], expected, rtol=1e-14)

    def test_periodic_closed_form(self):
        sigma, ell, p, d = 0.9, 1.4, 2.5, 0.61
        expected = sigma**2 * math.exp(-2 * math.sin(math.pi * d / p) ** 2 / ell**2)
        k = Periodic(output_scale=sigma, length_scale=ell, period=p)
        assert np.isclose(k.gram([0.0], [d])[0, 0], expected, rtol=1e-14)

    def test_periodic_repeats_at_period_multiples(self):
        k = Periodic(1.0, 0.8, 3.0)
        vals = k.gram([0.0], [0.0, 3.0, 6.0, 9.0])
        assert np.allclose(vals, vals[0, 0], atol=1e-12)

    def test_variance_at_zero_distance(self):
        for k, var in [
            (SquaredExponential(1.5, 1.0), 1.5**2),
            (Matern(1.5, 0.7, 1.0), 0.7**2),
            (Matern(2.5, 0.7, 1.0), 0.7**2),
            (Periodic(1.2, 1.0, 1.0), 1.2**2),
            (WhiteNoise(0.3), 0.3**2),
        ]:
            assert np.isclose(k.gram([1.7])[0, 0], var, rtol=1e-14)

    def test_white_noise_matches_exact_inputs_only(self):
        k = WhiteNoise(0.5)
        g = k.gram([0.0, 1.0], [1.0, 0.0, 1.0 + 1e-12])
        assert g[1, 0] == 0.25 and g[0, 1] == 0.25
        assert g[0, 0] == 0.0 and g[1, 2] == 0.0

    def test_white_noise_respects_labels(self):
        k = WhiteNoise(0.5)
        pts = [LabeledInput(1.0, 1), LabeledInput(1.0, 2)]
        g = k.gram(pts)
        assert g[0, 0] == 0.25 and g[0, 1] == 0.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            SquaredExponential(output_scale=0.0)
        with pytest.raises(ConfigError):
            Matern(nu=2.0)
        with pytest.raises(ConfigError):
            Periodic(period=-1.0)
        with pytest.raises(ConfigError):
            WhiteNoise(scale=math.inf)


class TestPositiveSemiDefinite:
    def test_random_kernels_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            kernel = random_kernel(rng)
            x = np.sort(rng.uniform(0, 20, size=12))
            gram = kernel.gram(x)
            assert np.allclose(gram, gram.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() > -1e-9 * max(1.0, eigs.max())

    def test_product_psd(self):
        rng = np.random.default_rng(8)
        x = np.linspace(0, 10, 15)
        k = Product(SquaredExponential(1.2, 3.0), Matern(1.5, 0.9, 1.5))
        eigs = np.linalg.eigvalsh(k.gram(x))
        assert eigs.min() > -1e-10
        assert rng is not None


class TestGradients:
    @pytest.mark.parametrize(
        "kernel",
        [
            SquaredExponential(1.3, 2.1),
            Matern(1.5, 0.8, 1.4),
            Matern(2.5, 1.1, 0.9),
            Periodic(0.9, 1.3, 2.7),
            WhiteNoise(0.6),
            Sum(SquaredExponential(1.0, 2.0), Matern(2.5, 0.5, 0.7)),
            Product(SquaredExponential(1.0, 2.0), Periodic(0.8, 1.1, 3.0)),
            Sum(Product(Matern(1.5, 1.0, 1.0), SquaredExponential(0.7, 4.0)), WhiteNoise(0.4)),
        ],
        ids=lambda k: type(k).__name__ + str(id(k) % 97),
    )
    def test_gram_gradients_match_finite_differences(self, kernel):
        x = np.array([0.0, 0.4, 1.3, 2.9, 4.2])
        _, analytic = kernel.gram_with_gradients(x)
        numeric = fd_gram_gradients(kernel, x)
        assert len(analytic) == kernel.n_params()
        for a, n in zip(analytic, numeric):
            assert np.allclose(a, n, rtol=1e-6, atol=1e-8)

    def test_label_covariance_gradients_match_finite_differences(self):
        kernel = LabelCovariance(m=3, angles=(0.4, 1.1, 2.0))
        pts = [LabeledInput(float(i), 1 + i % 3) for i in range(6)]
        _, analytic = kernel.gram_with_gradients(pts)
        numeric = fd_gram_gradients(kernel, pts)
        for a, n in zip(analytic, numeric):
            assert np.allclose(a, n, rtol=1e-6, atol=1e-8)

    def test_gram_with_gradients_value_matches_gram(self):
        kernel = Sum(Matern(2.5, 1.2, 3.0), WhiteNoise(0.2))
        x = np.linspace(0, 5, 7)
        value, _ = kernel.gram_with_gradients(x)
        assert np.array_equal(value, kernel.gram(x))


class TestPairKeys:
    def test_integer_cycles_give_one_key_per_distance(self):
        x = np.arange(1.0, 31.0)
        keys, inverse = unique_pair_keys(x, None)
        assert keys.l1 is None and keys.l2 is None
        assert np.array_equal(keys.d, np.arange(30.0))
        assert np.array_equal(keys.d[inverse], np.abs(x[:, None] - x[None, :]))

    def test_labeled_keys_hold_the_smaller_label_first(self):
        # labels need not start at 1 or be contiguous; pairs (i, j) and (j, i)
        # share a key, and every pair's key gives back its distance and labels
        x = np.array([0.0, 0.0, 1.0, 2.5, 2.5, 4.0, 1.0])
        labels = np.array([3, 5, 7, 3, 7, 5, 5])
        keys, inverse = unique_pair_keys(x, labels)
        assert np.array_equal(inverse, inverse.T)
        assert np.all(keys.l1 <= keys.l2)
        lo = np.minimum(labels[:, None], labels[None, :])
        hi = np.maximum(labels[:, None], labels[None, :])
        assert np.array_equal(keys.d[inverse], np.abs(x[:, None] - x[None, :]))
        assert np.array_equal(keys.l1[inverse], lo)
        assert np.array_equal(keys.l2[inverse], hi)
        triples = set(zip(keys.d.tolist(), keys.l1.tolist(), keys.l2.tolist()))
        assert len(triples) == len(keys.d)

    def test_label_pairs_are_checked_and_indexed_once(self):
        # keys indexed for the kernel's label covariance evaluate to the same
        # bits as keys that each evaluation checks and indexes itself
        x = np.array([0.0, 1.0, 1.0, 2.0, 0.0])
        keys, _ = unique_pair_keys(x, np.array([1, 2, 3, 1, 3]))
        kernel = Product(LabelCovariance(3, (0.4, 0.9, 1.7)), Matern(1.5, 0.8, 2.0))
        indexed = with_label_pairs(kernel, keys)
        assert np.array_equal(indexed.pairs, (keys.l1 - 1) * 3 + keys.l2 - 1)
        raw = kernel._raw_values()
        for grads in (False, True):
            k, dks = kernel._evaluate(keys, iter(raw), grads)
            k_indexed, dks_indexed = kernel._evaluate(indexed, iter(raw), grads)
            assert np.array_equal(k, k_indexed)
            assert len(dks) == len(dks_indexed) == (5 if grads else 0)
            assert all(np.array_equal(a, b) for a, b in zip(dks, dks_indexed))
        # no label covariance, or two of different sizes: nothing to index once
        assert with_label_pairs(Matern(1.5), keys) is keys
        two_sizes = Sum(Product(LabelCovariance(3, (0.4, 0.9, 1.7)), Matern(1.5)),
                        Product(LabelCovariance(4, (0.5,) * 6), Matern(2.5)))
        assert with_label_pairs(two_sizes, keys) is keys
        with pytest.raises(BoundsError, match=r"labels \[3\] outside 1..2"):
            with_label_pairs(Product(LabelCovariance(2, (0.4,)), Matern(1.5)), keys)


class TestSmoothness:
    def test_matern52_has_finite_fourth_difference_matern32_does_not(self):
        # the fourth central difference of the covariance at zero lag
        # converges for a twice-differentiable process and blows up ~1/h
        # when sample paths are only once differentiable
        def fourth_diff(kernel, h):
            pts = np.array([-2 * h, -h, 0.0, h, 2 * h])
            row = kernel.gram(pts, [0.0]).ravel()
            return (row[0] - 4 * row[1] + 6 * row[2] - 4 * row[3] + row[4]) / h**4

        ma3, ma5 = Matern(1.5), Matern(2.5)
        # nu=5/2 has fourth derivative 25 sigma^2 / ell^4 at zero lag
        assert fourth_diff(ma5, 1e-3) == pytest.approx(25.0, rel=0.02)
        # nu=3/2 has an |d|^3 term, so the estimate grows like 1/h
        ratio = fourth_diff(ma3, 1e-4) / fourth_diff(ma3, 1e-3)
        assert ratio > 5.0


class TestLabelCovariance:
    def test_angle_count_validation(self):
        with pytest.raises(ConfigError, match="needs 3 angles"):
            LabelCovariance(m=3, angles=(0.1,))
        with pytest.raises(ConfigError):
            label_covariance([0.1, 0.2], 1.0, 3)

    @pytest.mark.parametrize("angle", [math.nan, math.inf])
    def test_nonfinite_angle_rejected(self, angle):
        with pytest.raises(ConfigError, match="phi_1 must be finite"):
            LabelCovariance(2, (angle,))

    @pytest.mark.parametrize("angles, m, message", [
        ([math.nan], 2, "phi_1 must be finite"),
        ([math.inf], 2, "phi_1 must be finite"),
        ([], 0, "m >= 1"),
        ([], -1, "m >= 1"),
    ], ids=["nan-angle", "inf-angle", "m=0", "m=-1"])
    def test_label_covariance_checks_as_the_kernel_does(self, angles, m, message):
        with pytest.raises(ConfigError, match=message):
            label_covariance(angles, 1.0, m)

    def test_matrix_structure_random_angles(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 4, 5):
            n_angles = m * (m - 1) // 2
            for _ in range(25):
                angles = rng.uniform(-10, 10, size=n_angles)
                tau = float(rng.uniform(0.1, 5.0))
                cov = label_covariance(angles, tau, m)
                assert np.allclose(np.diag(cov), tau, atol=1e-12)
                corr = cov / tau
                assert np.all(np.abs(corr) <= 1 + 1e-12)
                assert np.linalg.eigvalsh(cov).min() > -1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_parameters_are_the_angles_alone(self, m):
        # a correlation: m(m-1)/2 angles and no scale, which the input kernel's
        # output scales already set; its gram is label_covariance(angles, 1.0, m)
        angles = tuple(np.linspace(0.3, 2.8, m * (m - 1) // 2))
        k = LabelCovariance(m, angles)
        hp = k.hyperparameters()
        assert k.n_params() == len(hp.values) == m * (m - 1) // 2
        assert hp.kinds == ("angle",) * (m * (m - 1) // 2)
        pts = [LabeledInput(0.0, lab) for lab in range(1, m + 1)]
        assert np.array_equal(k.gram(pts), label_covariance(angles, 1.0, m))

    def test_gram_requires_labels(self):
        k = LabelCovariance(m=2, angles=(0.5,))
        with pytest.raises(ConfigError, match="labeled inputs"):
            k.gram(np.array([0.0, 1.0]))

    def test_labels_out_of_range(self):
        k = LabelCovariance(m=2, angles=(0.5,))
        with pytest.raises(BoundsError, match="outside 1..2"):
            k.gram([LabeledInput(0.0, 1), LabeledInput(1.0, 3)])

    def test_mogp_gram_equals_kronecker_on_aligned_grid(self):
        rng = np.random.default_rng(13)
        for m in (2, 3):
            angles = rng.uniform(0.2, 2.8, size=m * (m - 1) // 2)
            k_label = label_covariance(angles, 1.9, m)
            input_kernel = Sum(Matern(2.5, 1.1, 4.0), SquaredExponential(0.6, 9.0))
            grid = np.linspace(0, 30, 7)
            pts = [LabeledInput(float(x), lab) for lab in range(1, m + 1) for x in grid]
            full = mogp_gram(k_label, input_kernel, pts)
            kron = np.kron(k_label, input_kernel.gram(grid))
            assert np.allclose(full, kron, atol=1e-12)

    def test_mogp_gram_validation(self):
        k_label = label_covariance([0.7], 1.0, 2)
        with pytest.raises(ConfigError, match="labeled"):
            mogp_gram(k_label, SquaredExponential(), np.array([0.0, 1.0]))
        with pytest.raises(BoundsError):
            mogp_gram(k_label, SquaredExponential(), [LabeledInput(0.0, 5)])


class TestHyperparameterPlumbing:
    def test_names_kinds_and_log_space(self):
        k = Sum(Matern(2.5, 2.0, 8.0), Matern(1.5, 1.0, 3.0))
        hp = k.hyperparameters()
        assert hp.names == (
            "ma5.output_scale",
            "ma5.length_scale",
            "ma3.output_scale",
            "ma3.length_scale",
        )
        assert np.allclose(hp.values, np.log([2.0, 8.0, 1.0, 3.0]))
        assert hp.raw()["ma5.length_scale"] == pytest.approx(8.0)

    def test_duplicate_leaves_get_numbered_names(self):
        k = parse_kernel("MA3+MA3")
        names = k.hyperparameters().names
        assert names[0].startswith("ma3.") and names[2].startswith("ma3_2.")

    def test_periodic_wiggle_kind(self):
        kinds = Periodic().hyperparameters().kinds
        assert kinds[1] == LOG_WIGGLE
        assert is_log_kind(LOG_WIGGLE) and not is_log_kind("angle")

    @pytest.mark.parametrize("token", ["SE", "MA3", "MA5", "PER", "NOISE", "LABEL"])
    def test_with_hyperparameters_round_trip(self, token):
        k = LabelCovariance(m=3, angles=(0.4, 0.9, 1.3)) if token == "LABEL" else base_kernel(token)
        k = Sum(k, Periodic(0.9, 1.3, 2.7))
        hp = k.hyperparameters()
        rebuilt = k.with_hyperparameters(hp.values)
        xs = [LabeledInput(x, label) for x, label in zip(np.linspace(0, 4, 6), [1, 2, 3] * 2)]
        if token != "LABEL":
            xs = [p.x for p in xs]
        assert np.allclose(rebuilt.gram(xs), k.gram(xs), rtol=1e-14)
        # every parameter lands in its own field: distinct values read back in order
        values = hp.values + 0.1 * np.arange(1, len(hp.values) + 1)
        moved = k.with_hyperparameters(values).hyperparameters()
        assert (moved.names, moved.kinds) == (hp.names, hp.kinds)
        assert np.allclose(moved.values, values, rtol=1e-14)

    def test_with_hyperparameters_length_check(self):
        with pytest.raises(ConfigError, match="expected 2"):
            SquaredExponential().with_hyperparameters([0.0])

    def test_with_hyperparameters_overflow_guard(self):
        with pytest.raises(NumericalError, match="overflows"):
            SquaredExponential().with_hyperparameters([800.0, 0.0])
        with pytest.raises(NumericalError, match="underflows"):
            SquaredExponential().with_hyperparameters([-800.0, 0.0])

    def test_hyperparameters_validation(self):
        with pytest.raises(ConfigError):
            Hyperparameters(("a",), ("angle", "angle"), np.array([0.1]))
        with pytest.raises(ConfigError):
            Hyperparameters(("a",), ("angle",), np.array([np.nan]))

    def test_label_covariance_raw_round_trip(self):
        k = LabelCovariance(m=2, angles=(0.8,))
        hp = k.hyperparameters()
        assert hp.kinds == ("angle",)
        rebuilt = k.with_hyperparameters(hp.values)
        assert np.allclose(
            label_covariance(rebuilt.angles, 1.0, 2),
            label_covariance(k.angles, 1.0, 2),
            rtol=1e-14,
        )


class TestGrammar:
    def test_round_trips(self):
        for expr in ["SE", "MA3+MA5", "MA5+MA3+NOISE", "SE+PER", "PER+PER"]:
            assert format_kernel(parse_kernel(expr)) == expr

    def test_case_and_whitespace_tolerant(self):
        assert format_kernel(parse_kernel(" ma5 + noise ")) == "MA5+NOISE"

    def test_base_tokens(self):
        assert isinstance(base_kernel("SE"), SquaredExponential)
        assert base_kernel("MA3").nu == 1.5
        assert base_kernel("MA5").nu == 2.5
        assert isinstance(base_kernel("PER"), Periodic)
        assert isinstance(base_kernel("NOISE"), WhiteNoise)

    def test_unknown_token_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel token"):
            parse_kernel("SE+FOO")

    def test_malformed_expression_rejected(self):
        for expr in ["", "SE++MA3", "+SE", "SE+"]:
            with pytest.raises(ConfigError):
                parse_kernel(expr)

    def test_sum_terms_flattens(self):
        k = parse_kernel("SE+MA3+NOISE")
        terms = sum_terms(k)
        assert [t._token() for t in terms] == ["SE", "MA3", "NOISE"]
        assert sum_terms(SquaredExponential()) == [SquaredExponential()]

    def test_operator_sugar(self):
        k = SquaredExponential() + WhiteNoise()
        assert isinstance(k, Sum)
        assert isinstance(SquaredExponential() * Periodic(), Product)


class TestCoerceInputs:
    def test_plain_arrays_pass_through(self):
        x, labels = coerce_inputs(np.array([1.0, 2.0]))
        assert labels is None and x.dtype == float

    def test_labeled_inputs_split(self):
        x, labels = coerce_inputs([LabeledInput(0.5, 2), LabeledInput(1.5, 1)])
        assert np.array_equal(x, [0.5, 1.5])
        assert np.array_equal(labels, [2, 1])

    def test_lists_coerce(self):
        x, labels = coerce_inputs([1, 2, 3])
        assert labels is None and np.array_equal(x, [1.0, 2.0, 3.0])
