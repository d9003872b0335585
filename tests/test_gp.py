"""GP regression core: likelihood, gradients, conditioning, decomposition."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from gpprog import (
    BoundsError,
    CapacitySeries,
    ConfigError,
    Constant,
    ContractError,
    ExpDegradation,
    Fleet,
    GpModel,
    LabelCovariance,
    LabeledInput,
    Matern,
    NumericalError,
    Periodic,
    Product,
    SquaredExponential,
    Sum,
    WhiteNoise,
    jittered_cholesky,
    model_for_series,
    parse_kernel,
    synthetic,
)
from gpprog import gp as gp_module

from helpers import central_difference_gradients, dense_oracle, random_problem


class TestAgainstDenseOracle:
    def test_nlml_and_posterior_match_dense_linear_algebra(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            model, x_test = random_problem(rng)
            nlml_ref, mean_ref, var_ref = dense_oracle(model, x_test)
            assert model.nlml() == pytest.approx(nlml_ref, rel=1e-10, abs=1e-10)
            post = model.posterior(x_test)
            assert np.allclose(post.mean, mean_ref, rtol=1e-8, atol=1e-10)
            assert np.allclose(post.variance_latent, var_ref, rtol=1e-8, atol=1e-10)
            assert np.allclose(
                post.variance_noisy, var_ref + model.noise_variance, rtol=1e-8, atol=1e-10
            )

    def test_posterior_with_nonzero_mean(self):
        x = np.linspace(0, 10, 6)
        y = 1.0 - 0.02 * x
        model = GpModel(
            Matern(2.5, 0.1, 4.0), x, y, mean=Constant(0.9), noise_variance=1e-3
        )
        x_test = np.array([2.5, 11.0])
        nlml_ref, mean_ref, var_ref = dense_oracle(model, x_test)
        assert model.nlml() == pytest.approx(nlml_ref, rel=1e-12)
        post = model.posterior(x_test)
        assert np.allclose(post.mean, mean_ref, rtol=1e-10)
        assert np.allclose(post.variance_latent, var_ref, rtol=1e-8, atol=1e-12)


class TestGradients:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            model, _ = random_problem(rng)
            value, grads = model.nlml_value_and_gradients(model.opt_vector())
            assert value == pytest.approx(model.nlml(), rel=1e-12)
            fd = central_difference_gradients(model)
            assert np.allclose(grads, fd, rtol=2e-4, atol=1e-6)

    def test_gradients_cover_noise_and_mean(self):
        x = np.linspace(0, 20, 12)
        y = 1.0 - 0.01 * x + 0.01 * np.sin(x)
        model = GpModel(
            Matern(1.5, 0.2, 5.0),
            x,
            y,
            mean=ExpDegradation(1.0, -0.005, -0.05),
            noise_variance=1e-3,
        )
        names = model.hyperparameters().names
        assert names == (
            "ma3.output_scale",
            "ma3.length_scale",
            "noise.variance",
            "mean.a3",
        )
        _, grads = model.nlml_value_and_gradients(model.opt_vector())
        fd = central_difference_gradients(model)
        assert np.allclose(grads, fd, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("a3", [0.0, 1e-9, -1e-9, -1.0 / 40.0])
    def test_gradients_with_solved_coefficients_match_central_differences(self, a3):
        # criterion 2's check on the reduced vector: the mean's a1 and a2 are
        # solved at every point, so the differences are of the profiled NLML;
        # a3 = 0 and +-1e-9 take the basis's series branch, -1/40 is -1/x_range
        x = np.arange(1.0, 41.0)
        y = 1.0 - 0.002 * x - 5e-5 * x**2 + 0.002 * np.sin(x)
        model = model_for_series((x, y), "MA5+MA3", "EXPDEG")
        theta = model.opt_vector()
        theta[-1] = a3
        value, grads = model.nlml_value_and_gradients(theta)
        solved = model.with_opt_vector(theta)
        assert value == pytest.approx(dense_oracle(solved, x[:1])[0], rel=1e-10)
        fd = central_difference_gradients(solved)
        assert np.allclose(grads, fd, rtol=1e-5, atol=1e-6)
        assert abs(grads[-1]) > 1e-2  # a3's entry is not zero here by accident

    def test_rank_one_basis_gives_a_finite_nlml_and_gradient(self):
        # every input equal: the basis [1, g] has rank one, and any solution
        # with the same mean gives the same NLML, which a3 then does not move
        x = np.full(6, 3.0)
        y = np.array([0.9, 1.0, 0.95, 1.05, 0.97, 1.02])
        model = GpModel(Matern(2.5, 0.5, 2.0), x, y, ExpDegradation(a3=-0.2), 0.01)
        theta = model.opt_vector()
        value, grads = model.nlml_value_and_gradients(theta)
        assert np.isfinite(value) and np.all(np.isfinite(grads))
        solved = model.with_opt_vector(theta)
        assert solved.mean(x) == pytest.approx(np.full(6, y.mean()), rel=1e-12)
        assert value == pytest.approx(dense_oracle(solved, x[:1])[0], rel=1e-10)
        assert grads[-1] == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(grads, central_difference_gradients(solved), rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
    def test_gradients_on_fractional_inputs_match_the_dense_trace(self, labeled):
        # fractional inputs make nearly every pair a distinct key (4,006 keys
        # unlabeled, 4,007 labeled); the gradients summed by key must equal
        # 1/2 tr((A^-1 - alpha alpha^T) dK) on the dense gram
        rng = np.random.default_rng(11)
        n = 90
        x = np.sort(rng.uniform(0.0, 60.0, n))
        kernel = Sum(Product(Matern(2.5, 0.9, 12.0), Periodic(0.7, 1.2, 9.0)), WhiteNoise(0.2))
        labels = inputs = None
        if labeled:
            kernel = Product(LabelCovariance(2, (0.8,)), kernel)
            labels = rng.integers(1, 3, n)
            inputs = [LabeledInput(float(a), int(b)) for a, b in zip(x, labels)]
        model = GpModel(kernel, x, np.sin(x / 5.0) + 0.1 * rng.standard_normal(n),
                        Constant(0.2), noise_variance=0.05, labels=labels)
        value, grads = model.nlml_value_and_gradients(model.opt_vector())
        k, dks = kernel.gram_with_gradients(x if inputs is None else inputs)
        a = k + model.noise_variance * np.eye(n)
        a_inv = np.linalg.inv(a)
        alpha = a_inv @ (model.y - model.mean(x))
        w = a_inv - np.outer(alpha, alpha)
        expected = [0.5 * np.sum(w * dk) for dk in dks]
        expected.append(0.5 * model.noise_variance * np.trace(w))
        assert value == pytest.approx(model.nlml(), rel=1e-12)
        assert np.allclose(grads, expected, rtol=1e-8, atol=1e-9)

    def test_repeated_evaluations_reuse_their_work_arrays(self):
        # after the first evaluation the Cholesky factor is the only new n x n
        # array; allocating every gram and temporary afresh costs page faults on
        # each optimizer step.  The kernel's value and gradients are new arrays
        # over the distinct keys, nearly n^2/2 of them on these fractional inputs
        rng = np.random.default_rng(5)
        n = 200
        x = np.sort(rng.uniform(0.0, 100.0, n))
        inputs = Sum(
            Sum(Matern(2.5, 1.0, 30.0), Matern(1.5, 0.5, 5.0)),
            Sum(Periodic(0.3, 1.0, 20.0), Sum(SquaredExponential(0.5, 10.0), WhiteNoise(0.1))),
        )
        model = GpModel(
            Product(LabelCovariance(2, (0.6,)), inputs),
            x,
            rng.standard_normal(n),
            noise_variance=0.01,
            labels=rng.integers(1, 3, n),
        )
        theta = model.opt_vector()
        first = model.nlml_value_and_gradients(theta)
        tracemalloc.start()
        try:
            model.nlml_value_and_gradients(theta + 0.01)
            again = model.nlml_value_and_gradients(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_keys = len(model._keys[0].d)
        assert peak < 3 * n * n * 8 + (model.kernel.n_params() + 4) * n_keys * 8
        assert again[0] == first[0] and np.array_equal(again[1], first[1])

    def test_one_step_on_fractional_inputs_holds_a_few_arrays_per_key(self):
        # 300 fractional inputs give 44,851 distinct keys, and a step evaluates
        # the kernel and its 4 gradients on all of them at once; its peak,
        # while the two Matern terms are summed, is 8 arrays of that length
        # (2.87 MB), and later the n x n factor with 5 of them stays below that
        rng = np.random.default_rng(0)
        n = 300
        x = np.sort(rng.uniform(0.0, 200.0, n))
        y = 1.0 - 0.001 * x + 0.01 * np.sin(x / 7.0) + 0.002 * rng.standard_normal(n)
        model = model_for_series((x, y), "MA5+MA3")
        theta = model.opt_vector()
        model.nlml_value_and_gradients(theta)  # computes the keys
        n_keys = len(model._keys[0].d)
        tracemalloc.start()
        try:
            model.nlml_value_and_gradients(theta + 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_keys == n * (n - 1) // 2 + 1
        assert peak < 9 * n_keys * 8


class TestConditioningLimits:
    def test_interpolates_training_data_at_tiny_noise(self):
        x = np.linspace(0, 10, 8)
        y = np.sin(x / 2)
        model = GpModel(SquaredExponential(1.0, 3.0), x, y, noise_variance=1e-12)
        post = model.posterior(x)
        assert np.allclose(post.mean, y, atol=1e-6)
        assert np.all(post.variance_latent < 1e-6)

    def test_reverts_to_prior_far_from_data(self):
        mean_value = 0.85
        kernel = Matern(2.5, 0.3, 2.0)
        x = np.linspace(0, 5, 6)
        y = mean_value + 0.1 * np.sin(x)
        model = GpModel(kernel, x, y, mean=Constant(mean_value), noise_variance=1e-4)
        far = np.array([500.0])
        post = model.posterior(far)
        assert post.mean[0] == pytest.approx(mean_value, rel=1e-6)
        assert post.variance_latent[0] == pytest.approx(0.3**2, rel=1e-6)

    def test_posterior_variance_shrinks_near_data(self):
        x = np.linspace(0, 10, 10)
        model = GpModel(SquaredExponential(1.0, 2.0), x, np.cos(x), noise_variance=1e-4)
        post = model.posterior(np.array([5.0, 30.0]))
        assert post.variance_latent[0] < post.variance_latent[1]


@pytest.fixture(scope="module")
def trained_like_model():
    rng = np.random.default_rng(17)
    x = np.linspace(0, 80, 45)
    y = 1.0 - 0.003 * x + 0.02 * np.sin(x / 4) + 0.005 * rng.standard_normal(45)
    kernel = Sum(Matern(2.5, 0.05, 30.0), Matern(1.5, 0.02, 4.0))
    return GpModel(kernel, x, y, mean=Constant(float(y.mean())), noise_variance=1e-5)


class TestDecomposition:
    def test_component_means_sum_to_total(self, trained_like_model):
        model = trained_like_model
        # include training inputs themselves: additivity must hold there too
        grid = np.concatenate([model.x[::5], np.linspace(0, 120, 61)])
        post = model.decompose_posterior(grid)
        assert [c.name for c in post.components] == ["MA5", "MA3", "noise"]
        mean_sum = model.mean(grid) + sum(c.mean for c in post.components)
        assert np.max(np.abs(mean_sum - post.mean)) < 1e-8
        # marginal component variances are individually valid but do not
        # add up: cross-covariances between components are real
        for c in post.components:
            assert np.all(c.variance >= 0.0)

    def test_noise_component_is_flat(self, trained_like_model):
        post = trained_like_model.decompose_posterior(np.linspace(0, 50, 9))
        noise = post.components[-1]
        assert np.array_equal(noise.mean, np.zeros(9))
        assert np.allclose(noise.variance, trained_like_model.noise_variance)

    def test_single_term_decomposition_matches_posterior(self):
        x = np.linspace(0, 10, 7)
        model = GpModel(SquaredExponential(0.5, 2.0), x, np.sin(x), noise_variance=1e-3)
        grid = np.linspace(0, 12, 13)
        post = model.decompose_posterior(grid)
        assert len(post.components) == 2  # SE + implicit noise
        se = post.components[0]
        assert np.allclose(se.mean + model.mean(grid), post.mean, atol=1e-12)
        assert np.allclose(se.variance, post.variance_latent, atol=1e-12)

    @pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
    def test_whole_kernel_moments_equal_posterior(self, labeled):
        # two cells observed on the same cycles, so inputs with different
        # labels coincide in x, and a grid that repeats some of them
        rng = np.random.default_rng(3)
        x = np.tile(np.arange(0.0, 12.0), 2)
        y = np.sin(x / 3.0) + 0.1 * rng.standard_normal(len(x))
        grid = np.concatenate([x[:5], np.linspace(-2.0, 20.0, 23)])
        smooth = Matern(2.5, 0.8, 6.0)
        labels = grid_labels = None
        if labeled:
            smooth = Product(LabelCovariance(2, (0.7,)), smooth)
            labels = np.repeat([1, 2], 12)
            grid_labels = rng.integers(1, 3, len(grid))
        kernel = Sum(smooth, Sum(Periodic(0.3, 1.0, 4.0), WhiteNoise(0.2)))
        model = GpModel(kernel, x, y, Constant(0.1), noise_variance=1e-3, labels=labels)
        post = model.posterior(grid, grid_labels)
        dec = model.decompose_posterior(grid, grid_labels)
        for field in ("mean", "variance_latent", "variance_noisy"):
            assert np.allclose(getattr(dec, field), getattr(post, field), rtol=0.0, atol=1e-12)
        mean_sum = model.mean(grid) + sum(c.mean for c in dec.components)
        assert np.allclose(mean_sum, post.mean, rtol=0.0, atol=1e-12)

    def test_explicit_noise_summand_stays_in_latent_sum(self):
        x = np.linspace(0, 10, 9)
        y = np.sin(x)
        model = GpModel(
            Sum(SquaredExponential(1.0, 2.0), WhiteNoise(0.1)), x, y, noise_variance=1e-4
        )
        post = model.decompose_posterior(x)  # grid == training inputs
        names = [c.name for c in post.components]
        assert names == ["SE", "NOISE", "noise"]
        mean_sum = model.mean(x) + sum(c.mean for c in post.components)
        assert np.max(np.abs(mean_sum - post.mean)) < 1e-10

    def test_duplicate_terms_get_numbered_names(self):
        x = np.linspace(0, 4, 5)
        model = GpModel(parse_kernel("MA3+MA3"), x, np.sin(x), noise_variance=1e-3)
        names = [c.name for c in model.decompose_posterior(x).components]
        assert names == ["MA3", "MA3_2", "noise"]

    def test_decomposition_memory_does_not_grow_with_grid_times_data(self):
        # 20,000 grid points and n = 128: a whole-grid cross-covariance and its
        # v = L^-1 k* are 20 MB each, while blocks keep the peak to the length-N
        # outputs and a few hundred kilobytes of scratch
        x, y = synthetic.cell_b_like(128)
        model = model_for_series((x, y), "MA5+MA3", "EXPDEG")
        model.nlml()  # factorize first: only the conditioning is measured
        grid = np.arange(129.0, 20129.0)
        tracemalloc.start()
        try:
            post = model.decompose_posterior(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) > 100 * gp_module.POSTERIOR_BLOCK
        assert peak < 8e6
        assert np.all(np.isfinite(post.mean)) and np.all(post.variance_latent >= 0.0)

    def test_product_kernel_cannot_be_decomposed(self):
        x = np.linspace(0, 4, 5)
        model = GpModel(
            Product(SquaredExponential(), Matern()), x, np.sin(x), noise_variance=1e-3
        )
        with pytest.raises(ContractError, match="product kernel"):
            model.decompose_posterior(x)


class TestNumerics:
    def test_jittered_cholesky_clean_matrix_uses_no_jitter(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        chol, jitter = jittered_cholesky(a)
        assert jitter == 0.0
        assert np.allclose(chol @ chol.T, a)

    def test_jittered_cholesky_rescues_near_singular(self):
        v = np.array([1.0, 1.0, 1.0])
        a = np.outer(v, v)  # rank one
        chol, jitter = jittered_cholesky(a)
        assert jitter > 0.0
        assert np.allclose(chol @ chol.T, a + jitter * np.eye(3), atol=1e-12)

    def test_jittered_cholesky_rejects_indefinite(self):
        a = np.array([[1.0, 0.0], [0.0, -5.0]])
        with pytest.raises(NumericalError, match="not positive definite"):
            jittered_cholesky(a)

    def test_jittered_cholesky_rejects_nonfinite(self):
        with pytest.raises(NumericalError, match="non-finite"):
            jittered_cholesky(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "entry, value",
        [((0, 3), np.nan), ((2, 2), np.inf), ((3, 1), np.nan)],
        ids=["nan-upper-only", "inf-diagonal", "nan-lower"],
    )
    def test_jittered_cholesky_checks_entries_dpotrf_lets_through(self, entry, value):
        # dpotrf reads the lower triangle only, factors +inf on the diagonal
        # with info 0 and passes NaN through; each must still be refused
        a = np.eye(4) + 0.1
        a[entry] = value
        with pytest.raises(NumericalError, match="^covariance matrix contains non-finite entries$"):
            jittered_cholesky(a)

    def test_jittered_cholesky_reports_the_exhausted_ladder(self):
        a = np.diag([2.0, 1.0, -1.0])
        message = (r"^covariance not positive definite even with jitter 6\.667e-04; "
                   r"eigenvalue range \[-1\.000e\+00, 2\.000e\+00\]$")
        with pytest.raises(NumericalError, match=message):
            jittered_cholesky(a)

    def test_jittered_cholesky_zero_matrix_raises(self):
        # a zero mean diagonal leaves no jitter to try
        with pytest.raises(NumericalError, match="not positive definite"):
            jittered_cholesky(np.zeros((3, 3)))

    def test_jittered_cholesky_finite_matrix_is_factored_as_is(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((30, 30))
        a = b @ b.T + 30.0 * np.eye(30)
        chol, jitter = jittered_cholesky(a)
        assert jitter == 0.0
        assert np.array_equal(chol, lapack.dpotrf(a, lower=1, clean=1)[0])

    def test_checked_variance_rejects_large_negative(self):
        x = np.linspace(0, 1, 3)
        model = GpModel(SquaredExponential(), x, x)
        # large negative variance cannot arise from the public API; poke the guard
        from gpprog.gp import _checked_variance

        assert np.array_equal(
            _checked_variance(np.array([-1e-12, 0.5]), 1.0), np.array([0.0, 0.5])
        )
        with pytest.raises(NumericalError, match="posterior variance"):
            _checked_variance(np.array([-1.0]), 1.0)
        assert model is not None


class TestValidationAndPlumbing:
    def test_labels_outside_the_label_covariance_raise(self):
        # training labels are checked once, with the model's keys; every
        # prediction request's labels are checked again
        x = np.arange(6.0)
        kernel = Product(LabelCovariance(2, (0.6,)), Matern(2.5))
        bad = GpModel(kernel, x, np.sin(x), labels=[1, 2, 3, 1, 2, 1])
        with pytest.raises(BoundsError, match=r"labels \[3\] outside 1..2"):
            bad.nlml_value_and_gradients(bad.opt_vector())
        with pytest.raises(BoundsError, match=r"labels \[3\] outside 1..2"):
            bad.nlml()
        good = GpModel(kernel, x, np.sin(x), labels=[1, 2, 2, 1, 2, 1])
        assert good._keys[0].pairs is not None
        good.posterior([1.0, 2.5], [2, 1])
        with pytest.raises(BoundsError, match=r"labels \[0\] outside 1..2"):
            good.posterior([1.0, 2.5], [1, 0])

    def test_bad_training_data_rejected(self):
        k = SquaredExponential()
        with pytest.raises(ConfigError):
            GpModel(k, [[0.0]], [1.0])
        with pytest.raises(ConfigError):
            GpModel(k, [0.0, 1.0], [1.0])
        with pytest.raises(ConfigError):
            GpModel(k, [], [])
        with pytest.raises(ConfigError):
            GpModel(k, [0.0], [np.inf])
        with pytest.raises(ConfigError):
            GpModel(k, [0.0], [1.0], noise_variance=0.0)

    def test_training_arrays_are_copies(self):
        x = np.array([0.0, 1.0])
        y = np.array([1.0, 0.9])
        model = GpModel(SquaredExponential(), x, y)
        x[0] = 50.0
        assert model.x[0] == 0.0
        with pytest.raises(ValueError):
            model.y[0] = 2.0

    def test_opt_vector_round_trip(self):
        x = np.linspace(0, 10, 6)
        model = GpModel(
            Sum(Matern(2.5, 1.0, 3.0), WhiteNoise(0.2)),
            x,
            np.sin(x),
            mean=ExpDegradation(1.0, -0.002, -0.01),
            noise_variance=1e-3,
        )
        theta = model.opt_vector()
        clone = model.with_opt_vector(theta)
        assert np.array_equal(clone.opt_vector(), theta)
        assert clone.noise_variance == pytest.approx(model.noise_variance, rel=1e-12)
        # the clone's a1 and a2 are solved, so it fits no worse than the model's own
        assert clone.nlml() <= model.nlml()
        assert clone.with_opt_vector(theta).nlml() == pytest.approx(clone.nlml(), rel=1e-12)

    def test_with_opt_vector_moves_parameters(self):
        x = np.linspace(0, 10, 6)
        model = GpModel(SquaredExponential(1.0, 2.0), x, np.sin(x), noise_variance=1e-2)
        theta = model.opt_vector()
        theta[-1] = math.log(0.5)
        moved = model.with_opt_vector(theta)
        assert moved.noise_variance == pytest.approx(0.5)
        assert model.noise_variance == pytest.approx(1e-2)  # original untouched

    def test_with_opt_vector_length_check(self):
        x = np.linspace(0, 10, 6)
        model = GpModel(SquaredExponential(), x, np.sin(x))
        with pytest.raises(ConfigError, match="expected 3"):
            model.with_opt_vector([0.0])

    def test_with_opt_vector_noise_overflow(self):
        x = np.linspace(0, 10, 6)
        model = GpModel(SquaredExponential(), x, np.sin(x))
        theta = model.opt_vector()
        theta[-1] = 720.0
        with pytest.raises(NumericalError):
            model.with_opt_vector(theta)

    def test_param_ordering_kernel_noise_mean(self):
        x = np.linspace(0, 10, 6)
        model = GpModel(SquaredExponential(), x, np.sin(x), mean=ExpDegradation(0.6, -0.01, -0.1))
        assert model.hyperparameters().names == (
            "se.output_scale",
            "se.length_scale",
            "noise.variance",
            "mean.a3",
        )

    def test_trained_model_shares_pair_keys_and_matches_fresh_build(self):
        x = np.arange(1.0, 31.0)
        y = 1.0 - 0.01 * x + 0.01 * np.sin(x)
        model = GpModel(parse_kernel("MA5+MA3"), x, y, mean=ExpDegradation(1.0, -0.004, -0.02))
        theta = model.opt_vector() + 0.1
        model.nlml_value_and_gradients(theta)  # as training does, computing the keys
        trained = model.with_opt_vector(theta)
        assert trained._keys is model._keys
        assert trained._layout is model._layout
        fresh = GpModel(trained.kernel, x, y, mean=trained.mean,
                        noise_variance=trained.noise_variance)
        grid = np.linspace(0.0, 45.0, 91)
        a, b = trained.posterior(grid), fresh.posterior(grid)
        for field in ("mean", "variance_latent", "variance_noisy"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        own = trained.opt_vector()
        assert trained.nlml_value_and_gradients(own)[0] == fresh.nlml_value_and_gradients(own)[0]
        # the parent still factorizes correctly after sharing its scratch buffer
        assert model.nlml() == GpModel(model.kernel, x, y, mean=model.mean).nlml()

    def test_hyperparameters_raw_includes_real_noise_variance(self):
        x = np.linspace(0, 10, 6)
        model = GpModel(SquaredExponential(), x, np.sin(x), noise_variance=1e-3)
        raw = model.hyperparameters().raw()
        assert raw["noise.variance"] == pytest.approx(1e-3, rel=1e-12)


class TestLabeledModels:
    @pytest.fixture()
    def fleet(self):
        cells = []
        rng = np.random.default_rng(23)
        for cid in ("c1", "c2"):
            x = np.linspace(0, 50, 12)
            y = 1.0 - 0.004 * x + 0.01 * rng.standard_normal(12)
            cells.append(CapacitySeries(cid, x, y))
        return Fleet(tuple(cells))

    def test_fleet_model_builds_product_kernel(self, fleet):
        model = model_for_series(fleet, "MA5")
        assert isinstance(model.kernel, Product)
        assert isinstance(model.kernel.left, LabelCovariance)
        assert model.labels is not None
        nlml_ref, _, _ = dense_oracle(model, model.x[:1], model.labels[:1])
        assert model.nlml() == pytest.approx(nlml_ref, rel=1e-10)

    def test_labeled_prediction_requires_labels(self, fleet):
        model = model_for_series(fleet, "MA5")
        with pytest.raises(ConfigError, match="pass labels"):
            model.posterior(np.array([10.0]))
        post = model.posterior(np.array([10.0, 10.0]), labels=np.array([1, 2]))
        assert post.mean.shape == (2,)

    def test_unlabeled_model_rejects_labels(self):
        x = np.linspace(0, 5, 5)
        model = GpModel(SquaredExponential(), x, np.sin(x))
        with pytest.raises(ConfigError, match="without labels"):
            model.posterior(x, labels=np.ones(5, dtype=int))

    def test_correlated_fleet_shares_information(self, fleet):
        # a strongly correlated companion tightens the posterior vs. labels alone
        x, y, labels = fleet.labeled_arrays()

        def variance(label_cov):
            kernel = Product(label_cov, Matern(2.5, 0.1, 20.0))
            model = GpModel(kernel, x, y, Constant(float(np.mean(y))), labels=labels)
            return model.posterior(np.array([60.0]), labels=np.array([1])).variance_latent[0]

        strong = variance(LabelCovariance(2, angles=(0.05,)))
        weak = variance(LabelCovariance(2, angles=(math.pi / 2 - 0.01,)))
        assert strong < weak


class TestPosteriorContainer:
    def test_bounds_default_include_noise(self):
        x = np.linspace(0, 10, 6)
        model = GpModel(SquaredExponential(1.0, 2.0), x, np.sin(x), noise_variance=0.04)
        post = model.posterior(np.array([5.0]))
        lower, upper = post.bounds()
        assert upper[0] - lower[0] == pytest.approx(4 * post.sigma_noisy[0])
        assert post.sigma_noisy[0] > post.sigma_latent[0]
