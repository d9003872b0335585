"""Multi-start training, LHS design, bounds, and the pairwise kernel search."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from gpprog import (
    CapacitySeries,
    ConfigError,
    DegenerateInputError,
    ExpDegradation,
    Fleet,
    GpModel,
    LabelCovariance,
    Matern,
    NumericalError,
    Product,
    SquaredExponential,
    TrainConfig,
    TrainingError,
    candidate_pairs,
    default_lhs_bounds,
    kernel_search,
    load_csv,
    model_for_series,
    train,
)
from gpprog import gp as gp_module
from gpprog import optimize
from gpprog.kernels import parse_kernel, with_data_scales
from gpprog.meanfn import mean_from_token


def se_sample_series(seed=0, n=60, length_scale=8.0, output_scale=0.05, noise_sd=0.004):
    """Synthetic draw from a known SE process around a constant level."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 100.0, n)
    k = SquaredExponential(output_scale, length_scale)
    gram = k.gram(x) + 1e-12 * np.eye(n)
    f = np.linalg.cholesky(gram) @ rng.standard_normal(n)
    y = 1.0 + f + noise_sd * rng.standard_normal(n)
    return x, y


class TestLhsDesign:
    def test_stratification_per_dimension(self):
        starts = optimize._lhs_design(5, 16, np.tile([0.0, 1.0], (3, 1)))
        assert starts.shape == (16, 3)
        for j in range(3):
            bins = np.floor(starts[:, j] * 16).astype(int)
            assert sorted(bins.tolist()) == list(range(16))

    def test_respects_explicit_bounds(self):
        bounds = np.array([(-3.0, -1.0), (10.0, 20.0)])
        starts = optimize._lhs_design(1, 8, bounds)
        assert starts.shape == (8, 2)
        assert np.all(starts[:, 0] >= -3) and np.all(starts[:, 0] <= -1)
        assert np.all(starts[:, 1] >= 10) and np.all(starts[:, 1] <= 20)

    def test_deterministic_in_seed(self):
        unit = np.tile([0.0, 1.0], (4, 1))
        design = optimize._lhs_design(9, 6, unit)
        assert np.array_equal(design, optimize._lhs_design(9, 6, unit))
        assert not np.array_equal(design, optimize._lhs_design(10, 6, unit))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(n_restarts=0)
        with pytest.raises(ConfigError):
            TrainConfig(max_iterations=0)
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0


class TestDefaultBounds:
    def test_every_kind_gets_bounds(self):
        x = np.linspace(0, 100, 30)
        y = 1.0 - 0.002 * x
        model = model_for_series((x, y), "SE+PER+NOISE", mean_expr="EXPDEG")
        bounds = default_lhs_bounds(model)
        assert bounds.shape == (len(model.opt_vector()), 2)
        assert np.all(bounds[:, 0] < bounds[:, 1])

    def test_length_scales_track_input_range(self):
        x = np.linspace(0, 100, 11)  # spacing 10, so 2*spacing > 0.1*range
        y = 1.0 - 0.002 * x + 0.01 * np.sin(x)
        model = GpModel(Matern(2.5), x, y)
        bounds = default_lhs_bounds(model)
        kinds = model.param_kinds()
        i = kinds.index("log_length_scale")
        assert bounds[i][0] == pytest.approx(math.log(10.0))  # min(10, 20)
        assert bounds[i][1] == pytest.approx(math.log(1000.0))

    def test_dense_sampling_allows_shorter_lengths(self):
        x = np.linspace(0, 100, 1001)  # spacing 0.1
        y = 1.0 + 0.01 * np.sin(x)
        model = GpModel(Matern(2.5), x, y)
        bounds = default_lhs_bounds(model)
        i = model.param_kinds().index("log_length_scale")
        assert bounds[i][0] == pytest.approx(math.log(0.2))

    def test_output_scales_track_target_spread(self):
        x = np.linspace(0, 10, 20)
        y = 5.0 + 2.0 * np.sin(x)
        model = GpModel(SquaredExponential(), x, y)
        bounds = default_lhs_bounds(model)
        y_std = float(np.std(y))
        i = model.param_kinds().index("log_output_scale")
        assert bounds[i][0] == pytest.approx(math.log(0.01 * y_std))
        assert bounds[i][1] == pytest.approx(math.log(10.0 * y_std))

    def test_mean_bounds_cover_plausible_asymptotes(self):
        x = np.linspace(0, 20, 25)
        y = 1.0 - 0.001 * x  # early-life prefix: tiny spread
        model = model_for_series((x, y), "MA3", mean_expr="EXPDEG")
        bounds = default_lhs_bounds(model)
        kinds = model.param_kinds()
        off = kinds.index("mean_offset")
        amp = kinds.index("mean_amplitude")
        # an asymptote well below the observed window must be reachable
        assert bounds[off][0] < 0.6
        assert bounds[amp][0] < -0.3 < 0.3 < bounds[amp][1]


class TestTrain:
    def test_result_never_worse_than_any_start(self):
        x, y = se_sample_series(seed=3)
        model = model_for_series((x, y), "SE")
        result = train(model, TrainConfig(n_restarts=4, seed=0))
        for record in result.restarts:
            assert result.nlml <= record.start_nlml + 1e-9
            assert record.final_nlml <= record.start_nlml + 1e-9
        assert result.nlml == pytest.approx(result.model.nlml(), rel=1e-9)
        assert result.lml == -result.nlml

    def test_recovers_known_se_hyperparameters(self):
        x, y = se_sample_series(seed=12, n=80)
        model = model_for_series((x, y), "SE")
        result = train(model, TrainConfig(n_restarts=6, seed=0))
        raw = result.model.hyperparameters().raw()
        # log-space agreement within ~30%: length scale is well identified
        assert abs(math.log(raw["se.length_scale"] / 8.0)) < 0.3
        assert abs(math.log(raw["se.output_scale"] / 0.05)) < 0.7

    def test_deterministic_given_seed(self):
        x, y = se_sample_series(seed=5)
        model = model_for_series((x, y), "MA5")
        config = TrainConfig(n_restarts=2, seed=42)
        r1 = train(model, config)
        r2 = train(model, config)
        assert r1.nlml == r2.nlml
        assert np.array_equal(r1.model.opt_vector(), r2.model.opt_vector())

    def test_stays_inside_bounds(self):
        x, y = se_sample_series(seed=8)
        model = model_for_series((x, y), "SE+PER")
        config = TrainConfig(n_restarts=3, seed=1)
        result = train(model, config)
        bounds = default_lhs_bounds(model)
        theta = result.model.opt_vector()
        assert np.all(theta >= bounds[:, 0] - 1e-9)
        assert np.all(theta <= bounds[:, 1] + 1e-9)

    def test_extra_starts_are_clipped_and_used(self):
        x, y = se_sample_series(seed=2)
        model = model_for_series((x, y), "SE")
        config = TrainConfig(n_restarts=2, seed=0)
        base = train(model, config)
        wild = np.full(len(model.opt_vector()), 1e6)
        result = train(model, config, extra_starts=[wild, base.model.opt_vector()])
        assert len(result.restarts) == 4
        assert result.nlml <= base.nlml + 1e-12
        # a malformed start is an error, not silently dropped
        with pytest.raises(ConfigError, match=f"{len(wild)} finite values"):
            train(model, config, extra_starts=[wild[:-1]])
        with pytest.raises(ConfigError, match=f"{len(wild)} finite values"):
            train(model, config, extra_starts=[np.full(len(wild), np.nan)])

    def test_restart_records_count_evaluations_and_penalties(self, monkeypatch):
        x, y = se_sample_series(seed=2, n=25)
        model = model_for_series((x, y), "SE", "EXPDEG")
        calls = []
        real_nlml = GpModel.nlml_value_and_gradients

        def counting(self, theta=None):
            calls.append(theta)
            return real_nlml(self, theta)

        monkeypatch.setattr(GpModel, "nlml_value_and_gradients", counting)
        result = train(model, TrainConfig(n_restarts=3, seed=0))
        assert sum(r.evaluations for r in result.restarts) == len(calls)
        assert all(r.evaluations >= 1 and 0 <= r.penalties <= r.evaluations for r in result.restarts)

        # a start that fails numerically is penalized, and the penalty has no
        # gradient, so that run ends where it started
        start = model.opt_vector()

        def failing_at_start(self, theta=None):
            if np.array_equal(theta, start):
                raise NumericalError("exp overflow")
            return real_nlml(self, theta)

        monkeypatch.setattr(GpModel, "nlml_value_and_gradients", failing_at_start)
        result = train(model, TrainConfig(n_restarts=1, seed=0), extra_starts=[start])
        failed = result.restarts[-1]
        assert failed.start_nlml == failed.final_nlml == optimize._PENALTY
        assert failed.penalties == failed.evaluations == 1
        assert result.restarts[0].penalties == 0

    def test_single_point_rejected(self):
        model = GpModel(SquaredExponential(), [1.0], [1.0])
        with pytest.raises(DegenerateInputError):
            train(model)

    def test_all_restarts_failing_raises_with_diagnostics(self, monkeypatch):
        x, y = se_sample_series(seed=1, n=20)
        model = model_for_series((x, y), "SE")
        monkeypatch.setattr(optimize, "_objective", lambda m: lambda theta: (
            optimize._PENALTY, np.zeros(len(theta))
        ))
        with pytest.raises(TrainingError, match="all restarts failed") as info:
            train(model, TrainConfig(n_restarts=2, seed=0))
        assert len(info.value.diagnostics) == 2
        for line in info.value.diagnostics:
            counts = re.search(r"\((\d+) evaluations, (\d+) penalized\)$", line).groups()
            evaluations, penalized = map(int, counts)
            assert evaluations >= 1 and penalized == evaluations


class TestObjective:
    def test_penalizes_nonfinite_regions(self):
        x = np.linspace(0, 10, 8)
        model = GpModel(SquaredExponential(), x, np.sin(x))
        fun = optimize._objective(model)
        value, grads = fun(np.array([800.0, 0.0, 0.0]))  # exp overflow
        assert value == optimize._PENALTY
        assert np.array_equal(grads, np.zeros(3))

    def test_clean_region_returns_true_value(self):
        x = np.linspace(0, 10, 8)
        model = GpModel(SquaredExponential(), x, np.sin(x))
        fun = optimize._objective(model)
        theta = model.opt_vector()
        value, grads = fun(theta)
        assert value == pytest.approx(model.nlml(), rel=1e-12)
        assert np.all(np.isfinite(grads))

    @pytest.mark.parametrize(
        "mean, index, bad",
        [
            (None, 0, -800.0),  # log output scale underflows to zero
            (None, 2, 701.0),  # log noise variance above 700
            (ExpDegradation(1.0, -0.1, 0.01), 5, 100.0),  # a3 * x = 1000 overflows exp
        ],
        ids=["log-underflow", "log-noise-overflow", "expdeg-overflow"],
    )
    def test_penalizes_out_of_range_parameters(self, mean, index, bad):
        x = np.linspace(0, 10, 8)
        model = GpModel(SquaredExponential(), x, np.sin(x), mean=mean)
        theta = model.opt_vector()
        theta[index] = bad
        value, grads = optimize._objective(model)(theta)
        assert value == optimize._PENALTY
        assert np.array_equal(grads, np.zeros(len(theta)))

    def test_duplicate_inputs_take_the_jitter_ladder_unpenalized(self, monkeypatch):
        x = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        model = GpModel(SquaredExponential(), x, np.cos(x), noise_variance=1e-30)
        jitters = []
        real = gp_module.jittered_cholesky

        def recording(a):
            chol, jitter = real(a)
            jitters.append(jitter)
            return chol, jitter

        monkeypatch.setattr(gp_module, "jittered_cholesky", recording)
        value, grads = optimize._objective(model)(model.opt_vector())
        assert jitters and jitters[-1] > 0.0
        assert value < optimize._PENALTY / 2 and math.isfinite(value)
        assert np.all(np.isfinite(grads))

    def test_each_start_is_evaluated_once(self, monkeypatch):
        x, y = se_sample_series(seed=3, n=30)
        model = model_for_series((x, y), "SE")
        config = TrainConfig(n_restarts=3, seed=0)
        evaluated = []
        real_nlml = GpModel.nlml_value_and_gradients

        def counting(self, theta=None):
            evaluated.append(np.array(theta, dtype=float))
            return real_nlml(self, theta)

        run_evals = []
        real_minimize = optimize.minimize

        def recording_minimize(*args, **kwargs):
            result = real_minimize(*args, **kwargs)
            run_evals.append(result.nfev)
            return result

        monkeypatch.setattr(GpModel, "nlml_value_and_gradients", counting)
        monkeypatch.setattr(optimize, "minimize", recording_minimize)
        train(model, config)
        starts = optimize._lhs_design(config.seed, config.n_restarts, default_lhs_bounds(model))
        # each start's score is L-BFGS-B's first evaluation, so nothing else is evaluated
        assert len(run_evals) == len(starts)
        assert len(evaluated) == sum(run_evals)
        for start in starts:
            assert sum(np.array_equal(theta, start) for theta in evaluated) == 1


class TestCandidatePairs:
    def test_default_pairs(self):
        pairs = candidate_pairs(("SE", "MA3", "MA5", "PER"))
        assert len(pairs) == 10
        assert pairs[0] == "SE+SE"
        assert "MA3+MA5" in pairs and "PER+PER" in pairs
        # unordered: MA5+MA3 appears as MA3+MA5 only
        assert "MA5+MA3" not in pairs

    def test_validates_tokens(self):
        with pytest.raises(ConfigError, match="unknown kernel token"):
            candidate_pairs(("SE", "BOGUS"))
        with pytest.raises(ConfigError):
            candidate_pairs(())

    def test_rejects_duplicate_bases(self):
        with pytest.raises(ConfigError, match="duplicate"):
            candidate_pairs(("SE", "SE"))
        with pytest.raises(ConfigError, match="duplicate"):
            candidate_pairs(("se", " SE", "MA3"))

    def test_single_base(self):
        assert candidate_pairs(("SE",)) == ["SE+SE"]


class TestModelForSeries:
    def test_accepts_series_and_tuples(self):
        x = np.linspace(0, 50, 25)
        y = 1.0 - 0.003 * x
        series = CapacitySeries("a", x, y)
        m1 = model_for_series(series, "MA5+MA3")
        m2 = model_for_series((x, y), "MA5+MA3")
        assert m1.nlml() == pytest.approx(m2.nlml(), rel=1e-12)
        assert m1.hyperparameters().names == (
            "ma5.output_scale",
            "ma5.length_scale",
            "ma3.output_scale",
            "ma3.length_scale",
            "noise.variance",
        )

    def test_fleet_c_parameter_order_golden(self):
        # the order of the optimization vector, and the names search.json and
        # model.json carry, for the multi-output model on the bundled fleet
        fleet = load_csv(Path(__file__).resolve().parents[1] / "data" / "c.csv")
        hp = model_for_series(fleet, "MA5+MA3+PER+NOISE", "EXPDEG").hyperparameters()
        assert hp.names == (
            "label.phi_1", "label.phi_2", "label.phi_3", "label.shared_scale",
            "ma5.output_scale", "ma5.length_scale", "ma3.output_scale", "ma3.length_scale",
            "per.output_scale", "per.length_scale", "per.period", "noise.scale",
            "noise.variance", "mean.a1", "mean.a2", "mean.a3",
        )
        assert hp.kinds == (
            "angle", "angle", "angle", "log_tau",
            "log_output_scale", "log_length_scale", "log_output_scale", "log_length_scale",
            "log_output_scale", "log_wiggle", "log_period", "log_noise_scale",
            "log_noise_variance", "mean_offset", "mean_amplitude", "mean_rate",
        )

    def test_mean_token_applies(self):
        x = np.linspace(0, 50, 25)
        y = 1.0 - 0.003 * x
        model = model_for_series((x, y), "SE", mean_expr="ZERO")
        assert type(model.mean).__name__ == "Zero"

    @pytest.mark.parametrize("mean_expr", ["ZERO", "CONST", "EXPDEG"])
    def test_fleet_builds_the_multi_output_model(self, mean_expr):
        cells = tuple(
            CapacitySeries(cid, np.arange(1.0, n + 1.0), 1.0 - (0.01 + 0.002 * i) * np.arange(n))
            for i, (cid, n) in enumerate([("a", 20), ("b", 21), ("c", 22)])
        )
        fleet = Fleet(cells)
        model = model_for_series(fleet, "MA5+MA3", mean_expr)
        x, y, labels = fleet.labeled_arrays()
        kernel = Product(
            LabelCovariance(3, angles=(math.pi / 4,) * 3),
            with_data_scales(parse_kernel("MA5+MA3"), x, y),
        )
        by_hand = GpModel(kernel, x, y, mean=mean_from_token(mean_expr, x, y), labels=labels)
        assert model.hyperparameters().names == by_hand.hyperparameters().names
        assert model.hyperparameters().names[:4] == (
            "label.phi_1", "label.phi_2", "label.phi_3", "label.shared_scale"
        )
        assert np.array_equal(model.labels, labels)
        assert model.nlml() == by_hand.nlml()


class TestPoolMap:
    def test_keeps_order_across_workers(self):
        assert optimize.pool_map(abs, [-3, 1, -2, 5], jobs=2) == [3, 1, 2, 5]

    def test_single_item_runs_in_process(self):
        # a lambda cannot pickle, so this only passes without a worker pool
        assert optimize.pool_map(lambda v: v + 1, [1], jobs=2) == [2]


@pytest.fixture(scope="module")
def series():
    x, y = se_sample_series(seed=21, n=40)
    return CapacitySeries("s", x, np.abs(y) + 0.5)


class TestKernelSearch:
    def test_ranks_all_candidates(self, series):
        config = TrainConfig(n_restarts=1, seed=0, max_iterations=40)
        result = kernel_search(series, bases=("SE", "MA3"), config=config)
        assert len(result.entries) == 3
        assert result.failures == ()
        nlmls = [e.nlml for e in result.entries]
        assert nlmls == sorted(nlmls)
        assert result.best is result.entries[0]
        assert set(e.kernel for e in result.entries) == {"SE+SE", "SE+MA3", "MA3+MA3"}

    def test_deterministic_and_jobs_invariant(self, series):
        config = TrainConfig(n_restarts=1, seed=3, max_iterations=40)
        sequential = kernel_search(series, bases=("SE", "MA3"), config=config)
        parallel = kernel_search(series, bases=("SE", "MA3"), config=config, jobs=2)
        assert [e.kernel for e in sequential.entries] == [e.kernel for e in parallel.entries]
        assert [e.nlml for e in sequential.entries] == [e.nlml for e in parallel.entries]

    def test_failures_are_recorded_not_raised(self, series, monkeypatch):
        real_train = optimize.train

        def flaky_train(model, config, extra_starts=()):
            if "PER" in optimize.kx.format_kernel(model.kernel):
                raise TrainingError("boom")
            return real_train(model, config, extra_starts=extra_starts)

        monkeypatch.setattr(optimize, "train", flaky_train)
        config = TrainConfig(n_restarts=1, seed=0, max_iterations=30)
        result = kernel_search(series, bases=("SE", "PER"), config=config)
        assert [e.kernel for e in result.entries] == ["SE+SE"]
        assert len(result.failures) == 2
        assert all("boom" in msg for _, msg in result.failures)

    def test_all_failures_make_best_raise(self):
        result = optimize.KernelSearchResult(entries=(), failures=(("SE+SE", "x"),))
        with pytest.raises(TrainingError, match="every kernel candidate"):
            result.best

    def test_single_base_gives_one_entry(self, series):
        config = TrainConfig(n_restarts=1, seed=0, max_iterations=30)
        result = kernel_search(series, bases=("SE",), config=config)
        assert [e.kernel for e in result.entries] == ["SE+SE"] and result.failures == ()
        best = result.best
        assert best.lml == -best.nlml and math.isfinite(best.nlml)
        assert set(best.hyperparameters) == {
            "se.length_scale", "se.output_scale", "se_2.length_scale", "se_2.output_scale",
            "noise.variance",
        }


class TestParseIntegration:
    def test_search_candidates_parse(self):
        for expr in candidate_pairs(("SE", "MA3", "MA5", "PER")):
            parse_kernel(expr)
