"""Metrics, end-of-life detection, baselines, and rolling evaluations."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpprog import (
    BoundsError,
    CapacitySeries,
    ConfigError,
    Constant,
    DegenerateInputError,
    EolForecast,
    ExpDegradation,
    Fleet,
    GpModel,
    Matern,
    SquaredExponential,
    TrainConfig,
    TrainingError,
    UndefinedMetricError,
    Zero,
    ar_baseline,
    ar_lookahead,
    evaluate,
    evaluate_mogp,
    find_eol,
    forecast_eol,
    forecast_grid,
    load_csv,
    lookahead,
    model_for_series,
    rmse_eol,
    rmse_q,
    rolling_origins,
    true_end_of_life,
)
from gpprog import prognostics
from gpprog.prognostics import _backtest
from gpprog.synthetic import cell_b_like

from helpers import brute_force_eol, monotone_benchmark

DATA = Path(__file__).resolve().parents[1] / "data"


class TestRmseQ:
    def test_identical_is_zero(self):
        assert rmse_q([1.0, 0.9, 0.8], [1.0, 0.9, 0.8]) == 0.0

    def test_constant_offset(self):
        assert rmse_q([1.25, 1.25], [1.0, 1.0]) == 0.25

    def test_hand_case(self):
        value = rmse_q([0.9, 0.8], [1.0, 1.0])
        assert abs(value - math.sqrt((0.01 + 0.04) / 2)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError, match="shape mismatch"):
            rmse_q([1.0], [1.0, 2.0])

    def test_empty_window(self):
        with pytest.raises(DegenerateInputError):
            rmse_q([], [])

    def test_nonfinite(self):
        with pytest.raises(UndefinedMetricError):
            rmse_q([np.nan], [1.0])


class TestRmseEol:
    def test_all_equal_truth_is_zero(self):
        assert rmse_eol([100.0, 100.0, 100.0], 100.0) == 0.0

    def test_single_offset(self):
        assert rmse_eol([110.0], 100.0) == 10.0

    def test_hand_case(self):
        assert abs(rmse_eol([90.0, 110.0], 100.0) - 10.0) < 1e-12

    def test_all_infinite_is_undefined(self):
        with pytest.raises(UndefinedMetricError, match="infinite"):
            rmse_eol([math.inf, math.inf], 100.0)

    def test_partial_nonfinite_without_clamp(self):
        with pytest.raises(UndefinedMetricError):
            rmse_eol([90.0, math.inf], 100.0)

    def test_nonfinite_truth(self):
        with pytest.raises(UndefinedMetricError):
            rmse_eol([90.0], math.inf)

    def test_empty_predictions(self):
        with pytest.raises(DegenerateInputError):
            rmse_eol([], 100.0)


class TestFindEol:
    def test_linear_crossing(self):
        xs = np.arange(0.0, 101.0, 20.0)
        values = 1.0 - 0.005 * xs
        assert find_eol(xs, values, 0.7, 0.0) == pytest.approx(60.0, abs=1e-9)

    def test_never_below_is_infinite(self):
        xs = np.arange(0.0, 50.0, 5.0)
        assert find_eol(xs, np.full_like(xs, 0.9), 0.7, 0.0) == math.inf

    def test_first_crossing_wins(self):
        xs = np.array([0.0, 40.0, 60.0, 80.0, 100.0])
        values = np.array([0.9, 0.65, 0.85, 0.6, 0.5])
        got = find_eol(xs, values, 0.7, 0.0)
        assert got < 40.0  # interpolated on the way down to the x=40 dip
        expected = 0.0 + (0.9 - 0.7) / (0.9 - 0.65) * 40.0
        assert got == pytest.approx(expected, abs=1e-9)

    def test_snaps_when_already_below_at_first_point(self):
        xs = np.array([0.0, 10.0, 20.0])
        values = np.array([0.6, 0.55, 0.5])
        assert find_eol(xs, values, 0.7, -5.0) == 0.0

    def test_crossing_before_start_snaps_forward(self):
        xs = np.array([0.0, 10.0])
        values = np.array([0.8, 0.6])
        # interpolated crossing at 5 is not after start_x=7; snap to grid
        assert find_eol(xs, values, 0.7, 7.0) == 10.0

    def test_points_at_or_before_start_ignored(self):
        xs = np.array([0.0, 10.0, 20.0, 30.0])
        values = np.array([0.5, 0.9, 0.8, 0.6])
        got = find_eol(xs, values, 0.7, 10.0)
        assert got == pytest.approx(25.0, abs=1e-9)

    def test_empty_curve(self):
        assert find_eol([], [], 0.7, 0.0) == math.inf

    def test_validation(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            find_eol([0.0, 0.0, 1.0], [1.0, 0.9, 0.8], 0.7, 0.0)
        with pytest.raises(ConfigError, match="equal-length"):
            find_eol([0.0, 1.0], [1.0], 0.7, 0.0)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, math.nan])
    def test_threshold_validation(self, threshold):
        with pytest.raises(ConfigError, match="threshold"):
            find_eol([0.0, 1.0], [1.0, 0.5], threshold, 0.0)

    def test_random_curves_against_brute_force(self):
        rng = np.random.default_rng(31)
        threshold = 0.7
        n_inf = 0
        for _ in range(100):
            n_seg = int(rng.integers(3, 30))
            xs = np.cumsum(rng.uniform(0.5, 5.0, size=n_seg + 1))
            values = np.empty(n_seg + 1)
            values[0] = rng.uniform(0.75, 1.1)  # start above threshold
            values[1:] = rng.uniform(0.4, 1.1, size=n_seg)
            start_x = float(xs[0])
            got = find_eol(xs, values, threshold, start_x)
            expected = brute_force_eol(xs, values, threshold, start_x)
            if math.isinf(expected):
                n_inf += 1
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expected, abs=1e-6)
                # first-crossing property: above threshold strictly before
                probe = np.linspace(start_x, got, 500)[1:-1]
                assert np.all(np.interp(probe, xs, values) > threshold)
                assert np.interp(got, xs, values) == pytest.approx(threshold, abs=1e-9)
        assert 0 < n_inf < 100  # both branches exercised


class TestEolForecastContainer:
    def test_valid_construction(self):
        f = EolForecast(c=10, current_x=50.0, threshold=0.7, eol_mean=80.0,
                        eol_lower=70.0, eol_upper=math.inf)
        assert f.eol_upper == math.inf and f.c == 10

    def test_interval_ordering_enforced(self):
        from gpprog import NumericalError

        with pytest.raises(NumericalError, match="out of order"):
            EolForecast(c=1, current_x=0.0, threshold=0.7, eol_mean=50.0,
                        eol_lower=60.0, eol_upper=70.0)

    def test_estimates_must_lie_ahead(self):
        from gpprog import NumericalError

        with pytest.raises(NumericalError, match="not beyond"):
            EolForecast(c=1, current_x=100.0, threshold=0.7, eol_mean=90.0,
                        eol_lower=90.0, eol_upper=90.0)


class TestForecastGrid:
    def test_whole_cycle_training_inputs_step_by_cycle(self):
        grid = forecast_grid(100.0, 110.5, np.arange(1.0, 101.0))
        assert np.array_equal(grid, 100.0 + np.arange(11.0))

    def test_fractional_training_input_gives_dense_grid(self):
        grid = forecast_grid(10.0, 20.0, np.array([1.0, 2.0, 2.5, 10.0]))
        assert len(grid) == 200
        assert grid[0] == 10.0 and grid[-1] == 20.0

    def test_horizon_must_be_ahead(self):
        with pytest.raises(ConfigError):
            forecast_grid(10.0, 10.0, np.arange(1.0, 11.0))


class TestForecastEol:
    def make_decaying_model(self):
        x = np.arange(0.0, 60.0)
        mean = ExpDegradation(a1=0.55, a2=0.45, a3=-0.01)
        y = mean(x)
        return GpModel(Matern(2.5, 0.01, 30.0), x, y, mean=mean, noise_variance=1e-6)

    def test_interval_brackets_mean(self):
        model = self.make_decaying_model()
        forecast = forecast_eol(model, 0.7, horizon_x=400.0)
        assert forecast.eol_lower <= forecast.eol_mean <= forecast.eol_upper
        assert forecast.current_x == 59.0
        # mean curve tracks the decaying prior mean; crossing is where
        # 0.55 + 0.45 exp(-0.01 x) = 0.7
        expected = -100.0 * math.log(0.15 / 0.45)
        assert forecast.eol_mean == pytest.approx(expected, abs=1.0)

    def test_no_crossing_is_infinite(self):
        x = np.arange(0.0, 30.0)
        y = np.full(30, 0.95)
        model = GpModel(
            SquaredExponential(0.001, 10.0),
            x,
            y,
            mean=type(self.make_decaying_model().mean)(0.95, 0.0, -0.001),
            noise_variance=1e-8,
        )
        forecast = forecast_eol(model, 0.7, horizon_x=100.0)
        assert math.isinf(forecast.eol_mean)
        assert math.isinf(forecast.eol_upper)

    def test_long_grid_memory_is_linear(self):
        # a 1,700-cycle life observed every 10th cycle, forecast at cycle
        # resolution for 20,000 cycles; one 20,001 x 20,001 float64 array is 3.2 GB
        series = CapacitySeries.from_raw("B1", *cell_b_like(n_cycles=1700))
        x, y = series.cycles[9::10], series.capacities[9::10]
        c = 0.25 / (math.e**1.2 - 1.0)  # the generator's fade curve
        mean = ExpDegradation(1.0 + c, -c, 1.2 / 1700)
        model = GpModel(Matern(2.5, 0.02, 200.0) + Matern(1.5, 0.01, 40.0), x, y, mean, 1e-4)
        horizon_x = x[-1] + 20_000.0
        tracemalloc.start()
        try:
            forecast = forecast_eol(model, 0.7, horizon_x)
            post = model.decompose_posterior(forecast_grid(x[-1], horizon_x, x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e9
        assert len(post.x) == 20_001 and len(post.components) == 3
        # the fade curve crosses 0.7 at 1700 / 1.2 * log(1 + 0.3 / c), about 1885
        assert forecast.eol_lower <= forecast.eol_mean <= forecast.eol_upper
        assert forecast.eol_mean == pytest.approx(1885.0, abs=25.0)

    def make_two_cell_model(self):
        cells = tuple(
            CapacitySeries(cid, np.arange(0.0, 10.0), np.linspace(1.0, 0.9, 10))
            for cid in ("a", "b")
        )
        return model_for_series(Fleet(cells), "MA5")

    def test_multi_output_model_requires_label(self):
        model = self.make_two_cell_model()
        with pytest.raises(ConfigError, match="target label"):
            forecast_eol(model, 0.7, horizon_x=50.0)

    def test_single_output_model_rejects_label(self):
        model = self.make_decaying_model()
        with pytest.raises(ConfigError, match="target label"):
            forecast_eol(model, 0.7, horizon_x=400.0, label=1)

    def test_label_without_training_inputs_is_out_of_bounds(self):
        model = self.make_two_cell_model()
        with pytest.raises(BoundsError, match="target label 3"):
            forecast_eol(model, 0.7, horizon_x=50.0, label=3)

    def test_fleet_target_stamps_its_training_count(self):
        cells = tuple(
            CapacitySeries(cid, np.arange(0.0, n), np.linspace(1.0, 0.9, n))
            for cid, n in (("a", 10), ("b", 7))
        )
        model = model_for_series(Fleet(cells), "MA5")
        forecasts = [forecast_eol(model, 0.7, horizon_x=50.0, label=label) for label in (1, 2)]
        assert [(f.c, f.current_x) for f in forecasts] == [(10, 9.0), (7, 6.0)]


def linearish_series(n=32, slope=-0.012, noise=0.0, seed=0, cell_id="L"):
    x = np.arange(1.0, n + 1.0)
    y = 1.0 + slope * (x - 1.0)
    if noise:
        y = y + noise * np.random.default_rng(seed).standard_normal(n)
    return CapacitySeries(cell_id, x, y)


class TestArBaseline:
    def test_exact_on_linear_series(self):
        series = linearish_series(n=20, slope=-0.01)
        forecasts = ar_baseline(series, order=3, horizon=5)
        expected = 1.0 - 0.01 * (np.arange(20, 25))
        assert np.allclose(forecasts, expected, atol=1e-9)

    def test_exact_on_constant_series(self):
        series = CapacitySeries("c", np.arange(1.0, 13.0), np.full(12, 0.9))
        assert np.allclose(ar_baseline(series, order=4, horizon=6), 0.9, atol=1e-9)

    def test_noisy_line_fits_every_lag_window(self):
        # fitting only the last `order` windows leaves order equations for
        # order + 1 unknowns; the exact interpolant's iterates explode (~1e5)
        series = linearish_series(n=60, noise=0.002, seed=3)
        forecasts = ar_baseline(series, order=10, horizon=40)
        line = 1.0 - 0.012 * (np.arange(61.0, 101.0) - 1.0)
        assert np.max(np.abs(forecasts - line)) < 0.01

    def test_insufficient_history(self):
        series = linearish_series(n=7)
        with pytest.raises(DegenerateInputError, match="needs 8 points"):
            ar_baseline(series, order=4, horizon=2)

    def test_validation(self):
        series = linearish_series(n=20)
        with pytest.raises(ConfigError):
            ar_baseline(series, order=0, horizon=1)
        with pytest.raises(ConfigError):
            ar_baseline(series, order=2, horizon=0)

    def test_ar_lookahead_near_exact_on_linear_data(self):
        series = linearish_series(n=30)
        result = ar_lookahead(series, order=3, horizons=(1, 5), start_fraction=0.4)
        assert set(result.rmse) == {1, 5}
        assert result.rmse[1] < 1e-8 and result.rmse[5] < 1e-8
        assert all(math.isnan(r.sigma) for r in result.rows)
        assert result.failures == ()

    def test_ar_lookahead_records_insufficient_history_origins(self):
        series = linearish_series(n=24)
        # order 10 needs 20 points; origins below c=20 fail and are recorded
        result = ar_lookahead(series, order=10, horizons=(1,), start_fraction=0.5)
        assert len(result.failures) > 0
        assert all("autoregression" in msg for _, msg in result.failures)


class TestLookahead:
    def test_rows_align_with_future_observations(self):
        series = linearish_series(n=26, noise=0.0005, seed=2)
        config = TrainConfig(n_restarts=1, seed=0, max_iterations=60)
        result = lookahead(
            series, kernel_expr="MA5", horizons=(1, 4), start_fraction=0.5,
            config=config,
        )
        n, first = len(series), math.ceil(0.5 * len(series))
        for horizon in (1, 4):
            rows = [r for r in result.rows if r.horizon == horizon]
            expected_cs = [c for c in range(first, n) if c - 1 + horizon < n]
            assert [r.c for r in rows] == expected_cs
            for r in rows:
                idx = r.c - 1 + horizon
                assert r.target_x == series.cycles[idx]
                assert r.actual == series.capacities[idx]
            assert result.skipped[horizon] == (n - first) - len(expected_cs)
        assert set(result.rmse) == {1, 4}
        # near-linear data forecast by a smooth kernel: small short-horizon error
        assert result.rmse[1] < 0.01

    def test_longer_horizons_are_harder(self):
        series = monotone_benchmark(n_points=40)
        config = TrainConfig(n_restarts=1, seed=0, max_iterations=60)
        result = lookahead(
            series, kernel_expr="MA5", horizons=(1, 10), start_fraction=0.5,
            config=config,
        )
        assert result.rmse[10] > result.rmse[1]

    def test_horizon_validation(self):
        series = linearish_series()
        with pytest.raises(ConfigError, match="duplicate"):
            lookahead(series, horizons=(5, 5))
        with pytest.raises(ConfigError, match=">= 1"):
            lookahead(series, horizons=(0,))
        with pytest.raises(ConfigError, match="at least one"):
            lookahead(series, horizons=())

    @pytest.mark.parametrize("sweep", [lookahead, ar_lookahead])
    def test_start_without_targets_raises(self, sweep):
        # B1's first split from 0.99 is 119 of 120: no horizon-5 target is left
        b1 = load_csv(DATA / "b1.csv").get("B1")
        with pytest.raises(DegenerateInputError, match=r"'B1'.* 0\.99, .*smallest horizon, 5,"):
            sweep(b1, start_fraction=0.99)

    def test_result_holds_one_row_per_scored_target(self):
        series = linearish_series(n=20)
        config = TrainConfig(n_restarts=1, seed=0, max_iterations=40)
        result = lookahead(series, kernel_expr="MA5", horizons=(2,), start_fraction=0.6,
                           config=config)
        assert result.rows and all(r.horizon == 2 for r in result.rows)
        assert [r.c for r in result.rows] == sorted(r.c for r in result.rows)
        assert list(result.rmse) == [2] and result.failures == ()
        assert result.skipped[2] == len(rolling_origins(series, 0.6)) - len(result.rows)


ONE_POINT_PREFIX_SWEEPS = {
    "lookahead": lambda series, config: lookahead(
        series, kernel_expr="MA5", horizons=(1, 3), start_fraction=0.05, config=config
    ).failures,
    "ar_lookahead": lambda series, config: ar_lookahead(
        series, order=2, horizons=(1, 3), start_fraction=0.05
    ).failures,
    "evaluate": lambda series, config: tuple(
        (r.c, r.error)
        for r in evaluate(series, kernel_expr="MA5", start_fraction=0.05, config=config).records
        if r.failed
    ),
}


@pytest.mark.parametrize("sweep", sorted(ONE_POINT_PREFIX_SWEEPS))
def test_one_point_prefix_is_a_recorded_failure(sweep):
    # the first origin of a 16-point series at fraction 0.05 holds one point:
    # every sweep records it as a failed origin and goes on to the next
    series = linearish_series(n=16, slope=-0.022, noise=0.0005, seed=3)
    config = TrainConfig(n_restarts=1, seed=0, max_iterations=30)
    failures = ONE_POINT_PREFIX_SWEEPS[sweep](series, config)
    assert failures and failures[0][0] == 1
    assert all(c < 4 and msg for c, msg in failures)  # later origins succeed
    assert "point" in failures[0][1]


class OracleForecaster:
    """Forecaster that reads the future directly; for harness tests."""

    warm_start = False

    def __init__(self, series, true_eol, eol_shift=0.0, fail_at=(), infinite_at=()):
        self.cycles = series.cycles
        self.capacities = series.capacities
        self.true_eol = true_eol
        self.eol_shift = eol_shift
        self.fail_at = set(fail_at)
        self.infinite_at = set(infinite_at)

    def __call__(self, train_series, test_x, threshold, horizon_x):
        c = len(train_series)
        if c in self.fail_at:
            raise TrainingError("synthetic failure")
        predicted = np.interp(test_x, self.cycles, self.capacities)
        eol = math.inf if c in self.infinite_at else self.true_eol + self.eol_shift
        current = float(train_series.cycles[-1])
        forecast = EolForecast(
            c=c, current_x=current, threshold=threshold,
            eol_mean=eol, eol_lower=min(eol, horizon_x), eol_upper=math.inf,
        )
        return predicted, forecast


@pytest.fixture(scope="module")
def fading_series():
    return linearish_series(n=40, slope=-0.011, noise=0.0008, seed=7, cell_id="F")


class TestEvaluate:
    def test_oracle_forecaster_scores_zero(self, fading_series):
        series = fading_series
        true_eol = true_end_of_life(series, 0.7)
        report = _backtest(
            series, OracleForecaster(series, true_eol),
            start_fraction=0.3, eol_threshold=0.7, jobs=1,
        )
        assert report.cell_id == "F"
        assert report.true_eol == pytest.approx(true_eol)
        assert report.rmse_eol == pytest.approx(0.0, abs=1e-9)
        assert report.n_failed == 0
        for record in report.records:
            assert record.rmse_q == pytest.approx(0.0, abs=1e-12)
            assert not record.clamped

    def test_origins_stop_at_observed_end_of_life(self, fading_series):
        series = fading_series
        true_eol = true_end_of_life(series, 0.7)
        report = _backtest(
            series, OracleForecaster(series, true_eol),
            start_fraction=0.3, eol_threshold=0.7, jobs=1,
        )
        all_origins = rolling_origins(series, 0.3)
        expected = [
            c for c in all_origins if np.any(series.cycles[c:] <= true_eol)
        ]
        assert [r.c for r in report.records] == expected
        assert len(expected) < len(all_origins)  # some origins lie past EoL

    def test_constant_bias_shows_up_in_rmse(self, fading_series):
        series = fading_series
        true_eol = true_end_of_life(series, 0.7)
        report = _backtest(
            series, OracleForecaster(series, true_eol, eol_shift=4.0),
            start_fraction=0.3, eol_threshold=0.7, jobs=1,
        )
        assert report.rmse_eol == pytest.approx(4.0, abs=1e-9)

    def test_failures_recorded_not_raised(self, fading_series):
        series = fading_series
        true_eol = true_end_of_life(series, 0.7)
        fail_c = 14
        report = _backtest(
            series, OracleForecaster(series, true_eol, fail_at={fail_c}),
            start_fraction=0.3, eol_threshold=0.7, jobs=1,
        )
        failed = [r for r in report.records if r.failed]
        assert [r.c for r in failed] == [fail_c]
        assert failed[0].error == "synthetic failure"
        assert failed[0].rmse_q is None and failed[0].eol is None
        assert report.n_failed == 1
        assert report.rmse_eol == pytest.approx(0.0, abs=1e-9)  # others still perfect

    def test_infinite_forecasts_clamped_to_horizon(self, fading_series):
        series = fading_series
        true_eol = true_end_of_life(series, 0.7)
        inf_c = 15
        report = _backtest(
            series, OracleForecaster(series, true_eol, infinite_at={inf_c}),
            start_fraction=0.3, eol_threshold=0.7, jobs=1,
        )
        clamped = [r for r in report.records if r.clamped]
        assert [r.c for r in clamped] == [inf_c]
        assert clamped[0].eol_estimate == pytest.approx(2.0 * series.cycles[-1])
        assert report.rmse_eol > 0.0

    def test_jobs_parity_with_picklable_forecaster(self, fading_series):
        series = fading_series
        true_eol = true_end_of_life(series, 0.7)
        seq, par = (
            _backtest(series, OracleForecaster(series, true_eol, eol_shift=2.0),
                      start_fraction=0.4, eol_threshold=0.7, jobs=jobs)
            for jobs in (1, 2)
        )
        assert [r.c for r in seq.records] == [r.c for r in par.records]
        assert seq.rmse_eol == par.rmse_eol

    def test_parallel_warm_start_rejected(self, fading_series):
        with pytest.raises(ConfigError, match="warm start"):
            evaluate(fading_series, jobs=2, warm_start=True)

    def test_threshold_outside_unit_interval_raises_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the threshold was checked")

        monkeypatch.setattr(prognostics, "train", no_fit)
        b1 = load_csv(DATA / "b1.csv").get("B1")
        with pytest.raises(ConfigError, match=r"threshold .*got 0\.0"):
            evaluate(b1, eol_threshold=0.0)

    def test_start_without_origins_raises(self):
        # every origin of B1 from 0.95 lies past its observed end of life at 0.8
        b1 = load_csv(DATA / "b1.csv").get("B1")
        with pytest.raises(DegenerateInputError, match=r"'B1'.* 0\.95 .*107\.006 .*0\.8"):
            evaluate(b1, start_fraction=0.95, eol_threshold=0.8)

    def test_gp_forecaster_end_to_end_smoke(self):
        series = linearish_series(n=16, slope=-0.022, noise=0.0005, seed=3)
        config = TrainConfig(n_restarts=1, seed=0, max_iterations=50)
        report = evaluate(series, kernel_expr="MA5", start_fraction=0.55, config=config)
        assert len(report.records) >= 4
        assert math.isfinite(report.rmse_eol)
        succeeded = [r for r in report.records if not r.failed]
        assert succeeded, "every origin failed"
        for r in succeeded:
            assert r.eol is not None
            assert r.eol.eol_lower <= r.eol.eol_mean + 1e-9

    def test_report_describes_its_cell_and_origins(self, fading_series):
        series = fading_series
        true_eol = true_end_of_life(series, 0.7)
        report = _backtest(series, OracleForecaster(series, true_eol),
                           start_fraction=0.4, eol_threshold=0.7, jobs=1)
        assert report.cell_id == "F" and report.threshold == 0.7
        assert report.true_eol == true_eol and report.n_failed == 0
        assert [r.c for r in report.records] == list(range(16, 16 + len(report.records)))
        assert all(r.eol is not None and r.eol_estimate == r.eol.eol_mean for r in report.records)


class TestTrueEol:
    def test_interpolated_crossing(self):
        series = linearish_series(n=40, slope=-0.011)
        # 1 - 0.011 (x - 1) = 0.7  =>  x = 1 + 0.3/0.011
        assert true_end_of_life(series, 0.7) == pytest.approx(1 + 0.3 / 0.011, rel=1e-9)

    def test_never_crossing_raises(self):
        series = linearish_series(n=10, slope=-0.001)
        with pytest.raises(UndefinedMetricError, match="never crosses"):
            true_end_of_life(series, 0.7)


@pytest.fixture(scope="module")
def tiny_fleet():
    cells = []
    for i, cid in enumerate(("c1", "c2", "c3")):
        n = 14
        x = np.arange(1.0, n + 1.0)
        y = 1.0 - (0.024 + 0.004 * i) * (x - 1.0)
        cells.append(CapacitySeries(cid, x, y))
    return Fleet(tuple(cells))


class TestEvaluateMogp:
    def test_config_validation(self, tiny_fleet):
        with pytest.raises(ConfigError, match="also listed"):
            evaluate_mogp(tiny_fleet, target="c1", train_cells=["c1"])
        with pytest.raises(ConfigError, match="at least one training cell"):
            evaluate_mogp(tiny_fleet, target="c1", train_cells=[])
        with pytest.raises(BoundsError):
            evaluate_mogp(tiny_fleet, target="zz", train_cells=["c1"])
        with pytest.raises(ConfigError, match="warm start"):
            evaluate_mogp(tiny_fleet, target="c1", train_cells=["c2"], jobs=2)

    def test_target_without_origins_raises(self):
        fleet = load_csv(DATA / "c.csv")
        with pytest.raises(DegenerateInputError, match=r"'C3'.* 0\.97 .*130\.662"):
            evaluate_mogp(fleet, "C3", ["C1"], start_fraction=0.97)

    def test_repeated_training_cell_rejected(self):
        with pytest.raises(ConfigError, match=r"\['C1', 'C1'\]"):
            evaluate_mogp(load_csv(DATA / "c.csv"), "C3", ["C1", "C1"])

    def test_companions_inform_target(self, tiny_fleet):
        config = TrainConfig(n_restarts=1, seed=0, max_iterations=40)
        report = evaluate_mogp(
            tiny_fleet, target="c2", train_cells=["c1", "c3"],
            start_fraction=0.6, config=config,
        )
        assert report.cell_id == "c2"
        assert len(report.records) >= 2
        assert any(not r.failed for r in report.records)
        assert math.isfinite(report.rmse_eol)

    def test_jobs_parity(self, tiny_fleet):
        # fleet models are built and trained inside the pool's workers here
        config = TrainConfig(n_restarts=1, seed=0, max_iterations=40)
        reports = [
            evaluate_mogp(
                tiny_fleet, target="c2", train_cells=["c1", "c3"],
                start_fraction=0.6, config=config, warm_start=False, jobs=jobs,
            )
            for jobs in (1, 2)
        ]
        assert reports[0].records == reports[1].records
        assert reports[0].rmse_eol == reports[1].rmse_eol
        assert math.isfinite(reports[0].rmse_eol)

    @pytest.mark.parametrize(
        "token, expected", [("ZERO", Zero), ("CONST", Constant), ("EXPDEG", ExpDegradation)]
    )
    def test_mean_token_applies(self, tiny_fleet, monkeypatch, token, expected):
        from gpprog import prognostics

        means = []
        real_train = prognostics.train

        def recording_train(model, config, warm=None):
            means.append(model.mean)
            return real_train(model, config, warm)

        monkeypatch.setattr(prognostics, "train", recording_train)
        evaluate_mogp(
            tiny_fleet, target="c2", train_cells=["c1"], mean_expr=token,
            start_fraction=0.6, config=TrainConfig(n_restarts=1, max_iterations=5),
        )
        assert means and all(type(m) is expected for m in means)
