"""Release acceptance gate.

Ten numbered criteria, each printing one PASS/FAIL verdict line through
the terminal reporter so the outcome is visible in any pytest run
regardless of capture settings.  A FAIL line is always followed by the
test failing.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from gpprog import (
    Matern,
    SquaredExponential,
    Sum,
    LabeledInput,
    TrainConfig,
    ar_lookahead,
    evaluate,
    evaluate_mogp,
    find_eol,
    kernel_search,
    label_covariance,
    load_csv,
    lookahead,
    model_for_series,
    mogp_gram,
    rmse_eol,
    rmse_q,
    split,
    train,
)
from gpprog.cli import main

from helpers import (
    brute_force_eol,
    central_difference_gradients,
    dense_oracle,
    random_problem,
)

DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="module")
def report(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"{verdict} criterion {num}: {description}"
        if detail:
            line += f" [{detail}]"
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def a1_series():
    return load_csv(DATA / "a1.csv").series[0]


@pytest.fixture(scope="module")
def b1_series():
    return load_csv(DATA / "b1.csv").series[0]


@pytest.fixture(scope="module")
def fleet_c():
    return load_csv(DATA / "c.csv")


@pytest.fixture(scope="module")
def a1_model_55(a1_series):
    """MA5+MA3 model trained on the first 55% of cell A1."""
    c = math.ceil(0.55 * len(a1_series))
    train_s, test_s = split(a1_series, c)
    result = train(
        model_for_series(train_s, "MA5+MA3", "CONST"),
        TrainConfig(n_restarts=3, seed=0),
    )
    return result.model, train_s, test_s


def test_criterion_1_dense_oracle_equivalence(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        model, x_test = random_problem(rng)
        oracle_nlml, oracle_mean, oracle_var = dense_oracle(model, x_test)
        post = model.posterior(x_test)
        errs = (
            abs(model.nlml() - oracle_nlml) / max(1.0, abs(oracle_nlml)),
            np.max(np.abs(post.mean - oracle_mean) / np.maximum(1.0, np.abs(oracle_mean))),
            np.max(
                np.abs(post.variance_latent - oracle_var)
                / np.maximum(1.0, np.abs(oracle_var))
            ),
        )
        worst = max(worst, *errs)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "NLML and posterior match a direct dense-Gaussian oracle on 50 random problems",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_gradients_match_finite_differences(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        model, _ = random_problem(rng)
        _, grads = model.nlml_value_and_gradients(model.opt_vector())
        fd = central_difference_gradients(model, step=1e-6)
        worst = max(worst, np.max(np.abs(grads - fd) / np.maximum(1.0, np.abs(fd))))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "analytic NLML gradients match central differences on 20 random problems",
        worst < 1e-4 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_kernel_ranking_on_cell_a1(a1_series, report):
    t0 = time.perf_counter()
    result = kernel_search(a1_series, config=TrainConfig(n_restarts=10, seed=0), jobs=1)
    elapsed = time.perf_counter() - t0
    ranking = [entry.kernel for entry in result.entries]
    top_four = set(ranking[:4])
    ok = (
        ranking[-1] == "PER+PER"
        and {"MA3+MA3", "MA3+MA5"} <= top_four
        and elapsed < 300.0
    )
    report(
        3,
        "pairwise kernel search ranks PER+PER last with MA3+MA3 and MA3+MA5 in the top four",
        ok,
        f"ranking {ranking}, {elapsed:.1f}s",
    )


def test_criterion_4_component_means_sum_to_posterior_mean(a1_model_55, a1_series, report):
    model, train_s, test_s = a1_model_55
    grid = np.concatenate(
        [test_s.cycles, np.linspace(a1_series.cycles[0], a1_series.cycles[-1], 257)]
    )
    post = model.decompose_posterior(grid)
    total = model.mean(grid) + sum(comp.mean for comp in post.components)
    err = float(np.max(np.abs(total - post.mean)))
    report(
        4,
        "additive-kernel component means plus prior mean reproduce the posterior mean",
        err <= 1e-8,
        f"max abs err {err:.2e} over {len(grid)} query points",
    )


def test_trend_component_is_the_smooth_one(a1_model_55, a1_series):
    # The long-length-scale term should carry the slow fade: its posterior
    # mean's derivative changes sign fewer times than the short-scale term's.
    model, _, _ = a1_model_55
    grid = np.linspace(a1_series.cycles[0], a1_series.cycles[-1], 400)
    post = model.decompose_posterior(grid)
    crossings = {}
    for comp in post.components:
        if comp.name == "noise":
            continue
        dm = np.diff(comp.mean)
        crossings[comp.name] = int(np.sum(np.sign(dm[:-1]) * np.sign(dm[1:]) < 0))
    assert crossings["MA5"] < crossings["MA3"], crossings


def test_criterion_5_lookahead_ordering_on_cell_a1(a1_series, report):
    t0 = time.perf_counter()
    config = TrainConfig(n_restarts=2, seed=0)
    horizons = (5, 10, 20, 40)
    gp_pair = lookahead(
        a1_series, "MA5+MA3", "CONST", horizons=horizons,
        start_fraction=0.2, config=config, warm_start=True,
    )
    gp_single = lookahead(
        a1_series, "MA5", "CONST", horizons=horizons,
        start_fraction=0.2, config=config, warm_start=True,
    )
    ar = ar_lookahead(a1_series, order=10, horizons=horizons, start_fraction=0.2)
    elapsed = time.perf_counter() - t0
    pair40, single40, ar40 = gp_pair.rmse[40], gp_single.rmse[40], ar.rmse[40]
    ok = pair40 <= single40 and pair40 <= ar40 and elapsed < 900.0
    report(
        5,
        "40-step rolling RMSE: GP(MA5+MA3) beats GP(MA5) and an order-10 AR baseline",
        ok,
        f"MA5+MA3 {pair40:.4f} vs MA5 {single40:.4f} vs AR {ar40:.3g}, {elapsed:.1f}s",
    )


def test_criterion_6_parametric_mean_improves_eol_accuracy(b1_series, report):
    config = TrainConfig(n_restarts=3, seed=0)
    scores = {}
    for label, kernel_expr, mean_expr in (
        ("EXPDEG+MA3", "MA3", "EXPDEG"),
        ("EXPDEG+NOISE", "NOISE", "EXPDEG"),
        ("MA5+MA3", "MA5+MA3", "CONST"),
    ):
        rep = evaluate(
            b1_series, kernel_expr=kernel_expr, mean_expr=mean_expr,
            start_fraction=0.2, eol_threshold=0.8, config=config, warm_start=True,
        )
        scores[label] = rep.rmse_eol
    ok = (
        scores["EXPDEG+MA3"] < scores["MA5+MA3"]
        and scores["EXPDEG+NOISE"] < scores["MA5+MA3"]
    )
    detail = ", ".join(f"{k} {v:.2f}" for k, v in scores.items())
    report(
        6,
        "exponential-mean models beat the plain MA5+MA3 model on end-of-life RMSE",
        ok,
        detail,
    )


def test_criterion_7_fleet_models_beat_single_cell(fleet_c, report):
    t0 = time.perf_counter()
    config = TrainConfig(n_restarts=3, seed=0)
    kwargs = dict(
        kernel_expr="MA5+MA3", start_fraction=0.2, eol_threshold=0.7,
        config=config, warm_start=True,
    )
    single = evaluate(fleet_c.get("C3"), **kwargs).rmse_eol
    from_c1 = evaluate_mogp(fleet_c, "C3", ["C1"], **kwargs).rmse_eol
    from_c2 = evaluate_mogp(fleet_c, "C3", ["C2"], **kwargs).rmse_eol
    from_both = evaluate_mogp(fleet_c, "C3", ["C1", "C2"], **kwargs).rmse_eol
    elapsed = time.perf_counter() - t0
    ok = (
        max(from_c1, from_c2, from_both) < single
        and from_c2 < from_c1
        and from_both <= min(from_c1, from_c2)
        and elapsed < 1200.0
    )
    report(
        7,
        "multi-output fleet models beat the single-cell model on end-of-life RMSE",
        ok,
        f"single {single:.2f}, +C1 {from_c1:.2f}, +C2 {from_c2:.2f}, "
        f"+C1+C2 {from_both:.2f}, {elapsed:.1f}s",
    )


def test_criterion_8_label_covariance_properties(report):
    rng = np.random.default_rng(11)
    worst_diag = 0.0
    worst_offdiag = 0.0
    min_eig = np.inf
    for m in (2, 3, 4, 5):
        n_angles = m * (m - 1) // 2
        for _ in range(1000):
            angles = rng.uniform(1e-3, math.pi - 1e-3, size=n_angles)
            cov = label_covariance(angles, 1.0, m)
            worst_diag = max(worst_diag, np.max(np.abs(np.diag(cov) - 1.0)))
            off = cov[~np.eye(m, dtype=bool)]
            worst_offdiag = max(worst_offdiag, np.max(np.abs(off)))
            min_eig = min(min_eig, np.linalg.eigvalsh(cov)[0])
    kron_err = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 5))
        angles = rng.uniform(0.2, 2.8, size=m * (m - 1) // 2)
        cov = label_covariance(angles, float(rng.uniform(0.5, 3.0)), m)
        input_kernel = Sum(
            Matern(2.5, float(rng.uniform(0.5, 2.0)), float(rng.uniform(2.0, 8.0))),
            SquaredExponential(0.8, 5.0),
        )
        grid = np.linspace(0.0, 20.0, 6)
        pts = [LabeledInput(float(x), lab) for lab in range(1, m + 1) for x in grid]
        full = mogp_gram(cov, input_kernel, pts)
        kron = np.kron(cov, input_kernel.gram(grid))
        kron_err = max(kron_err, np.max(np.abs(full - kron)))
    ok = (
        worst_diag <= 1e-12
        and worst_offdiag <= 1.0 + 1e-12
        and min_eig >= -1e-12
        and kron_err <= 1e-12
    )
    report(
        8,
        "hypersphere label covariances are unit-diagonal, bounded, PSD, and "
        "Kronecker-consistent on aligned grids",
        ok,
        f"diag err {worst_diag:.1e}, min eig {min_eig:.1e}, kron err {kron_err:.1e}",
    )


def test_criterion_9_metric_hand_cases_and_crossing_oracle(report):
    checks = [
        abs(rmse_q([0.9, 0.8], [1.0, 1.0]) - math.sqrt((0.01 + 0.04) / 2)) <= 1e-12,
        abs(rmse_eol([90.0, 110.0], 100.0) - 10.0) <= 1e-12,
    ]
    xs = np.arange(0.0, 201.0)
    checks.append(abs(find_eol(xs, 1.0 - 0.005 * xs, 0.7, 0.0) - 60.0) <= 1e-12)
    checks.append(math.isinf(find_eol(xs, np.full_like(xs, 0.9), 0.7, 0.0)))

    rng = np.random.default_rng(31)
    worst = 0.0
    n_inf = 0
    for _ in range(100):
        n_seg = int(rng.integers(3, 30))
        knots = np.cumsum(rng.uniform(0.5, 5.0, size=n_seg + 1))
        values = np.empty(n_seg + 1)
        values[0] = rng.uniform(0.75, 1.1)
        values[1:] = rng.uniform(0.4, 1.1, size=n_seg)
        got = find_eol(knots, values, 0.7, float(knots[0]))
        expected = brute_force_eol(knots, values, 0.7, float(knots[0]))
        if math.isinf(expected):
            n_inf += 1
            checks.append(math.isinf(got))
        else:
            worst = max(worst, abs(got - expected))
    checks.append(worst <= 1e-6)
    checks.append(0 < n_inf < 100)
    report(
        9,
        "metric hand cases are exact and the crossing finder matches a dense-scan oracle",
        all(checks),
        f"worst crossing err {worst:.1e} over 100 curves ({n_inf} without a crossing)",
    )


def test_criterion_10_cli_reruns_are_bit_identical(tmp_path, report):
    out = tmp_path / "run"
    argv = [
        "forecast", "--data", str(DATA / "a1.csv"), "--out", str(out),
        "--kernel", "MA5+MA3", "--restarts", "2", "--seed", "0",
        "--start", "0.55", "--jobs", "1",
    ]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    ok = first == second and len(first) >= 4
    report(
        10,
        "repeated single-process CLI runs produce bit-identical output files",
        ok,
        f"{len(first)} files compared",
    )
