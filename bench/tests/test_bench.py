"""Tests of the benchmark itself: tiny workloads, the output checks, the tracer.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gpprog  # noqa: E402
from gpprog.gp import GpModel  # noqa: E402
from oracle import CheckFailed, first_crossing  # noqa: E402
from tracing import Tracer, layer_metrics, layers_not_entered, traced  # noqa: E402
from workloads import FleetC3, ForecastLong, RollingB1, SearchA1Par  # noqa: E402

TINY = {
    "rolling_b1": lambda: RollingB1(start=0.8, restarts=1),
    "fleet_c3": lambda: FleetC3(start=0.5, restarts=1),
    "forecast_long": lambda: ForecastLong(n_cycles=400, starts=(0.5, 0.8), restarts=1),
    "search_a1_par": lambda: SearchA1Par(bases=("MA3", "MA5", "PER"), restarts=2),
}


def run_tiny(name, tmp_path, seed=3):
    workload = TINY[name]()
    inputs = workload.build_inputs(ROOT, tmp_path, seed)
    return workload, inputs, workload.run_job(inputs)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload, inputs, result = run_tiny(name, tmp_path)
    attempted, failed = workload.check(inputs, result)
    assert attempted >= 2 and failed == 0


@pytest.mark.parametrize("name", ["rolling_b1", "fleet_c3"])
def test_wrong_true_eol_is_rejected(name, tmp_path):
    workload, inputs, report = run_tiny(name, tmp_path)
    wrong = dataclasses.replace(report, true_eol=report.true_eol + 1.0)
    with pytest.raises(CheckFailed, match="true EoL"):
        workload.check(inputs, wrong)


def test_rmse_eol_not_from_records_is_rejected(tmp_path):
    workload, inputs, report = run_tiny("rolling_b1", tmp_path)
    with pytest.raises(CheckFailed, match="rmse_eol"):
        workload.check(inputs, dataclasses.replace(report, rmse_eol=report.rmse_eol * 1.01))


def test_shifted_posterior_mean_is_rejected(tmp_path):
    workload, inputs, runs = run_tiny("forecast_long", tmp_path)
    path = runs[0][2] / "posterior.csv"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    table[:, 1] += 1e-4
    np.savetxt(path, table, delimiter=",", header="x,mean,a,b,c,d", comments="", fmt="%.17g")
    with pytest.raises(CheckFailed, match="posterior mean"):
        workload.check(inputs, runs)


def test_wrong_crossing_is_rejected(tmp_path):
    workload, inputs, runs = run_tiny("forecast_long", tmp_path)
    path = runs[-1][2] / "eol.json"
    eol = json.loads(path.read_text())
    eol["eol_lower"] = eol["current_x"] + 1.0
    path.write_text(json.dumps(eol))
    with pytest.raises(CheckFailed, match="eol_lower"):
        workload.check(inputs, runs)


def test_swapped_ranking_is_rejected(tmp_path):
    workload, inputs, result = run_tiny("search_a1_par", tmp_path)
    entries = list(result.entries)
    entries[0], entries[1] = entries[1], entries[0]
    with pytest.raises(CheckFailed, match="not sorted"):
        workload.check(inputs, dataclasses.replace(result, entries=tuple(entries)))


def test_reported_nlml_must_match_hyperparameters(tmp_path):
    workload, inputs, result = run_tiny("search_a1_par", tmp_path)
    e = result.entries[0]
    hp = dict(e.hyperparameters, **{"noise.variance": 2.0 * e.hyperparameters["noise.variance"]})
    entries = (dataclasses.replace(e, hyperparameters=hp),) + result.entries[1:]
    with pytest.raises(CheckFailed, match="dense"):
        workload.check(inputs, dataclasses.replace(result, entries=entries))


def test_first_crossing_matches_gpprog_find_eol():
    rng = np.random.default_rng(0)
    for _ in range(200):
        xs = np.cumsum(rng.uniform(0.5, 2.0, 30))
        values = 1.0 - np.cumsum(rng.uniform(-0.01, 0.03, 30))
        start = float(rng.choice(xs))
        assert first_crossing(xs, values, 0.8, start) == gpprog.find_eol(xs, values, 0.8, start)


def test_trace_counts_worker_spans_and_restores_gpprog(tmp_path):
    workload = TINY["search_a1_par"]()
    inputs = workload.build_inputs(ROOT, tmp_path, 0)
    original = GpModel.nlml_value_and_gradients
    tracer = Tracer(tmp_path)
    with traced(tracer):
        workload.run_job(inputs)
    assert GpModel.nlml_value_and_gradients is original
    assert gpprog.optimize.train is gpprog.prognostics.train
    spans = tracer.collect()
    metrics = layer_metrics(spans)
    assert metrics["optimize.train.calls"] == 6
    assert metrics["optimize.train.restarts"] == 6 * 3  # two LHS draws plus the default start
    assert metrics["gp.nlml_grad.calls"] > metrics["optimize.train.restarts"]
    assert {s["pid"] for s in spans if s["name"] == "gp.nlml_grad"} - {tracer.pid}
    assert 0.0 < metrics["optimize.kernel_search.pool_busy_share"] <= 1.0
    absent = layers_not_entered(spans)
    assert "gp.posterior.s" in absent and "cli.main.self_s" in absent
    assert "optimize.kernel_search.pool_busy_share" not in absent
    assert "gp.nlml_grad.failed" not in absent  # entered, and a real 0


def test_counts_repeat_exactly(tmp_path):
    workload = TINY["rolling_b1"]()
    inputs = workload.build_inputs(ROOT, tmp_path, 1)
    counts = []
    for _ in range(2):
        tracer = Tracer(tmp_path)
        with traced(tracer):
            workload.run_job(inputs)
        m = layer_metrics(tracer.collect())
        counts.append((m["gp.nlml_grad.calls"], m["optimize.train.calls"], m["optimize.train.restarts"]))
    assert counts[0] == counts[1]


def test_run_refuses_a_tree_without_gpprog(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rolling_b1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_lists_what_a_traced_run_reports():
    from tracing import LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == sorted(TINY, key=list(TINY).index)
