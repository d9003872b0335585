"""The benchmark's four workloads: their inputs, the timed job and the output checks.

Inputs come from the run's seed; gpprog itself always trains with its seed
0, as in the paper's runs.

* ``rolling_b1``, ``fleet_c3`` and ``search_a1_par`` read a bundled CSV and
  re-measure it: every capacity is multiplied by ``1 + REMEASURE_SD * z``
  with ``z`` standard normal from ``numpy.random.default_rng(seed)``.  Seed
  0 keeps the bundled values.
* ``forecast_long`` draws a long-life cell from ``synthetic.cell_b_like``
  with the run's seed as the generator seed and keeps one capacity check
  every ``ForecastLong.every`` cycles.

The seed varies the data and not gpprog's training seed for two reasons.
gpprog draws one Latin-hypercube design per training seed and reuses it at
every origin, so a new training seed moves all origins together: over seeds
0-9 it changes the NLML evaluations of ``rolling_b1`` by 12% (interquartile
range over the median).  And the A1 kernel ranking that ``search_a1_par``
checks depends on the starts: training seed 19 leaves SE+PER at a poor
optimum, below PER+PER.  REMEASURE_SD is a few percent of the cells' own
measurement noise; at 1e-3 the A1 ranking already moved on seeds 4 and 5.

Every job is called through gpprog's public names, looked up on the module
at call time, so that the traced run sees the wrappers installed by
``tracing.py``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gpprog
import gpprog.cli
import gpprog.synthetic

from oracle import (
    close,
    dense_nlml,
    dense_posterior,
    first_crossing,
    kernel_terms,
    read_cells,
    require,
    sum_covariance,
)

REMEASURE_SD = 1e-4
# gpprog's rolling evaluations forecast out to twice the last observed cycle
HORIZON_FACTOR = 2.0


def remeasure(src: Path, dst: Path, seed: int) -> Path:
    """Copy a capacity CSV, scaling each capacity by 1 + REMEASURE_SD * z."""
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    scale = np.ones(len(rows))
    if seed:
        scale += REMEASURE_SD * np.random.default_rng(seed).standard_normal(len(rows))
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "cycle", "capacity"])
        for row, s in zip(rows, scale):
            writer.writerow([row["cell_id"], row["cycle"], repr(float(row["capacity"]) * float(s))])
    return dst


def check_rolling(report, csv_path: Path, cell: str, threshold: float, start: float) -> None:
    """Origins, EoL intervals, true EoL and rmse_eol of a rolling report, from the CSV."""
    x, y = read_cells(csv_path)[cell]
    true_eol = first_crossing(x, y, threshold, x[0])
    require(math.isfinite(true_eol), f"{cell} never crosses {threshold} in {csv_path}")
    require(close(report.true_eol, true_eol, 1e-12),
            f"true EoL {report.true_eol} != scan of the CSV {true_eol}")
    horizon = HORIZON_FACTOR * x[-1]
    require(report.horizon_x == horizon, f"horizon {report.horizon_x} != {horizon}")
    first = max(1, math.ceil(start * len(x)))
    origins = [c for c in range(first, len(x)) if x[c] <= true_eol]
    require([r.c for r in report.records] == origins,
            f"origins {[r.c for r in report.records]} != {origins}")
    estimates = []
    for r in report.records:
        if r.failed:
            continue
        e = r.eol
        require(r.current_x == x[r.c - 1], f"origin {r.c}: current x {r.current_x}")
        require(e.eol_lower <= e.eol_mean + 1e-9 and e.eol_mean <= e.eol_upper + 1e-9,
                f"origin {r.c}: EoL interval out of order {e}")
        require(e.eol_lower > r.current_x, f"origin {r.c}: EoL {e.eol_lower} not beyond origin")
        clamped = math.isinf(e.eol_mean)
        require(r.clamped == clamped and r.eol_estimate == (horizon if clamped else e.eol_mean),
                f"origin {r.c}: estimate {r.eol_estimate} does not follow from {e}")
        estimates.append(r.eol_estimate)
    require(estimates, "every origin failed")
    rmse = math.sqrt(float(np.mean((np.array(estimates) - true_eol) ** 2)))
    require(close(report.rmse_eol, rmse, 1e-12), f"rmse_eol {report.rmse_eol} != {rmse} from the records")


class Workload:
    """One benchmark workload: ``build_inputs`` is set-up, ``run_job`` is timed."""

    name = ""
    unit = ""  # what one attempted operation is

    def build_inputs(self, root: Path, workdir: Path, seed: int) -> dict:
        raise NotImplementedError

    def run_job(self, inputs: dict):
        raise NotImplementedError

    def check(self, inputs: dict, result) -> tuple[int, int]:
        """Raise CheckFailed on a wrong output; return (attempted, failed) operations."""
        raise NotImplementedError

    def gram_probe(self, inputs: dict, result, largest_model):
        """(kernel, inputs) for timing ``Kernel.gram_with_gradients``: the trained kernel at its largest n."""
        if largest_model is None:
            return None
        if largest_model.labels is None:
            return largest_model.kernel, largest_model.x
        points = [gpprog.LabeledInput(float(a), int(b))
                  for a, b in zip(largest_model.x, largest_model.labels)]
        return largest_model.kernel, points


@dataclass
class RollingB1(Workload):
    """Rolling-origin EoL backtest of cell B1 with an exponential-degradation mean."""

    start: float = 0.2
    restarts: int = 3
    name = "rolling_b1"
    unit = "origins"
    cell = "B1"
    threshold = 0.8

    def build_inputs(self, root, workdir, seed):
        path = remeasure(root / "data" / "b1.csv", workdir / "b1.csv", seed)
        return {"csv": path, "series": gpprog.load_csv(path).get(self.cell)}

    def run_job(self, inputs):
        return gpprog.evaluate(
            inputs["series"], kernel_expr="MA3", mean_expr="EXPDEG",
            start_fraction=self.start, eol_threshold=self.threshold,
            config=gpprog.TrainConfig(n_restarts=self.restarts, seed=0),
            warm_start=True, jobs=1,
        )

    def check(self, inputs, report):
        check_rolling(report, inputs["csv"], self.cell, self.threshold, self.start)
        # a forecaster that always predicts the horizon misses by |horizon - true EoL|
        always_horizon = abs(report.horizon_x - report.true_eol)
        require(report.rmse_eol < always_horizon,
                f"rmse_eol {report.rmse_eol} not below the always-horizon forecaster's {always_horizon}")
        return len(report.records), report.n_failed


@dataclass
class FleetC3(Workload):
    """Multi-output rolling backtest of C3 that borrows from C1 and C2."""

    start: float = 0.2
    restarts: int = 3
    name = "fleet_c3"
    unit = "origins"
    target = "C3"
    companions = ("C1", "C2")
    kernel = "MA5+MA3"
    threshold = 0.7

    def _config(self):
        return gpprog.TrainConfig(n_restarts=self.restarts, seed=0)

    def build_inputs(self, root, workdir, seed):
        path = remeasure(root / "data" / "c.csv", workdir / "c.csv", seed)
        return {"csv": path, "fleet": gpprog.load_csv(path)}

    def run_job(self, inputs):
        return gpprog.evaluate_mogp(
            inputs["fleet"], target=self.target, train_cells=list(self.companions),
            kernel_expr=self.kernel, start_fraction=self.start,
            eol_threshold=self.threshold, config=self._config(), warm_start=True, jobs=1,
        )

    def check(self, inputs, report):
        check_rolling(report, inputs["csv"], self.target, self.threshold, self.start)
        if "alone" not in inputs:  # the single-cell comparator, computed once per run
            inputs["alone"] = gpprog.evaluate(
                inputs["fleet"].get(self.target), kernel_expr=self.kernel,
                start_fraction=self.start, eol_threshold=self.threshold,
                config=self._config(), warm_start=True, jobs=1,
            ).rmse_eol
        require(report.rmse_eol < inputs["alone"],
                f"MOGP rmse_eol {report.rmse_eol} not below {self.target} alone ({inputs['alone']})")
        return len(report.records), report.n_failed


@dataclass
class ForecastLong(Workload):
    """CLI ``forecast`` runs on a long-life cell: cycle-resolution grids of 2,000-2,900 points."""

    n_cycles: int = 1700
    starts: tuple[float, ...] = (0.3, 0.45, 0.6, 0.75)
    restarts: int = 2
    name = "forecast_long"
    unit = "CLI runs"
    every = 10  # keep one capacity check every this many cycles
    kernel = "MA5+MA3"
    threshold = 0.8
    cell = "L1"

    def build_inputs(self, root, workdir, seed):
        cycles, amp_hours = gpprog.synthetic.cell_b_like(n_cycles=self.n_cycles, seed=seed)
        path = workdir / "long.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell_id", "cycle", "capacity"])
            for x, q in zip(cycles[:: self.every], amp_hours[:: self.every]):
                writer.writerow([self.cell, repr(float(x)), repr(float(q))])
        return {"csv": path, "out": workdir / "forecast", "seed": seed, "jobs": 0}

    def run_job(self, inputs):
        # a fresh directory per job: truncating files written moments ago waits on
        # their writeback, which times the disk rather than gpprog
        inputs["jobs"] += 1
        runs = []
        for i, start in enumerate(self.starts):
            out = inputs["out"] / f"job{inputs['jobs']}" / f"start{i}"
            code = gpprog.cli.main([
                "forecast", "--data", str(inputs["csv"]), "--kernel", self.kernel,
                "--restarts", str(self.restarts), "--start", repr(start),
                "--eol", repr(self.threshold), "--out", str(out),
            ])
            runs.append((start, code, out))
        return runs

    def check(self, inputs, runs):
        x, y = read_cells(inputs["csv"])[self.cell]
        rng = np.random.default_rng(inputs["seed"])
        for start, code, out in runs:
            if code == 0:
                self._check_run(x, y, start, out, rng)
        shutil.rmtree(runs[0][2].parent)
        return len(runs), sum(1 for _, code, _ in runs if code != 0)

    def _check_run(self, x, y, start, out, rng):
        c = max(1, math.ceil(start * len(x)))
        x_train, y_train = x[:c], y[:c]
        model = json.loads((out / "model.json").read_text())
        hyper = model["hyperparameters"]
        noise = hyper["noise.variance"]
        offset = model["mean_params"]["value"]
        post = np.loadtxt(out / "posterior.csv", delimiter=",", skiprows=1, ndmin=2)
        grid, mean, sd_latent, sd_noisy, lower, upper = post.T
        horizon = HORIZON_FACTOR * x[-1]
        require(grid[0] == x_train[-1] and grid[-1] == x_train[-1] + math.floor(horizon - x_train[-1])
                and np.all(np.diff(grid) == 1.0), f"{out}: grid is not cycle resolution to the horizon")

        # posterior at sampled grid points against a dense GP built from model.json
        idx = np.union1d(rng.choice(len(grid), size=min(40, len(grid)), replace=False), [0, len(grid) - 1])
        k_train = sum(sum_covariance(self.kernel, hyper, x_train, x_train))
        k_cross = sum(sum_covariance(self.kernel, hyper, grid[idx], x_train))
        prior = sum(hyper[f"{p}.output_scale"] ** 2 for _, p in kernel_terms(self.kernel))
        ref_mean, ref_var = dense_posterior(k_train, k_cross, np.full(len(idx), prior), noise,
                                            y_train - offset)
        require(close(mean[idx], offset + ref_mean, 1e-7, 1e-9),
                f"{out}: posterior mean differs from the dense GP by "
                f"{np.max(np.abs(mean[idx] - offset - ref_mean)):.3e}")
        require(close(sd_latent[idx] ** 2, ref_var, 1e-6, 1e-9 * prior),
                f"{out}: latent variance differs from the dense GP by "
                f"{np.max(np.abs(sd_latent[idx] ** 2 - ref_var)):.3e}")
        require(close(sd_noisy ** 2, sd_latent ** 2 + noise, 1e-9, 1e-15), f"{out}: noisy variance")
        require(close(lower, mean - 2 * sd_noisy, 1e-12, 1e-12)
                and close(upper, mean + 2 * sd_noisy, 1e-12, 1e-12), f"{out}: bounds are not mean +/- 2 sigma")

        # additive components plus the constant mean give back the posterior mean
        comp: dict[str, list] = {}
        with open(out / "components.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                comp.setdefault(row["component"], []).append((float(row["x"]), float(row["mean"])))
        require(list(comp) == [t for t, _ in kernel_terms(self.kernel)] + ["noise"],
                f"{out}: components {list(comp)}")
        total = np.full(len(grid), offset)
        for rows in comp.values():
            arr = np.array(rows)
            require(np.array_equal(arr[:, 0], grid), f"{out}: component grid differs")
            total += arr[:, 1]
        require(close(total, mean, 0.0, 1e-9),
                f"{out}: components sum off by {np.max(np.abs(total - mean)):.3e}")

        # crossings against our own scan of the mean and +/- 2 sigma curves
        eol = json.loads((out / "eol.json").read_text())
        cx = x_train[-1]
        eol_mean = first_crossing(grid, mean, self.threshold, cx)
        expected = {
            "c": c,
            "current_x": cx,
            "eol_mean": eol_mean,
            # a band already below the threshold at the origin snaps to the first
            # grid step; forecast_eol documents that it clips the band to the mean
            "eol_lower": min(first_crossing(grid, lower, self.threshold, cx), eol_mean),
            "eol_upper": max(first_crossing(grid, upper, self.threshold, cx), eol_mean),
        }
        for key, want in expected.items():
            require(close(eol[key], want, 1e-9), f"{out}: eol.json {key}={eol[key]}, scan gives {want}")
        observed = first_crossing(x, y, self.threshold, x[0])
        require((eol["observed_eol"] is None and math.isinf(observed))
                or close(eol["observed_eol"], observed, 1e-12),
                f"{out}: observed_eol {eol['observed_eol']} != scan of the CSV {observed}")


@dataclass
class SearchA1Par(Workload):
    """Kernel search over all base pairs on cell A1 with two worker processes."""

    bases: tuple[str, ...] = ("SE", "MA3", "MA5", "PER")
    restarts: int = 10
    name = "search_a1_par"
    unit = "candidates"
    cell = "A1"
    jobs = 2

    def build_inputs(self, root, workdir, seed):
        path = remeasure(root / "data" / "a1.csv", workdir / "a1.csv", seed)
        return {"csv": path, "series": gpprog.load_csv(path).get(self.cell)}

    def run_job(self, inputs):
        return gpprog.kernel_search(
            inputs["series"], bases=self.bases,
            config=gpprog.TrainConfig(n_restarts=self.restarts, seed=0),
            mean_expr="CONST", jobs=self.jobs,
        )

    def check(self, inputs, result):
        x, y = read_cells(inputs["csv"])[self.cell]
        pairs = [f"{a}+{b}" for i, a in enumerate(self.bases) for b in self.bases[i:]]
        names = [e.kernel for e in result.entries]
        tried = names + [k for k, _ in result.failures]
        require(sorted(tried) == sorted(pairs), f"candidates {tried} != {pairs}")
        resid = y - np.mean(y)
        for e in result.entries:
            hp = e.hyperparameters
            nlml = dense_nlml(sum(sum_covariance(e.kernel, hp, x, x)), hp["noise.variance"], resid)
            require(close(e.nlml, nlml, 1e-7), f"{e.kernel}: NLML {e.nlml} != dense {nlml}")
        nlmls = [e.nlml for e in result.entries]
        require(all(a <= b for a, b in zip(nlmls, nlmls[1:])), f"ranking not sorted by NLML: {names}")
        if "PER+PER" in pairs:
            require(names[-1] == "PER+PER", f"PER+PER is not last: {names}")
        for kernel in ("MA3+MA3", "MA3+MA5"):
            if kernel in pairs:
                require(kernel in names[:4], f"{kernel} not in the top four: {names}")
        return len(pairs), len(result.failures)

    def gram_probe(self, inputs, result, largest_model):
        # candidates train in worker processes; rebuild the winner from its report
        best = result.best
        model = gpprog.model_for_series(inputs["series"], best.kernel, "CONST")
        hp = model.kernel.hyperparameters()
        values = [math.log(best.hyperparameters[n]) if k.startswith("log_") else best.hyperparameters[n]
                  for n, k in zip(hp.names, hp.kinds)]
        return model.kernel.with_hyperparameters(values), model.x


WORKLOADS = {w.name: w for w in (RollingB1, FleetC3, ForecastLong, SearchA1Par)}
