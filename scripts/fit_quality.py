#!/usr/bin/env python3
"""Compare two gpprog trees' fits on the benchmark's training jobs.

Usage: ``python3 scripts/fit_quality.py BASE_SRC BRANCH_SRC``

The jobs are rolling B1 (MA3 + EXPDEG, 3 restarts, warm starts, start
fraction 0.2, EoL threshold 0.8), the fleet_c3 job (C3 borrowing from C1
and C2, MA5+MA3, the same settings with threshold 0.7), fleet_c3_expdeg
(the fleet_c3 job with an EXPDEG mean) and the A1 kernel
search of search_a1_par (every pair of SE, MA3, MA5 and PER, CONST mean,
10 restarts, in one process), each at training seeds 0-3 on this script's
own ``data/``.  Each tree runs in a subprocess with ``PYTHONPATH`` set to
its ``src`` directory, the two at once.  The subprocess wraps ``train`` in
``gpprog.prognostics`` and ``gpprog.optimize`` to record the best NLML of
each fit, keyed by its number of training points (a rolling origin) or its
kernel (a search candidate), and the NLML evaluations of every restart.

Per job and seed the table gives both trees' evaluations and ``rmse_eol``,
the fits whose best NLML is lower (better) or higher (worse) on the branch
by more than 0.01 nats, and the largest rise of a fit's best NLML in nats
(negative when every fit fell).  A second table gives each search
candidate's NLML on both trees.  The counts are deterministic under
``OPENBLAS_NUM_THREADS=1``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"
SEEDS = range(4)
TOLERANCE = 0.01  # nats


def _jobs(gpprog):
    """Job name -> (its restarts, a function of the TrainConfig that runs it
    and returns its rmse_eol or None)."""
    a1 = gpprog.load_csv(DATA / "a1.csv").get("A1")
    b1 = gpprog.load_csv(DATA / "b1.csv").get("B1")
    fleet = gpprog.load_csv(DATA / "c.csv")

    def rolling_b1(config):
        return gpprog.evaluate(b1, kernel_expr="MA3", mean_expr="EXPDEG", start_fraction=0.2,
                               eol_threshold=0.8, config=config, warm_start=True,
                               jobs=1).rmse_eol

    def fleet_c3(config, mean_expr="CONST"):
        return gpprog.evaluate_mogp(fleet, target="C3", train_cells=["C1", "C2"],
                                    kernel_expr="MA5+MA3", mean_expr=mean_expr,
                                    start_fraction=0.2, eol_threshold=0.7, config=config,
                                    warm_start=True, jobs=1).rmse_eol

    def fleet_c3_expdeg(config):
        return fleet_c3(config, mean_expr="EXPDEG")

    def search_a1(config):
        gpprog.kernel_search(a1, bases=("SE", "MA3", "MA5", "PER"), config=config,
                             mean_expr="CONST", jobs=1)

    return {"rolling_b1": (3, rolling_b1), "fleet_c3": (3, fleet_c3),
            "fleet_c3_expdeg": (3, fleet_c3_expdeg), "search_a1": (10, search_a1)}


def record() -> dict:
    """Job -> seed -> evaluations, rmse_eol and best NLML per fit, for the
    gpprog on ``PYTHONPATH``."""
    import gpprog
    import gpprog.optimize as optimize
    import gpprog.prognostics as prognostics

    fitted = optimize.train
    results = {}
    for name, (restarts, job) in _jobs(gpprog).items():
        for seed in SEEDS:
            best, evaluations = {}, [0]

            def train(model, config, warm=None):
                result = fitted(model, config, warm=warm)
                key = len(model.x) if name != "search_a1" else gpprog.format_kernel(model.kernel)
                best[key] = result.nlml
                evaluations[0] += sum(r.evaluations for r in result.restarts)
                return result

            prognostics.train = optimize.train = train
            try:
                rmse = job(gpprog.TrainConfig(n_restarts=restarts, seed=seed))
            finally:
                prognostics.train = optimize.train = fitted
            results.setdefault(name, {})[str(seed)] = {
                "evaluations": evaluations[0], "rmse_eol": rmse, "nlml": best,
            }
    return results


def _rmse(value) -> str:
    return "-" if value is None else f"{value:.4f}"


def compare(base: dict, branch: dict) -> list[str]:
    lines = [f"{'job':<16}{'seed':>5}  {'evaluations':>18}  {'rmse_eol':>22}"
             f"{'fits':>9}{'better':>8}{'worse':>7}  largest rise"]
    candidates = [f"{'candidate':<12}{'seed':>5}  {'nlml':>40}  verdict"]
    for name, seeds in base.items():
        for seed, a in seeds.items():
            b = branch[name][seed]
            common = [k for k in a["nlml"] if k in b["nlml"]]
            moves = [b["nlml"][k] - a["nlml"][k] for k in common]
            better = sum(m < -TOLERANCE for m in moves)
            worse = sum(m > TOLERANCE for m in moves)
            evaluations = f"{a['evaluations']} -> {b['evaluations']}"
            rmse = f"{_rmse(a['rmse_eol'])} -> {_rmse(b['rmse_eol'])}"
            lines.append(f"{name:<16}{seed:>5}  {evaluations:>18}  {rmse:>22}{len(common):>9}"
                         f"{better:>8}{worse:>7}  {max(moves, default=0.0):.3g}")
            if a["rmse_eol"] is None:  # a search: one line per candidate
                for kernel, move in zip(common, moves):
                    verdict = ("better" if move < -TOLERANCE
                               else "worse" if move > TOLERANCE else "same")
                    nlml = f"{a['nlml'][kernel]:.6f} -> {b['nlml'][kernel]:.6f}"
                    candidates.append(f"{kernel:<12}{seed:>5}  {nlml:>40}  {verdict}")
    return lines + [""] + candidates


def main(argv) -> int:
    if argv == ["--record"]:
        json.dump(record(), sys.stdout)
        return 0
    if len(argv) != 2:
        print("usage: fit_quality.py BASE_SRC BRANCH_SRC", file=sys.stderr)
        return 2
    runs = [
        subprocess.Popen(
            [sys.executable, __file__, "--record"], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(src).resolve())},
        )
        for src in argv
    ]
    outputs = [run.communicate()[0] for run in runs]
    for src, run in zip(argv, runs):
        if run.returncode != 0:
            print(f"the run on {src} exited {run.returncode}", file=sys.stderr)
            return 1
    print("\n".join(compare(*map(json.loads, outputs))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
