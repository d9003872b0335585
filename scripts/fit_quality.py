#!/usr/bin/env python3
"""Compare two gpprog trees' fits on the benchmark's two rolling jobs.

Usage: ``python3 scripts/fit_quality.py BASE_SRC BRANCH_SRC``

The jobs are rolling B1 (MA3 + EXPDEG, 3 restarts, warm starts, start
fraction 0.2, EoL threshold 0.8) and the fleet_c3 job (C3 borrowing from C1
and C2, MA5+MA3, the same settings with threshold 0.7), each at training
seeds 0-3 on this script's own ``data/``.  Each tree runs in a subprocess
with ``PYTHONPATH`` set to its ``src`` directory, the two at once.  The
subprocess wraps ``gpprog.prognostics.train`` to record each origin's best
NLML, keyed by its number of training points, and the NLML evaluations of
every restart.

Per job and seed the table gives both trees' evaluations and ``rmse_eol``,
the origins whose best NLML is lower (better) or higher (worse) on the
branch by more than 0.01 nats, and the largest rise of an origin's best
NLML in nats (negative when every origin fell).  The counts are
deterministic under ``OPENBLAS_NUM_THREADS=1``.
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
    b1 = gpprog.load_csv(DATA / "b1.csv").get("B1")
    fleet = gpprog.load_csv(DATA / "c.csv")

    def rolling_b1(config):
        return gpprog.evaluate(b1, kernel_expr="MA3", mean_expr="EXPDEG", start_fraction=0.2,
                               eol_threshold=0.8, config=config, warm_start=True, jobs=1)

    def fleet_c3(config):
        return gpprog.evaluate_mogp(fleet, target="C3", train_cells=["C1", "C2"],
                                    kernel_expr="MA5+MA3", start_fraction=0.2, eol_threshold=0.7,
                                    config=config, warm_start=True, jobs=1)

    return {"rolling_b1": rolling_b1, "fleet_c3": fleet_c3}


def record() -> dict:
    """Job -> seed -> evaluations, rmse_eol and best NLML per origin, for the
    gpprog on ``PYTHONPATH``."""
    import gpprog
    import gpprog.prognostics as prognostics

    fitted = prognostics.train
    results = {}
    for name, job in _jobs(gpprog).items():
        for seed in SEEDS:
            best, evaluations = {}, [0]

            def train(model, config, warm=None):
                result = fitted(model, config, warm=warm)
                best[len(model.x)] = result.nlml
                evaluations[0] += sum(r.evaluations for r in result.restarts)
                return result

            prognostics.train = train
            try:
                report = job(gpprog.TrainConfig(n_restarts=3, seed=seed))
            finally:
                prognostics.train = fitted
            results.setdefault(name, {})[str(seed)] = {
                "evaluations": evaluations[0], "rmse_eol": report.rmse_eol, "nlml": best,
            }
    return results


def compare(base: dict, branch: dict) -> list[str]:
    lines = [f"{'job':<12}{'seed':>5}  {'evaluations':>18}  {'rmse_eol':>22}"
             f"{'origins':>9}{'better':>8}{'worse':>7}  largest rise"]
    for name, seeds in base.items():
        for seed, a in seeds.items():
            b = branch[name][seed]
            common = a["nlml"].keys() & b["nlml"].keys()
            moves = [b["nlml"][k] - a["nlml"][k] for k in common]
            better = sum(m < -TOLERANCE for m in moves)
            worse = sum(m > TOLERANCE for m in moves)
            evaluations = f"{a['evaluations']} -> {b['evaluations']}"
            rmse = f"{a['rmse_eol']:.4f} -> {b['rmse_eol']:.4f}"
            lines.append(f"{name:<12}{seed:>5}  {evaluations:>18}  {rmse:>22}{len(common):>9}"
                         f"{better:>8}{worse:>7}  {max(moves, default=0.0):.3g}")
    return lines


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
