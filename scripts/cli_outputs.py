#!/usr/bin/env python3
"""Write every CLI output file from ten fixed runs on the bundled data.

Usage: ``PYTHONPATH=src python3 scripts/cli_outputs.py OUTDIR``

The ten runs cover all six subcommands and every file they write (33 files):
``fit`` on a1; ``forecast`` with acceptance criterion 10's arguments on a1
and with an EXPDEG mean on b1; ``kernel-search`` on a1 with one and two
workers; ``lookahead`` and ``evaluate`` on b1; ``mogp-evaluate`` on fleet
c.  Each run writes to ``OUTDIR/<run name>``.

The CLI runs in subprocesses (``python -m gpprog.cli``) under the caller's
environment, with its ``PYTHONPATH`` made absolute, so ``PYTHONPATH``
chooses the gpprog that is run and any checkout can be compared with any
other.  ``--data`` always points at this script's own ``data/`` directory
and ``--out`` is relative to OUTDIR, so two trees written by the same
script differ only where the outputs differ, ``manifest.json`` included;
compare them with ``diff -r``.  The outputs are reproducible under
``OPENBLAS_NUM_THREADS=1``.
"""

import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"
A1, B1, C = (str(DATA / name) for name in ("a1.csv", "b1.csv", "c.csv"))
FLEET_C3 = ["--data", C, "--target", "C3", "--train-cells", "C1,C2"]

RUNS = {
    "fit_a1": ["fit", "--data", A1],
    "forecast_a1": ["forecast", "--data", A1, "--kernel", "MA5+MA3", "--seed", "0",
                    "--start", "0.55", "--jobs", "1"],
    "forecast_b1": ["forecast", "--data", B1, "--kernel", "MA5+MA3+NOISE", "--mean", "EXPDEG",
                    "--start", "0.75"],
    "search_a1_jobs1": ["kernel-search", "--data", A1, "--jobs", "1"],
    "search_a1_jobs2": ["kernel-search", "--data", A1, "--jobs", "2"],
    "lookahead_b1": ["lookahead", "--data", B1, "--warm-start"],
    "evaluate_b1_warm": ["evaluate", "--data", B1, "--eol", "0.8", "--warm-start"],
    "evaluate_b1_jobs2": ["evaluate", "--data", B1, "--eol", "0.8", "--jobs", "2"],
    "mogp_c3_warm": ["mogp-evaluate", *FLEET_C3, "--warm-start"],
    "mogp_c3_zero": ["mogp-evaluate", *FLEET_C3, "--mean", "ZERO"],
}
# every run trains with acceptance criterion 10's two restarts
RESTARTS = ["--restarts", "2"]


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    # the runs start in OUTDIR, where a relative PYTHONPATH would find nothing
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(Path(p).resolve()) for p in paths if p)}
    for name, args in RUNS.items():
        cmd = [sys.executable, "-m", "gpprog.cli", *args, *RESTARTS, "--out", name]
        done = subprocess.run(cmd, cwd=outdir, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{name} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
            return 1
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
