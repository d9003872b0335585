"""BLAS threads: gpprog pins both bundled OpenBLAS builds to one thread.

OpenBLAS splits dpotri (and dpotrf from n of about 150) across its threads,
so without the pin a rolling evaluation's report moves in the last digits
with ``OPENBLAS_NUM_THREADS`` on a machine with more than one core.
"""

import os
import subprocess
import sys
from pathlib import Path

import gpprog
from gpprog import gp

ROOT = Path(__file__).resolve().parents[1]


def _evaluate(out: Path, threads: str) -> dict[str, bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    src = str(Path(gpprog.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["evaluate", "--data", str(ROOT / "data" / "b1.csv"), "--kernel", "MA3",
            "--mean", "EXPDEG", "--eol", "0.8", "--restarts", "1", "--start", "0.85",
            "--warm-start", "--out", str(out)]
    code = "import sys; from gpprog.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                   capture_output=True, timeout=600)
    # manifest.json names the output directory, which differs between the runs
    return {name: (out / name).read_bytes() for name in ("report.json", "report.csv")}


def test_evaluate_reports_do_not_depend_on_blas_threads(tmp_path):
    assert _evaluate(tmp_path / "one", "1") == _evaluate(tmp_path / "two", "2")


def test_missing_openblas_is_reported_on_stderr(monkeypatch, capsys):
    def missing(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(gp.ctypes, "CDLL", missing)
    gp._pin_blas_threads.__wrapped__()
    assert "no bundled OpenBLAS found" in capsys.readouterr().err
