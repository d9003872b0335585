"""Time one set-up of a workload in a fresh interpreter; print the seconds and peak RSS in MB.

Usage: setup_probe.py WORKLOAD SEED WORKDIR

The clock starts after the interpreter and this script's standard-library
imports, so the harness's own start-up is left out.  What it times is what
every fresh process that runs the workload pays: importing numpy, scipy and
gpprog, then generating or loading the workload's inputs.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401

    import gpprog  # noqa: F401
    import workloads

    workloads.WORKLOADS[name]().build_inputs(root, workdir, seed)
    elapsed = time.perf_counter() - start
    # VmHWM, not ru_maxrss: across exec Linux keeps the spawning process's peak in ru_maxrss
    status = Path("/proc/self/status").read_text()
    hwm_kib = next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:"))
    print(repr(elapsed), hwm_kib / 1024.0)


if __name__ == "__main__":
    main()
