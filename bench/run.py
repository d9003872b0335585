#!/usr/bin/env python3
"""Run one gpprog benchmark workload and print its metrics.

    python3 bench/run.py --workload rolling_b1 --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15

A run times its workload's fixed job again and again for ``--seconds``
seconds (always at least once) and checks every job's outputs.  With
``--trace 0`` it then measures set-up in fresh interpreters and reports the
end-to-end metrics; with ``--trace 1`` it spends the first half of the time
untraced and the rest traced, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
``bench/out/run-<workload>-s<seed>-t<trace>.json`` with the environment
and every sample, and a traced run writes its spans to
``bench/out/trace-<workload>-s<seed>.jsonl``.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy is first imported:
# the pool workers of search_a1_par inherit it, and nproc is 2.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
WORKLOADS = ("rolling_b1", "fleet_c3", "forecast_long", "search_a1_par")
SETUP_SAMPLES = 15
REQUIRED = ("src/gpprog/__init__.py", "data/a1.csv", "data/b1.csv", "data/c.csv")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    return args


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_samples(name: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Set-up seconds and peak RSS (MB) of fresh interpreters; the first run only warms the file cache.

    Each probe writes its inputs into a new directory: rewriting a file written
    moments ago waits for its writeback and would time the disk.
    """
    samples, rss = [], []
    for i in range(SETUP_SAMPLES + 1):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(probe_dir)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120).stdout
        seconds, mb = out.split()[-2:]
        if i:
            samples.append(float(seconds))
        rss.append(float(mb))
    return samples, rss


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child, whichever is higher (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_workload(args) -> tuple[dict, dict]:
    """Set up, run jobs for ``args.seconds``, check them; return (result line, run record)."""
    import workloads
    from oracle import CheckFailed
    from tracing import (LAYER_UNITS, Tracer, layer_metrics, layers_not_entered,
                         time_gram_with_gradients, traced)

    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=OUT))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "unit": workload.unit}
    walls = {False: [], True: []}  # job wall times, untraced and traced
    cpus, layers, last_spans, setup, probe_rss, not_entered = [], [], [], [], [], []
    attempted = failed = 0
    problem = None
    try:
        tracer = Tracer(workdir)
        with traced(tracer) if args.trace else contextlib.nullcontext():
            inputs = workload.build_inputs(ROOT, workdir, args.seed)
        setup_spans = tracer.collect()

        begin = time.perf_counter()
        untraced_for = args.seconds / 2 if args.trace else args.seconds
        while True:
            tracing = bool(args.trace and walls[False] and time.perf_counter() - begin >= untraced_for)
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            with traced(tracer) if tracing else contextlib.nullcontext():
                output = workload.run_job(inputs)
            walls[tracing].append(time.perf_counter() - t0)
            cpus.append(cpu_seconds() - cpu0)
            if tracing:
                last_spans = tracer.collect()
                layers.append(layer_metrics(last_spans))
            try:
                ops, bad = workload.check(inputs, output)
            except CheckFailed as exc:
                problem = str(exc)
                break
            attempted += ops
            failed += bad
            if time.perf_counter() - begin >= args.seconds and (walls[True] or not args.trace):
                break

        if args.trace:
            metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]} if layers else {}
            metrics["dataset.load_csv.s"] = metrics.get("dataset.load_csv.s", 0.0) + sum(
                s["end"] - s["start"] for s in setup_spans if s["name"] == "dataset.load_csv")
            probe = None if problem else workload.gram_probe(inputs, output, tracer.largest_model)
            metrics["kernels.gram_grads.us"] = time_gram_with_gradients(*probe) if probe else 0.0
            metrics["trace.overhead_s"] = (
                statistics.median(walls[True]) - statistics.median(walls[False]) if walls[True] else 0.0)
            metrics = {k: (metrics[k], LAYER_UNITS[k]) for k in LAYER_UNITS if k in metrics}
            not_entered = layers_not_entered(setup_spans + last_spans)
            with open(OUT / f"trace-{args.workload}-s{args.seed}.jsonl", "w") as fh:
                for s in setup_spans + last_spans:
                    fh.write(json.dumps(s) + "\n")
        else:
            peak_mb = peak_rss_mb()  # before any set-up probe is waited for: they are not the workload
            setup, probe_rss = setup_samples(args.workload, args.seed, workdir)
            metrics = {
                "wall_s": (statistics.median(walls[False]), "s"),
                "cpu_s": (statistics.median(cpus), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
        record.update(walls_untraced=walls[False], walls_traced=walls[True], cpus=cpus,
                      setup_samples=setup, setup_probe_rss_mb=probe_rss,
                      layers_not_entered=not_entered, problem=problem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record["result"] = result
    with open(OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def print_result(name: str, result: dict, unit: str) -> None:
    for key, m in result["metrics"].items():
        print(f"{name} {key}: {m['value']:.6g} {m['unit']}")
    print(f"{name} attempted: {result['attempted']} {unit}, failed: {result['failed']}, "
          f"correct: {result['correct']}")


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        returncode = subprocess.run(cmd).returncode
        code = code or returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gpprog checkout, missing {missing} under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(1, str(ROOT / "src"))
    import gpprog

    if Path(gpprog.__file__).resolve().parent != ROOT / "src" / "gpprog":
        print(f"error: gpprog imported from {gpprog.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, record = run_workload(args)
    print_result(args.workload, result, record["unit"])
    if record["layers_not_entered"]:
        print(f"{args.workload} layers not entered, reported as 0: "
              f"{', '.join(record['layers_not_entered'])}")
    if record["problem"]:
        print(f"error: {args.workload}: {record['problem']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
