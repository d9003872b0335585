"""Spans around gpprog's public entry points, installed from outside ``src/``.

``traced(tracer)`` rebinds each wrapped function under every name a gpprog
module holds it by (``prognostics.train``, ``cli.train`` and
``optimize.train`` are the same function looked up three ways) and patches
the wrapped ``GpModel`` methods on the class; leaving the context restores
the originals.  A span records its name, start, end, parent span and
process.  Spans stay in memory; worker processes forked by a process pool
inherit the wrappers and write their spans to ``spill_dir`` when their
outermost span ends, and ``Tracer.collect`` gathers those files.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import gpprog
import gpprog.cli
from gpprog.gp import GpModel


class Tracer:
    def __init__(self, spill_dir: Path):
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.next_id = 0
        self.largest_model = None  # trained model with the most points, for the kernel timing

    @contextmanager
    def span(self, name: str):
        pid = os.getpid()
        self.next_id += 1
        record = {"id": f"{pid}:{self.next_id}", "parent": self.stack[-1] if self.stack else None,
                  "name": name, "pid": pid, "attrs": {}}
        self.stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        except Exception:
            record["attrs"]["raised"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(record)
            if pid != self.pid and not (self.stack and self.stack[-1].startswith(f"{pid}:")):
                self._spill(pid)

    def _spill(self, pid: int) -> None:
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        with open(self.spill_dir / f"spans-{pid}.jsonl", "a") as fh:
            for s in mine:
                fh.write(json.dumps(s) + "\n")

    def collect(self) -> list[dict]:
        """All spans of the parent and of finished workers; empties the tracer."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return spans


def _train_after(tracer, attrs, args, result):
    records = result.restarts
    winner = next(i for i, r in enumerate(records) if r.final_nlml == result.nlml)
    attrs.update(n=len(args["model"].x), restarts=len(records),
                 lhs_win=winner < args["config"].n_restarts)
    largest = tracer.largest_model
    if os.getpid() == tracer.pid and (largest is None or len(result.model.x) > len(largest.x)):
        tracer.largest_model = result.model


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _search_before(tracer, attrs, args):
    attrs.update(jobs=args["jobs"], worker_cpu=-_children_cpu())


def _search_after(tracer, attrs, args, result):
    # the pool's workers have been joined, so their CPU is in RUSAGE_CHILDREN
    attrs["worker_cpu"] += _children_cpu()


# (module, attribute, span name, hook before the call, hook on the result)
FUNCTIONS = [
    (gpprog.dataset, "load_csv", "dataset.load_csv", None, None),
    (gpprog.gp, "jittered_cholesky", "gp.jittered_cholesky", None,
     lambda t, attrs, args, r: attrs.update(jitter=r[1])),
    (gpprog.optimize, "train", "optimize.train", None, _train_after),
    (gpprog.optimize, "kernel_search", "optimize.kernel_search", _search_before, _search_after),
    (gpprog.prognostics, "evaluate", "prognostics.evaluate", None, None),
    (gpprog.prognostics, "evaluate_mogp", "prognostics.evaluate_mogp", None, None),
    (gpprog.prognostics, "forecast_eol", "prognostics.forecast_eol", None, None),
    (gpprog.prognostics, "find_eol", "prognostics.find_eol", None, None),
    (gpprog.cli, "main", "cli.main", None, None),
]
METHODS = [
    ("nlml_value_and_gradients", "gp.nlml_grad", None, None),
    ("with_opt_vector", "gp.with_opt_vector", None, None),
    ("posterior", "gp.posterior", None, lambda t, attrs, args, r: attrs.update(points=len(r.x))),
    ("decompose_posterior", "gp.decompose_posterior", None, None),
]


def _wrap(tracer, fn, name, before, after):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            if before is None and after is None:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if before is not None:
                before(tracer, attrs, bound.arguments)
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, attrs, bound.arguments, result)
            return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    undo = []
    modules = [m for n, m in sys.modules.items() if n == "gpprog" or n.startswith("gpprog.")]
    for module, attr, name, before, after in FUNCTIONS:
        fn = getattr(module, attr)
        wrapper = _wrap(tracer, fn, name, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, fn))
    for attr, name, before, after in METHODS:
        fn = getattr(GpModel, attr)
        setattr(GpModel, attr, _wrap(tracer, fn, name, before, after))
        undo.append((GpModel, attr, fn))
    try:
        yield tracer
    finally:
        for owner, key, fn in reversed(undo):
            setattr(owner, key, fn)


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered, cursor = 0.0, span["start"]
    for c in sorted(children, key=lambda s: s["start"]):
        lo, hi = max(c["start"], cursor), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span["end"] - span["start"]) - covered


# every per-layer metric a traced run reports, with its unit
LAYER_UNITS = {
    "dataset.load_csv.s": "s",
    "kernels.gram_grads.us": "us",
    "gp.nlml_grad.calls": "count",
    "gp.nlml_grad.s": "s",
    "gp.nlml_grad.us_per_call": "us",
    "gp.nlml_grad.failed": "count",
    "gp.with_opt_vector.calls": "count",
    "gp.with_opt_vector.s": "s",
    "gp.jittered_cholesky.calls": "count",
    "gp.jittered_cholesky.s": "s",
    "gp.jittered_cholesky.jittered": "count",
    "gp.posterior.calls": "count",
    "gp.posterior.s": "s",
    "gp.posterior.points": "count",
    "gp.decompose_posterior.s": "s",
    "optimize.train.calls": "count",
    "optimize.train.s": "s",
    "optimize.train.restarts": "count",
    "optimize.train.evals_per_restart": "ratio",
    "optimize.train.lhs_win_share": "ratio",
    "optimize.kernel_search.pool_busy_share": "ratio",
    "prognostics.forecast_eol.s": "s",
    "prognostics.find_eol.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced job from its spans.

    ``kernels.gram_grads.us`` and ``trace.overhead_s`` are not span figures;
    the run adds them.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def count(name):
        return len(by_name[name])

    def secs(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    nlml_calls = count("gp.nlml_grad")
    train_calls = count("optimize.train")
    restarts = attr_sum("optimize.train", "restarts")
    busy = [s["attrs"]["worker_cpu"] / (s["attrs"]["jobs"] * (s["end"] - s["start"]))
            for s in by_name["optimize.kernel_search"] if s["attrs"]["jobs"] > 1]
    return {
        "dataset.load_csv.s": secs("dataset.load_csv"),
        "gp.nlml_grad.calls": nlml_calls,
        "gp.nlml_grad.s": secs("gp.nlml_grad"),
        "gp.nlml_grad.us_per_call": 1e6 * secs("gp.nlml_grad") / nlml_calls if nlml_calls else 0.0,
        "gp.nlml_grad.failed": attr_sum("gp.nlml_grad", "raised"),
        "gp.with_opt_vector.calls": count("gp.with_opt_vector"),
        "gp.with_opt_vector.s": secs("gp.with_opt_vector"),
        "gp.jittered_cholesky.calls": count("gp.jittered_cholesky"),
        "gp.jittered_cholesky.s": secs("gp.jittered_cholesky"),
        "gp.jittered_cholesky.jittered": sum(1 for s in by_name["gp.jittered_cholesky"]
                                             if s["attrs"].get("jitter", 0.0) > 0.0),
        "gp.posterior.calls": count("gp.posterior"),
        "gp.posterior.s": secs("gp.posterior"),
        "gp.posterior.points": attr_sum("gp.posterior", "points"),
        "gp.decompose_posterior.s": secs("gp.decompose_posterior"),
        "optimize.train.calls": train_calls,
        "optimize.train.s": secs("optimize.train"),
        "optimize.train.restarts": restarts,
        "optimize.train.evals_per_restart": nlml_calls / restarts if restarts else 0.0,
        "optimize.train.lhs_win_share": attr_sum("optimize.train", "lhs_win") / train_calls
        if train_calls else 0.0,
        "optimize.kernel_search.pool_busy_share": statistics.median(busy) if busy else 0.0,
        "prognostics.forecast_eol.s": secs("prognostics.forecast_eol"),
        "prognostics.find_eol.s": secs("prognostics.find_eol"),
        "cli.main.self_s": sum(self_time(s, children[s["id"]]) for s in by_name["cli.main"]),
    }


def layers_not_entered(spans: list[dict]) -> list[str]:
    """Span metrics whose layer no span entered; ``layer_metrics`` reports them as 0.

    ``optimize.kernel_search.pool_busy_share`` counts as entered only by a
    search with more than one worker.
    """
    names = {s["name"] for s in spans}
    wrapped = {name for _, _, name, _, _ in FUNCTIONS} | {name for _, name, _, _ in METHODS}
    if not any(s["attrs"]["jobs"] > 1 for s in spans if s["name"] == "optimize.kernel_search"):
        names.discard("optimize.kernel_search")
    return [k for k in LAYER_UNITS if k.rsplit(".", 1)[0] in wrapped - names]


def time_gram_with_gradients(kernel, points, batches: int = 7, target_s: float = 0.02) -> float:
    """Median microseconds per ``Kernel.gram_with_gradients`` call."""
    t0 = time.perf_counter()
    kernel.gram_with_gradients(points)
    per_call = max(time.perf_counter() - t0, 1e-6)
    reps = max(1, int(target_s / per_call))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            kernel.gram_with_gradients(points)
        samples.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(samples)
