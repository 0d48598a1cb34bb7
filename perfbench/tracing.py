"""Spans recorded from outside the program, and the per-layer metrics made from them.

`install` replaces the public functions of `engine`, `greedy`, `montecarlo`
and `cli.main` with wrappers that record one span per call, wherever the
program holds a reference to them (also the names `cli` and `montecarlo`
import directly, such as `cli.verify_tag_marginals` and
`montecarlo.mu_t_exact`), and it replaces `montecarlo.ProcessPoolExecutor`
with a subclass that records a `montecarlo.pool` span from `with` entry to
shutdown. No file of the program changes. `uninstall` puts every original
back.

A span is a dict with name, start, end, id, parent, pid and run id. Spans
are kept in memory; the measured process writes them all into its result
at exit (see child.py). Pool workers are forked, so they inherit the wrappers
and the parent's open spans; a worker appends its spans to
`spans-<pid>.jsonl` in the trace directory each time its own outermost span
ends, because forked pool workers exit without running exit handlers.

A span's self time is its duration minus the union of its children's
intervals, counting only children in the same process: a parent waiting on
a pool is busy waiting, and that wait is its own time.
"""

from __future__ import annotations

import json
import math
import os
import time
import tracemalloc
from pathlib import Path

import common

WRAPPED_FUNCTIONS = {
    "engine": ("chunk_uniforms", "batch_tag_matrix", "batch_accept", "batch_last_tag_time",
               "batch_greedy_maximum"),
    "greedy": ("mu_exact", "mu_t_exact", "check_mu_monotonicity"),
    "montecarlo": ("threshold_sweep", "estimate_success", "empirical_greedy_max",
                   "verify_tag_marginals", "verify_tag_independence", "verify_tag_joint",
                   "verify_last_tag_uniform", "verify_tagged_given_arrival"),
    "cli": ("main",),
}

MONTECARLO_FUNCTIONS = ("threshold_sweep", "verify_tag_marginals", "verify_tag_independence",
                        "verify_last_tag_uniform", "verify_tagged_given_arrival")
POOL_SPAN = "montecarlo.pool"
MARKER = "__perfbench_span__"


class Tracer:
    """Span recorder of one traced run; survives fork into pool workers."""

    def __init__(self, run_id: str, out_dir: Path):
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.tag = str(self.pid)
        self.forked = False
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.base = 0
        self.seq = 0

    def begin(self) -> tuple[str, str | None, float]:
        pid = os.getpid()
        if pid != self.pid:
            # first span in a forked worker: the inherited open spans are
            # the parent's; keep them as parents, drop the inherited records
            self.pid, self.forked, self.spans, self.base = pid, True, [], len(self.stack)
            self.tag = f"{pid}@{time.perf_counter_ns()}"  # unique even if a pid is reused
        self.seq += 1
        sid = f"{self.tag}-{self.seq}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, name: str, sid: str, parent: str | None, start: float, **attrs) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append({"name": name, "start": start, "end": end, "id": sid, "parent": parent,
                           "pid": self.pid, "run": self.run_id, **attrs})
        if self.forked and len(self.stack) == self.base:
            self.flush()

    def flush(self) -> None:
        if not self.spans:
            return
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """This process's spans plus every span pool workers wrote out."""
        out = list(self.spans)
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
        return out


# -- attributes recorded per call ---------------------------------------------


def _chunk_attrs(args, kwargs, result):
    return {"chunk": int(args[2])} if len(args) > 2 else {}


def _tag_matrix_attrs(args, kwargs, result):
    return {"rows": int(result[0].shape[0])}


def _mu_exact_attrs(args, kwargs, result):
    return {"rankings": math.factorial(args[0].n)}


ATTRS = {
    "engine.chunk_uniforms": _chunk_attrs,
    "engine.batch_tag_matrix": _tag_matrix_attrs,
    "greedy.mu_exact": _mu_exact_attrs,
}
# calls whose tracemalloc peak is recorded; tracemalloc runs only inside them
MEMORY_SPANS = ("engine.batch_tag_matrix",)


def _wrap(tracer: Tracer, name: str, fn):
    attrs_of = ATTRS.get(name)
    track_memory = name in MEMORY_SPANS

    def wrapper(*args, **kwargs):
        sid, parent, start = tracer.begin()
        extra = {}
        if track_memory:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                extra = attrs_of(args, kwargs, result)
            return result
        finally:
            if track_memory:
                extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            tracer.end(name, sid, parent, start, **extra)

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    setattr(wrapper, MARKER, name)
    return wrapper


def _traced_pool_class(tracer: Tracer, base):
    class TracedPool(base):
        def __enter__(self):
            self._span = tracer.begin()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                sid, parent, start = self._span
                tracer.end(POOL_SPAN, sid, parent, start, workers=self._max_workers)

    setattr(TracedPool, MARKER, POOL_SPAN)
    return TracedPool


def _package_modules():
    import sys

    import poset_secretary  # noqa: F401  (loads every submodule)

    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "poset_secretary" or k.startswith("poset_secretary."))]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every reference to the traced functions; returns what `uninstall` needs."""
    from poset_secretary import cli, engine, greedy, montecarlo

    defining = {"engine": engine, "greedy": greedy, "montecarlo": montecarlo, "cli": cli}
    replacement = {}
    for short, names in WRAPPED_FUNCTIONS.items():
        for fn_name in names:
            fn = getattr(defining[short], fn_name)
            replacement[id(fn)] = (fn, _wrap(tracer, f"{short}.{fn_name}", fn))
    pool = montecarlo.ProcessPoolExecutor
    replacement[id(pool)] = (pool, _traced_pool_class(tracer, pool))

    undo = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])
    return undo


def uninstall(undo) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def installed_wrappers() -> list[str]:
    """Names of package attributes that currently hold a wrapper."""
    return [f"{m.__name__}.{attr}" for m in _package_modules()
            for attr, value in vars(m).items() if hasattr(value, MARKER)]


# -- span arithmetic ------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the union of its same-process children, clipped to it."""
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None or parent["pid"] != s["pid"]:
            continue
        lo, hi = max(s["start"], parent["start"]), min(s["end"], parent["end"])
        if hi > lo:
            children.setdefault(parent["id"], []).append((lo, hi))
    return {s["id"]: (s["end"] - s["start"]) - union_length(children.get(s["id"], ()))
            for s in spans}


def layer_metrics(spans, main_pid: int, cpu_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, from its spans.

    `cpu_s` is the repetition's CPU (process plus pool workers) during
    cli.main; pool overhead is what of it no span's own work accounts for.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s["id"]] for s in by_name.get(name, ()))

    def total_s(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    for name in ("engine.chunk_uniforms", "engine.batch_tag_matrix", "engine.batch_accept",
                 "engine.batch_last_tag_time", "greedy.mu_exact", "greedy.mu_t_exact"):
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.calls"] = calls(name)

    tag = by_name.get("engine.batch_tag_matrix", [])
    rows = sum(s["rows"] for s in tag)
    tag_self = out["engine.batch_tag_matrix.self_s"]
    durations_ms = [(s["end"] - s["start"]) * 1e3 for s in tag]
    out["engine.batch_tag_matrix.rows"] = rows
    out["engine.batch_tag_matrix.rows_per_s"] = rows / tag_self if tag_self > 0 else 0.0
    deciles = common.quantiles(durations_ms, 10)
    out["engine.batch_tag_matrix.call_p50_ms"] = deciles[4]
    out["engine.batch_tag_matrix.call_p90_ms"] = deciles[8]
    out["engine.batch_tag_matrix.peak_mb"] = max((s["peak_bytes"] for s in tag), default=0) / 2**20

    out["montecarlo.self_s"] = sum(selfs[s["id"]] for s in spans if s["name"].startswith("montecarlo."))
    for fn in MONTECARLO_FUNCTIONS:
        out[f"montecarlo.{fn}.s"] = total_s(f"montecarlo.{fn}")
    chunks = {s["chunk"] for s in by_name.get("engine.chunk_uniforms", ())}
    out["montecarlo.passes_per_chunk"] = calls("engine.batch_tag_matrix") / len(chunks) if chunks else 0.0
    out["montecarlo.pools"] = calls(POOL_SPAN)
    busy = sum(selfs[s["id"]] for s in spans if s["pid"] != main_pid or s["name"] != POOL_SPAN)
    out["montecarlo.pool.overhead_cpu_s"] = cpu_s - busy

    mu_self = out["greedy.mu_exact.self_s"]
    rankings = sum(s["rankings"] for s in by_name.get("greedy.mu_exact", ()))
    out["greedy.mu_exact.rankings_per_s"] = rankings / mu_self if mu_self > 0 else 0.0
    out["greedy.check_mu_monotonicity.s"] = total_s("greedy.check_mu_monotonicity")
    out["cli.self_s"] = self_s("cli.main")
    return out
