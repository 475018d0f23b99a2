"""Spans recorded from outside the program, and the layer split they give.

Only a traced sample process imports this module.  :func:`install`
replaces the public entry points of each layer module -- module
functions and class methods -- with wrappers that record one span
(name, start, end, parent, attributes) per call in memory;
:meth:`Recorder.write` puts them in one JSON file at the end.  Nothing
under ``src/`` changes.

A function is also rebound in every already-imported ``repro`` module
that holds it under the same name (``import repro`` binds
``execute_trace`` into ``repro.core.autotune`` before any wrapper can be
installed).  Modules imported afterwards -- the experiment modules, via
``repro.experiments.registry`` -- bind the wrapper, so :func:`install`
must run before that import.

Deliberately not wrapped, so their time stays in the caller's layer:
``stable_unit_hash`` and the jitter-hash memo (called once per jitter
key, ~10^5 times per sweep: a wrapper would cost more than the call),
``run_schedule`` and ``op_duration`` inside ``execute_trace``,
``layer_trace`` (lru-cached; counted through ``cache_info()``), the
private slot helpers of ``core.batch`` and ``megasweep._evaluate_chunk``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Buckets that take the whole subtree of their spans (the suite fit).
INCLUSIVE_BUCKETS = ("session.suite_fit_s",)

#: Buckets of vectorized spans called directly by a batch span.
VECTORIZED = {
    "vectorized.gemm": "vectorized.gemm_s",
    "vectorized.elementwise": "vectorized.elementwise_s",
    "vectorized.collective": "vectorized.collective_s",
    "vectorized.schedule": "vectorized.schedule_s",
}

#: Span name -> the layer bucket its self time is charged to.
BUCKETS = {
    "bench.setup": "bench",
    "bench.query": "bench",
    "gridplan.chunk": "gridplan.chunk_s",
    "bounds.chunk_bounds": "bounds.chunk_bounds_s",
    "batch.batch_execute": "batch.self_s",
    "batch.batch_project": "batch.self_s",
    "batch.batch_overlap_roi": "batch.self_s",
    "reducers.observe": "reducers.observe_s",
    "reducers.merge": "reducers.merge_s",
    "reducers.can_prune": "reducers.can_prune_s",
    "megasweep.stream_sweep": "megasweep.self_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "session.stream_sweep": "session.self_s",
    "session.run_all": "session.self_s",
    "session.suite": "session.suite_fit_s",
    "executor.execute_trace": "executor.execute_trace_s",
    "experiments.run": "experiments.self_s",
}


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        #: ``[id, parent, name, start_ns, end_ns, attrs]`` per span.
        self.spans: List[list] = []
        self.counters: Dict[str, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            record = [len(self.spans), stack[-1] if stack else None, name,
                      time.perf_counter_ns(), 0, None]
            self.spans.append(record)
        stack.append(record[0])
        return record

    def _close(self, record: list) -> None:
        record[4] = time.perf_counter_ns()
        self._stack().pop()

    def run(self, name: str, fn: Callable[[], object]) -> object:
        """Call ``fn`` inside a span named ``name`` (a root, usually)."""
        record = self._open(name)
        try:
            return fn()
        finally:
            self._close(record)

    def wrap(self, fn: Callable, name: str,
             measure: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``measure(args, result)``
        gives the span's attributes."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    record[5] = measure(args, result)
                return result
            finally:
                recorder._close(record)

        return traced

    def write(self, path: str) -> None:
        """Write every span and counter to ``path`` as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters},
                      handle)


def _grid_rows(args, result) -> Dict[str, int]:
    return {"rows": len(args[0])}


def _chunk_rows(args, result) -> Dict[str, int]:
    return {"rows": len(result), "raw": int(result.raw_rows)}


def _elements(args, result) -> Dict[str, int]:
    return {"elements": int(len(result))}


def _observed(args, result) -> Dict[str, int]:
    return {"rows": int(len(args[1].offsets))}


#: ``(module, attribute path, span name, measure)`` of every wrapped
#: entry point.  Reducer methods are wrapped on every class defining
#: them (see :func:`install`).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.gridplan", "GridSpec.chunk", "gridplan.chunk",
     _chunk_rows),
    ("repro.core.bounds", "chunk_bounds", "bounds.chunk_bounds", None),
    ("repro.core.batch", "batch_execute", "batch.batch_execute",
     _grid_rows),
    ("repro.core.batch", "batch_project", "batch.batch_project",
     _grid_rows),
    ("repro.core.batch", "batch_overlap_roi", "batch.batch_overlap_roi",
     _grid_rows),
    ("repro.sim.vectorized", "gemm_times", "vectorized.gemm", _elements),
    ("repro.sim.vectorized", "elementwise_times", "vectorized.elementwise",
     _elements),
    ("repro.sim.vectorized", "cluster_all_reduce_times",
     "vectorized.collective", _elements),
    ("repro.sim.vectorized", "closed_form_breakdown", "vectorized.schedule",
     None),
    ("repro.runtime.megasweep", "stream_sweep", "megasweep.stream_sweep",
     None),
    ("repro.runtime.cache", "ResultCache.get", "cache.get", None),
    ("repro.runtime.cache", "ResultCache.put", "cache.put", None),
    ("repro.runtime.session", "Session.stream_sweep",
     "session.stream_sweep", None),
    ("repro.runtime.session", "Session.run_all", "session.run_all", None),
    ("repro.runtime.session", "Session.suite", "session.suite", None),
    ("repro.runtime.session", "Session.run", "experiments.run", None),
    ("repro.sim.executor", "execute_trace", "executor.execute_trace", None),
)

REDUCER_METHODS = {"observe": ("reducers.observe", _observed),
                   "merge": ("reducers.merge", None),
                   "can_prune": ("reducers.can_prune", None)}


def _rebind_everywhere(original: Callable, name: str,
                       wrapper: Callable) -> None:
    for module_name, module in list(sys.modules.items()):
        if (module_name == "repro" or module_name.startswith("repro.")) \
                and getattr(module, name, None) is original:
            setattr(module, name, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` and the reducers.

    Raises:
        RuntimeError: when ``repro.experiments.registry`` is already
            imported (its experiment modules would keep the unwrapped
            ``execute_trace``).
    """
    import importlib

    if "repro.experiments.registry" in sys.modules:
        raise RuntimeError("install wrappers before importing the "
                           "experiment registry")
    for module_name, path, span, measure in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        original = getattr(owner, attribute)
        wrapper = recorder.wrap(original, span, measure)
        setattr(owner, attribute, wrapper)
        if not classes:
            _rebind_everywhere(original, attribute, wrapper)

    from repro.core import reducers

    pending = [reducers.Reducer]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method, (span, measure) in REDUCER_METHODS.items():
            if method in vars(cls):
                setattr(cls, method,
                        recorder.wrap(vars(cls)[method], span, measure))


# -- analysis (pure; used by run.py and the self-test) -------------------


def span_buckets(spans: List[list]) -> Dict[int, str]:
    """The layer bucket each span's self time is charged to.

    :data:`BUCKETS` names it, except that everything under an
    :data:`INCLUSIVE_BUCKETS` span is charged there, and a vectorized span
    not called directly by a batch span is charged to its caller's
    bucket (under bounds: ``bounds.chunk_bounds_s``).  A parent is
    opened, and so recorded, before its children.
    """
    buckets: Dict[int, str] = {}
    names = {span[0]: span[2] for span in spans}
    for span_id, parent, name, *_ in spans:
        above = buckets.get(parent) if parent is not None else None
        if above in INCLUSIVE_BUCKETS:
            buckets[span_id] = above
        elif name in VECTORIZED and parent is not None \
                and not names[parent].startswith("batch."):
            buckets[span_id] = above
        else:
            buckets[span_id] = VECTORIZED.get(name) or BUCKETS[name]
    return buckets


def bucket_times(spans: List[list]) -> Tuple[Dict[str, int], int]:
    """Self time per layer bucket (ns) and the summed root durations.

    A span's self time is its duration minus its children's, so every
    nanosecond of every root lands in exactly one bucket and the
    buckets sum to the roots' total.
    """
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span[1] is not None:
            child_ns[span[1]] = child_ns.get(span[1], 0) \
                + span[4] - span[3]
    owner = span_buckets(spans)
    buckets: Dict[str, int] = {}
    roots_ns = 0
    for span in spans:
        duration = span[4] - span[3]
        if span[1] is None:
            roots_ns += duration
        bucket = owner[span[0]]
        buckets[bucket] = buckets.get(bucket, 0) + duration \
            - child_ns.get(span[0], 0)
    return buckets, roots_ns


def layer_metrics(trace: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of one traced sample (see README.md)."""
    spans = trace["spans"]
    counters = trace["counters"]
    buckets, roots_ns = bucket_times(spans)
    metrics: Dict[str, float] = {
        name: 0.0 for name in set(BUCKETS.values()) | set(VECTORIZED.values())
        if name != "bench"
    }
    for name, ns in buckets.items():
        if name != "bench":
            metrics[name] = ns / 1e9
    owner = span_buckets(spans)

    def count(name: str) -> int:
        return sum(1 for span in spans if span[2] == name)

    def total(name: str, key: str) -> int:
        return sum(span[5][key] for span in spans
                   if span[2] == name and span[5])

    chunk_raw = total("gridplan.chunk", "raw")
    prune = counters.get("prune") or {}
    metrics.update({
        "gridplan.chunks": count("gridplan.chunk"),
        "gridplan.feasible_ratio": (total("gridplan.chunk", "rows")
                                    / chunk_raw if chunk_raw else 0.0),
        "bounds.chunks": count("bounds.chunk_bounds"),
        "bounds.pruned_ratio": (prune["pruned_chunks"] / prune["chunks"]
                                if prune.get("enabled") else 0.0),
        "bounds.exact_point_ratio": (prune["exact_point_fraction"]
                                     if prune.get("enabled") else 0.0),
        "batch.calls": sum(count(name) for name in BUCKETS
                           if name.startswith("batch.")),
        "batch.rows": sum(total(name, "rows") for name in BUCKETS
                          if name.startswith("batch.")),
        "vectorized.elements": sum(
            span[5]["elements"] for span in spans
            if span[5] and "elements" in span[5]
            and owner[span[0]] in VECTORIZED.values()),
        "reducers.observed_rows": total("reducers.observe", "rows"),
        "executor.calls": count("executor.execute_trace"),
        "tracing.wall_s": roots_ns / 1e9,
        "tracing.query_s": sum(span[4] - span[3] for span in spans
                               if span[2] == "bench.query") / 1e9,
    })
    for name in ("cache.hits", "cache.misses", "cache.writes",
                 "cache.disk_bytes", "trace.layer_trace_hits",
                 "trace.layer_trace_misses"):
        metrics[name] = counters.get(name, 0)
    return metrics
