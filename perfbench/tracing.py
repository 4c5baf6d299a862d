"""Benchmark-side spans around the calls into each layer of ``repro``.

The traced run wraps public layer functions and methods *from the
benchmark's own files*: each target is replaced, in every loaded ``repro``
module that holds it, by a wrapper that records a span (name, start, end,
parent, thread).  Nothing under ``src/`` changes, and :meth:`Tracer.uninstall`
puts every original back.  Spans stay in memory; :func:`write_chrome_trace`
writes them out when the run ends.
"""

from __future__ import annotations

import collections
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from importlib import import_module

#: ``(layer, module, attribute)``: module-level functions to wrap.
FUNCTIONS = [
    ("frontend.parse", "repro.frontend.lowering", "parse_program"),
    ("inline.inline", "repro.inline.abstract_inline", "inline_program"),
    ("normalize.normalise", "repro.normalize.pipeline", "normalize"),
    ("layout.layout", "repro.layout.memory", "layout_for_refs"),
    ("reuse.build", "repro.reuse.generator", "build_reuse_table"),
    ("cme.classifier_build", "repro.cme.backend", "make_classifier"),
    ("cme.estimate_ref", "repro.cme.estimate", "estimate_ref_misses"),
    ("cme.find_ref", "repro.cme.find", "find_ref_misses"),
    ("cme.regions_ref", "repro.cme.regions", "region_ref_misses"),
    ("sim.trace", "repro.sim.batch", "trace_arrays"),
    ("sim.kernel", "repro.sim.batch", "miss_kernel"),
]

#: ``(layer, module, class, method)``: methods to wrap on the class.
METHODS = [
    ("iteration.walker_build", "repro.iteration.walker", "Walker", "__init__"),
    ("iteration.trace_index", "repro.iteration.batch", "TraceIndex", "__init__"),
    ("polyhedra.sample", "repro.polyhedra.space", "BoundedSpace", "count"),
    ("polyhedra.sample", "repro.polyhedra.space", "BoundedSpace", "sample"),
    ("memo.flush", "repro.memo.memoizer", "Memoizer", "flush"),
]


def _count_vectors(table) -> dict:
    return {"reuse.vectors": len(table.all_vectors())}


def _count_points(result) -> dict:
    return {"cme.points": result.analysed}


#: Work counts read from a wrapped call's return value.
COUNTERS = {"reuse.build": _count_vectors, "cme.estimate_ref": _count_points}


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, tid)
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []  # (owner, attribute, original)

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident())
            )

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts.update(counter(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target by its traced wrapper."""
        for name, module, attr in FUNCTIONS:
            original = getattr(import_module(module), attr)
            traced = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._patched.append((mod, key, original))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(import_module(module), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child spans."""
        child_time: collections.Counter = collections.Counter()
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: collections.Counter = collections.Counter()
        for span_id, _, name, start, end, _ in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    def inclusive_times(self) -> dict[str, float]:
        """Summed wall time per span name, counting only outermost spans of
        that name (a name nested in itself is not counted twice)."""
        names = {span_id: name for span_id, _, name, _, _, _ in self.spans}
        totals: collections.Counter = collections.Counter()
        for _, parent, name, start, end, _ in self.spans:
            if names.get(parent) != name:
                totals[name] += end - start
        return dict(totals)


def write_chrome_trace(tracer: Tracer, path: str, meta: dict) -> None:
    """The spans as a Chrome trace (``chrome://tracing``, Perfetto)."""
    if not tracer.spans:
        return
    origin = min(s[3] for s in tracer.spans)
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": tid,
            "args": {"id": span_id, "parent": parent},
        }
        for span_id, parent, name, start, end, tid in tracer.spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "otherData": meta}, fh)
