"""The hierarchical span tracer — where analysis time goes.

A *span* is a named, timed region of the pipeline (``prepare/normalise``,
``reuse/build_table``, ``cme/estimate``).  Spans nest: entering a span makes
it the parent of spans opened inside it, which yields a tree mirroring the
Fig. 7 pipeline.  Repeated spans with the same name under the same parent
**aggregate** into one node (count + total seconds), so a per-reference span
entered thousands of times stays one line in the tree instead of thousands.

Timings use :func:`time.perf_counter` — the monotonic high-resolution clock
— consistently with the ``elapsed_seconds``/``solver_seconds`` fields of
:class:`~repro.cme.result.MissReport`.

Concurrency: threads share one tracer; each thread keeps its own span
stack (``threading.local``) rooted at the same tree, and node updates are
guarded by the tracer lock.

When observability is disabled, :data:`NULL_TRACER` stands in:
``span(...)`` returns a shared reusable no-op context manager, so the
disabled path allocates nothing per span.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Callable, Optional


class SpanNode:
    """One aggregated node of the span tree."""

    __slots__ = ("name", "count", "total_seconds", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        self.children: dict[str, "SpanNode"] = {}

    def as_dict(self) -> dict:
        """The stable JSON form: ``{name, count, seconds, children}``."""
        return {
            "name": self.name,
            "count": self.count,
            "seconds": self.total_seconds,
            "children": [c.as_dict() for c in self.children.values()],
        }


class _SpanContext:
    """Context manager for one span entry (exception-safe)."""

    __slots__ = ("_tracer", "_name", "_node", "_started")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1]
        node = parent.children.get(self._name)
        if node is None:
            with tracer._lock:
                node = parent.children.get(self._name)
                if node is None:
                    node = SpanNode(self._name)
                    parent.children[self._name] = node
        self._node = node
        stack.append(node)
        if tracer.on_enter is not None:
            tracer.on_enter(self._name)
        self._started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter() - self._started
        tracer = self._tracer
        if tracer.on_exit is not None:
            tracer.on_exit(self._name)
        if tracer.timeline is not None:
            # The recorder stores the *same* elapsed value the tree
            # accumulates, so timeline durations sum to tree seconds
            # exactly (the `--timeline-out` vs `--metrics-out` contract).
            tracer.timeline.record(self._name, self._started, elapsed)
        node = self._node
        with tracer._lock:
            node.count += 1
            node.total_seconds += elapsed
        stack = tracer._stack()
        # Unwind to (and past) our node even if an exception skipped inner
        # bookkeeping — a span never leaks its children onto the stack.
        while len(stack) > 1 and stack[-1] is not node:
            stack.pop()
        if len(stack) > 1:
            stack.pop()
        return False


class Tracer:
    """Hierarchical, aggregating span tracer."""

    def __init__(self):
        self.root = SpanNode("root")
        self._lock = threading.RLock()
        self._local = threading.local()
        self._generation = 0
        #: Optional hooks called with the span name on enter/exit — the
        #: profiling layer (:mod:`repro.obs.profile`) attaches here.
        self.on_enter: Optional[Callable[[str], None]] = None
        self.on_exit: Optional[Callable[[str], None]] = None
        #: Optional per-span event sink — a
        #: :class:`repro.obs.timeline.TimelineRecorder` (or anything with a
        #: ``record(name, start, elapsed)`` method).  Unlike the aggregating
        #: tree, the sink sees every individual span entry, which is what a
        #: Chrome-trace timeline needs.
        self.timeline = None

    def _stack(self) -> list[SpanNode]:
        local = self._local
        if getattr(local, "generation", None) != self._generation:
            local.stack = [self.root]
            local.generation = self._generation
        return local.stack

    # -- recording -----------------------------------------------------------

    def span(self, name: str) -> _SpanContext:
        """A context manager timing one region under the current span."""
        return _SpanContext(self, name)

    def current_name(self) -> str:
        """Name of the innermost open span (``"root"`` at top level)."""
        return self._stack()[-1].name

    # -- aggregation ---------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Serialise the finished tree (top-level spans, recursively)."""
        with self._lock:
            return [c.as_dict() for c in self.root.children.values()]

    def phase_times(self) -> list[tuple[str, int, float]]:
        """``(name, count, seconds)`` for each top-level span, in order."""
        with self._lock:
            return [
                (c.name, c.count, c.total_seconds)
                for c in self.root.children.values()
            ]

    def reset(self) -> None:
        """Drop the tree and every thread's span stack."""
        with self._lock:
            self.root = SpanNode("root")
            self._generation += 1


# -- disabled mode -------------------------------------------------------------


class _NullSpan:
    """Shared, reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled-mode tracer: one shared no-op span, empty snapshots."""

    on_enter = None
    on_exit = None
    timeline = None

    def span(self, name: str) -> _NullSpan:
        return NULL_SPAN

    def current_name(self) -> str:
        return "root"

    def snapshot(self) -> list[dict]:
        return []

    def phase_times(self) -> list[tuple[str, int, float]]:
        return []

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()


def traced(name: str) -> Callable:
    """Decorator form: run the function body inside ``span(name)``.

    The tracer is resolved at *call* time through :func:`repro.obs.span`,
    so decorating a function keeps zero overhead while observability is
    disabled and starts tracing the moment it is enabled.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from repro import obs

            with obs.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
