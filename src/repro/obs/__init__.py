"""``repro.obs`` — pipeline-wide observability (tracing, metrics, profiling).

The paper's headline claim is that analytical CME prediction is *fast
enough to sit inside a compiler*; this subsystem answers *where the time
goes* — normalisation vs. reuse-vector solving vs. polyhedral point
counting vs. CME classification — and *how much work* each phase performs
(integer-solver calls, reuse vectors per kind, points classified per
outcome, simulated accesses).

Three layers, all zero-dependency:

* :mod:`repro.obs.tracer` — a hierarchical span tracer
  (``obs.span("reuse/build_table")``) with monotonic-clock timings,
  context-manager and decorator APIs, and thread-safe accumulation;
* :mod:`repro.obs.registry` — counters, gauges and histograms under a
  stable dotted namespace (``polyhedra.intsolve.calls``,
  ``cme.points.classified``, ...);
* :mod:`repro.obs.export` — a stderr span-tree renderer, a stable JSON
  schema (``repro.metrics/v1``) and its validator;
  :mod:`repro.obs.profile` adds an opt-in ``cProfile`` hook around any
  named span.

**Off by default, free when off.**  The module-level state starts as the
null tracer/registry: ``obs.span(...)`` returns one shared no-op context
manager and ``obs.counter(...)`` one shared no-op counter, so instrumented
hot paths allocate nothing per event.  :func:`enable` swaps in live
instances; instrumented code resolves them through the module functions at
call time, so enabling mid-session takes effect immediately.

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("analyze"):
        report = analyze(prepared, cache)
    print(obs.render())                 # span tree
    print(obs.to_json(obs.snapshot()))  # machine-readable export
"""

from __future__ import annotations

from typing import Union

from repro.obs.export import (
    SCHEMA,
    build_snapshot,
    render_tree,
    to_json,
    top_counters,
    validate_snapshot,
)
from repro.obs.profile import SpanProfiler
from repro.obs.timeline import TimelineRecorder
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanNode,
    Tracer,
    traced,
)

__all__ = [
    "SCHEMA",
    "SpanProfiler",
    "TimelineRecorder",
    "enable_timeline",
    "timeline",
    "timeline_enabled",
    "timeline_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Tracer",
    "NullTracer",
    "SpanNode",
    "traced",
    "enable",
    "disable",
    "reset",
    "is_enabled",
    "tracer",
    "registry",
    "span",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "render",
    "phase_times",
    "build_snapshot",
    "render_tree",
    "to_json",
    "top_counters",
    "validate_snapshot",
]

_tracer: Union[Tracer, NullTracer] = NULL_TRACER
_registry: Union[MetricsRegistry, NullRegistry] = NULL_REGISTRY
_timeline: Union[TimelineRecorder, None] = None


def enable() -> None:
    """Switch observability on (idempotent; existing data is kept)."""
    global _tracer, _registry
    if isinstance(_tracer, NullTracer):
        _tracer = Tracer()
        if _timeline is not None:
            _tracer.timeline = _timeline
    if isinstance(_registry, NullRegistry):
        _registry = MetricsRegistry()


def disable() -> None:
    """Switch observability off, dropping any recorded data."""
    global _tracer, _registry, _timeline
    _tracer = NULL_TRACER
    _registry = NULL_REGISTRY
    _timeline = None


def reset() -> None:
    """Drop recorded data but keep the current on/off state."""
    _tracer.reset()
    _registry.reset()
    if _timeline is not None:
        _timeline.clear()


def is_enabled() -> bool:
    """True when live (non-null) instruments are installed."""
    return not isinstance(_registry, NullRegistry)


# -- accessors (resolved at call time, so enable/disable apply immediately) ----


def tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (the null tracer while disabled)."""
    return _tracer


def registry() -> Union[MetricsRegistry, NullRegistry]:
    """The active metrics registry (the null registry while disabled)."""
    return _registry


def span(name: str):
    """Context manager timing ``name`` under the current span."""
    return _tracer.span(name)


def counter(name: str):
    """The counter called ``name`` (shared no-op while disabled)."""
    return _registry.counter(name)


def gauge(name: str):
    """The gauge called ``name`` (shared no-op while disabled)."""
    return _registry.gauge(name)


def histogram(name: str):
    """The histogram called ``name`` (shared no-op while disabled)."""
    return _registry.histogram(name)


# -- timelines -----------------------------------------------------------------


def enable_timeline() -> TimelineRecorder:
    """Start recording individual span events (implies :func:`enable`).

    Where the tracer aggregates repeated spans into tree nodes, the
    timeline recorder keeps every entry with its start time and pid/tid —
    the raw material of the ``--timeline-out`` Chrome-trace export.
    Idempotent; returns the active recorder.
    """
    global _timeline
    enable()
    if _timeline is None:
        _timeline = TimelineRecorder()
    _tracer.timeline = _timeline
    return _timeline


def timeline() -> Union[TimelineRecorder, None]:
    """The active timeline recorder (``None`` unless enabled)."""
    return _timeline


def timeline_enabled() -> bool:
    """True when span events are being recorded."""
    return _timeline is not None


def timeline_events() -> list:
    """A copy of the recorded span events (empty while disabled)."""
    return _timeline.snapshot() if _timeline is not None else []


# -- aggregate views -----------------------------------------------------------


def snapshot() -> dict:
    """The full schema-stamped document (metrics + span tree)."""
    return build_snapshot(_registry, _tracer)


def render() -> str:
    """The human-readable span tree (for ``--trace`` stderr output)."""
    return render_tree(_tracer.snapshot())


def phase_times() -> list[tuple[str, int, float]]:
    """``(name, count, seconds)`` per top-level span, in recorded order."""
    return _tracer.phase_times()
