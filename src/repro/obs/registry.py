"""The metrics registry — counters, gauges and histograms.

The registry is the accumulation substrate of the observability layer
(:mod:`repro.obs`): pipeline stages record *what* happened (``intsolve``
calls, reuse vectors found, points classified per outcome, simulated
accesses), the tracer records *where time went*, and the exporters render
both.  Three instrument kinds cover everything the Fig. 7 pipeline needs:

* :class:`Counter` — a monotonically increasing integer (``calls``,
  ``points``, ``misses``);
* :class:`Gauge` — a last-write-wins value (configuration, peaks);
* :class:`Histogram` — count/sum/min/max of observed values (RIS volumes,
  UGS sizes) plus a sparse geometric bucket
  ladder (:data:`BUCKET_BOUNDS`) feeding :meth:`Histogram.percentile`,
  which interpolates **linearly between bucket bounds** — a naive
  nearest-bucket readout would overstate p99 on sparse histograms by
  snapping to the bucket's upper edge.

Metric names form a stable dot-separated namespace documented in README.md
(``polyhedra.intsolve.calls``, ``cme.points.classified``, ...); exporters
treat the names as opaque keys, so the schema never changes when metrics
are added.

Thread-safety: instrument creation and :meth:`MetricsRegistry.snapshot`
take the registry lock; per-event updates take the same lock so concurrent
threads never lose counts.

When observability is disabled, :data:`NULL_REGISTRY` stands in: every
instrument request returns a shared no-op singleton, so the disabled path
allocates **nothing** per event and per-event calls are empty method
bodies.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Optional

#: Upper bucket bounds of every histogram: a 1-2-5 geometric ladder from
#: 1e-9 to 5e12, wide enough for seconds (ns..weeks) and bytes/counts
#: (1..TB) alike.  Values above the last bound land in an overflow bucket
#: whose effective upper edge is the observed maximum.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-9, 13) for m in (1.0, 2.0, 5.0)
)

#: Index of the overflow bucket (values above the last bound).
_OVERFLOW = len(BUCKET_BOUNDS)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        with self._lock:
            self.value += n


class Gauge:
    """A last-write-wins numeric metric."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = value


class Histogram:
    """Count/sum/min/max summary plus sparse buckets of observed values."""

    __slots__ = ("name", "count", "sum", "min", "max", "buckets", "_lock")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: Sparse bucket counts: index into :data:`BUCKET_BOUNDS` (or
        #: :data:`_OVERFLOW`) → observations in ``(bounds[i-1], bounds[i]]``.
        self.buckets: dict[int, int] = {}
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            idx = bisect_left(BUCKET_BOUNDS, value)
            self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile, interpolated linearly within buckets.

        The target rank ``p/100 · count`` is located in the cumulative
        bucket counts, then the value is interpolated linearly between the
        bucket's lower and upper bounds — assuming observations spread
        uniformly inside a bucket, the standard Prometheus-style estimate.
        (A nearest-bucket readout — returning the bucket's upper edge —
        systematically overstates high percentiles on sparse histograms,
        by up to the full bucket width.)  The first and last occupied
        buckets are tightened to the observed ``min``/``max``, so ``p=0``
        and ``p=100`` are exact.  Returns ``None`` on an empty histogram.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if self.count == 0:
                return None
            rank = p / 100.0 * self.count
            if rank <= 0.0:
                return self.min
            occupied = sorted(self.buckets)
            first, last = occupied[0], occupied[-1]
            cumulative = 0
            for idx in occupied:
                in_bucket = self.buckets[idx]
                below = cumulative
                cumulative += in_bucket
                if cumulative < rank:
                    continue
                lo = 0.0 if idx == 0 else BUCKET_BOUNDS[idx - 1]
                hi = self.max if idx == _OVERFLOW else BUCKET_BOUNDS[idx]
                if idx == first:
                    lo = self.min
                if idx == last:
                    hi = self.max
                value = lo + (hi - lo) * (rank - below) / in_bucket
                return min(max(value, self.min), self.max)
            return self.max

    def as_dict(self) -> dict:
        """The stable JSON form: ``{count, sum, min, max[, buckets]}``.

        ``buckets`` — present only when non-empty, keeping the schema
        additive — lists ``[upper_bound, count]`` pairs in bound order;
        the overflow bucket serialises its bound as ``null``.
        """
        doc = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        if self.buckets:
            doc["buckets"] = [
                [None if i == _OVERFLOW else BUCKET_BOUNDS[i], n]
                for i, n in sorted(self.buckets.items())
            ]
        return doc


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created on first use and cached by name, so call sites
    may either hoist a handle out of a loop (hot paths) or look the
    instrument up per event (cold paths) — both hit the same object.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name, self._lock))
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name, self._lock))
        return g

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(
                    name, Histogram(name, self._lock)
                )
        return h

    # -- aggregation ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-data, JSON-serialisable copy:
        ``{counters, gauges, histograms}``."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {
                    n: h.as_dict() for n, h in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Drop every instrument (a fresh, empty registry)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# -- disabled mode -------------------------------------------------------------


class _NullCounter:
    """Shared no-op counter: ``inc`` does nothing, allocates nothing."""

    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge:
    """Shared no-op gauge."""

    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    """Shared no-op histogram."""

    __slots__ = ()
    count = 0
    sum = 0.0
    min = None
    max = None
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> Optional[float]:
        return None

    def as_dict(self) -> dict:
        return {"count": 0, "sum": 0.0, "min": None, "max": None}


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """The disabled-mode registry: every request returns a shared no-op.

    This is what makes observability free when off — instrument lookups
    return module-level singletons (no dict entry, no per-event object) and
    every recording method is an empty body.
    """

    def counter(self, name: str) -> _NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return NULL_HISTOGRAM

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()
