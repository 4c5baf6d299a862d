"""The metrics registry: instruments, merge semantics, disabled mode."""

import threading

import pytest

from repro.obs.registry import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc(41)
        assert reg.counter("a.b").value == 42

    def test_counter_identity_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x") is not reg.counter("y")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("jobs").set(4)
        reg.gauge("jobs").set(2)
        assert reg.gauge("jobs").value == 2

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (5.0, 1.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 9.0
        assert h.min == 1.0
        assert h.max == 5.0
        assert h.mean == 3.0

    def test_empty_histogram(self):
        h = MetricsRegistry().histogram("h")
        assert h.mean == 0.0
        assert h.as_dict() == {"count": 0, "sum": 0.0, "min": None, "max": None}


class TestHistogramPercentiles:
    """Pin the linear-interpolation estimator to exact values.

    The ladder is 1-2-5 geometric, so [1, 2, 3, 4] lands in buckets
    (0.5, 1], (1, 2], (2, 5], (2, 5].  With the first/last occupied
    buckets tightened to the observed min/max, p0 and p100 are exact and
    interior percentiles interpolate within bucket bounds.
    """

    def make(self, values):
        h = MetricsRegistry().histogram("h")
        for v in values:
            h.observe(v)
        return h

    def test_small_sample_pinned_values(self):
        h = self.make([1.0, 2.0, 3.0, 4.0])
        assert h.percentile(0) == 1.0
        assert h.percentile(25) == 1.0
        assert h.percentile(50) == 2.0
        assert h.percentile(75) == 3.0
        assert h.percentile(100) == 4.0

    def test_interpolates_within_bucket_not_at_bound(self):
        # Both values share the (10, 20] bucket; the tightened bucket is
        # [11, 12], so p99 interpolates to 11 + 0.99 * (12 - 11) and must
        # NOT snap to the raw bucket bound 20.
        h = self.make([11.0, 12.0])
        assert h.percentile(99) == pytest.approx(11.99)

    def test_overflow_bucket_uses_observed_max(self):
        top = BUCKET_BOUNDS[-1]
        h = self.make([top * 2])
        assert h.percentile(50) == top * 2

    def test_empty_histogram_has_no_percentiles(self):
        h = MetricsRegistry().histogram("h")
        assert h.percentile(50) is None

    def test_out_of_range_percentile_rejected(self):
        h = self.make([1.0])
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_null_histogram_percentile_is_none(self):
        assert NULL_HISTOGRAM.percentile(50) is None

    def test_buckets_serialized_only_when_occupied(self):
        h = self.make([1.5])
        d = h.as_dict()
        assert d["buckets"] == [[2.0, 1]]


class TestSnapshotMerge:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 7}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_threaded_increments_do_not_lose_counts(self):
        reg = MetricsRegistry()
        c = reg.counter("threads")

        def spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestNullRegistry:
    def test_shared_singletons_allocate_nothing_per_event(self):
        # Every lookup returns the same module-level no-op object: the
        # disabled path creates no instrument, no dict entry, no state.
        assert NULL_REGISTRY.counter("a") is NULL_COUNTER
        assert NULL_REGISTRY.counter("b") is NULL_COUNTER
        assert NULL_REGISTRY.gauge("a") is NULL_GAUGE
        assert NULL_REGISTRY.histogram("a") is NULL_HISTOGRAM

    def test_noop_recording(self):
        NULL_COUNTER.inc(100)
        NULL_GAUGE.set(5)
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0
        assert NULL_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_null_instruments_have_no_instance_dict(self):
        # __slots__ = () guarantees no per-instance allocation is possible.
        assert not hasattr(NULL_COUNTER, "__dict__")
        assert not hasattr(NULL_HISTOGRAM, "__dict__")

    def test_reset_is_a_noop(self):
        NULL_REGISTRY.reset()
        assert NULL_REGISTRY.counter("c").value == 0
