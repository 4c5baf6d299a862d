"""Cross-process span/metrics merging under adverse conditions.

The parallel engine's contract is *graceful degradation, identical
results*: empty worker snapshots merge as no-ops, partial snapshots merge
what they carry, and a worker killed outright (OOM killer, crash) triggers
a serial re-solve that reproduces the exact report the healthy pool would
have produced.
"""

import os
import signal
import time

import pytest

from repro import CacheConfig, analyze, obs, prepare
from repro.kernels import build_hydro
from repro.cme import solver_for
from repro.parallel.engine import ParallelEngine

ESTIMATE = solver_for("estimate", seed=0)


@pytest.fixture(scope="module")
def prepared():
    return prepare(build_hydro(16, 16))


@pytest.fixture(scope="module")
def cache():
    return CacheConfig.kb(2, 32, 2)


class TestSnapshotMergeEdgeCases:
    def test_zero_span_worker_snapshot_is_a_noop(self):
        obs.enable()
        obs.counter("pre.existing").inc(3)
        obs.merge_snapshot(
            {
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
                "spans": [],
                "timeline": [],
            }
        )
        snap = obs.snapshot()
        assert snap["counters"] == {"pre.existing": 3}
        assert snap["spans"] == []

    def test_partial_snapshot_metrics_only(self):
        obs.enable()
        obs.merge_snapshot({"metrics": {"counters": {"w.x": 2}}})
        assert obs.snapshot()["counters"]["w.x"] == 2

    def test_partial_snapshot_spans_only(self):
        obs.enable()
        obs.merge_snapshot(
            {"spans": [{"name": "w/span", "count": 1, "seconds": 0.5,
                        "children": []}]}
        )
        spans = {s["name"] for s in obs.snapshot()["spans"]}
        assert "w/span" in spans

    def test_timeline_events_dropped_when_no_recorder(self):
        obs.enable()  # metrics on, timeline NOT enabled
        obs.merge_snapshot(
            {"timeline": [{"name": "w", "start": 0.0, "dur": 1.0,
                           "pid": 1, "tid": 1}]}
        )
        assert obs.timeline_events() == []

    def test_timeline_events_folded_when_recorder_active(self):
        obs.enable_timeline()
        obs.merge_snapshot(
            {"timeline": [{"name": "w", "start": 0.0, "dur": 1.0,
                           "pid": 1, "tid": 1}]}
        )
        events = obs.timeline_events()
        assert [e["name"] for e in events] == ["w"]
        assert events[0]["pid"] == 1  # worker pid preserved

    def test_merge_nests_under_open_span(self):
        obs.enable()
        with obs.span("parent"):
            obs.merge_snapshot(
                {"spans": [{"name": "child", "count": 2, "seconds": 0.1,
                            "children": []}]}
            )
        (parent,) = [
            s for s in obs.snapshot()["spans"] if s["name"] == "parent"
        ]
        children = {c["name"]: c for c in parent["children"]}
        assert children["child"]["count"] == 2


class TestWorkerDeath:
    def _kill_all_workers(self, engine):
        procs = list(engine._pool._processes.values())
        assert procs, "pool has no workers to kill"
        for proc in procs:
            os.kill(proc.pid, signal.SIGKILL)
        # Give the executor's management thread a moment to notice.
        deadline = time.time() + 5.0
        while any(p.is_alive() for p in procs) and time.time() < deadline:
            time.sleep(0.01)

    def test_killed_worker_falls_back_to_identical_serial_report(
        self, prepared, cache
    ):
        serial = analyze(prepared, cache, seed=0)
        obs.enable()
        with ParallelEngine(
            prepared.nprog,
            prepared.layout,
            cache,
            prepared.reuse_table(cache.line_bytes),
            jobs=2,
        ) as engine:
            healthy = engine.solve(ESTIMATE)
            assert healthy == serial
            self._kill_all_workers(engine)
            recovered = engine.solve(ESTIMATE)
        assert recovered == serial
        counters = obs.snapshot()["counters"]
        assert counters["parallel.pool_broken"] == 1

    def test_pool_reusable_after_recovery(self, prepared, cache):
        obs.enable()
        with ParallelEngine(
            prepared.nprog,
            prepared.layout,
            cache,
            prepared.reuse_table(cache.line_bytes),
            jobs=2,
        ) as engine:
            first = engine.solve(ESTIMATE)
            self._kill_all_workers(engine)
            engine.solve(ESTIMATE)  # recovers serially, closes the pool
            again = engine.solve(ESTIMATE)  # fresh pool, parallel again
        assert again == first
