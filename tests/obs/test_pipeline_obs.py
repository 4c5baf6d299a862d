"""Pipeline integration: the Fig. 7 stages feed the observability layer.

The load-bearing property is the cross-process contract of the parallel
engine: with observability enabled, the counters merged back from
``jobs > 1`` workers must equal the serial run's counts exactly — same
points classified, same outcome tallies — because the per-reference work
is deterministic under the ``seed ^ ref.uid`` scheme.
"""

import pytest

from repro import CacheConfig, analyze, obs, prepare, run_simulation
from repro.kernels import build_hydro
from repro.obs.export import validate_snapshot

SOLVE_COUNTERS = [
    "cme.points.classified",
    "cme.points.cold",
    "cme.points.replacement",
    "cme.points.hit",
    "cme.refs.analysed",
    "cme.solver.vector_trials",
    "cme.sampling.draws",
    "cme.window.trace_points",
    "cme.window.walk_points",
]


@pytest.fixture(scope="module")
def prepared():
    return prepare(build_hydro(24, 24))


@pytest.fixture(scope="module")
def cache():
    return CacheConfig.kb(4, 32, 2)


def solve_counters(snapshot):
    counters = snapshot["counters"]
    return {name: counters.get(name, 0) for name in SOLVE_COUNTERS}


class TestSerialInstrumentation:
    def test_estimate_records_phase_spans_and_counters(self, cache):
        obs.enable()
        prepared = prepare(build_hydro(24, 24))
        report = analyze(prepared, cache, seed=0)
        snap = obs.snapshot()
        span_names = {s["name"] for s in snap["spans"]}
        assert {"prepare/normalise", "prepare/layout", "reuse/build_table",
                "cme/estimate"} <= span_names
        counters = snap["counters"]
        assert counters["cme.points.classified"] == report.analysed_points
        assert counters["cme.refs.analysed"] == len(report.results)
        assert counters["polyhedra.intsolve.calls"] > 0
        assert counters["reuse.vectors.total"] > 0
        assert validate_snapshot(snap) == []

    def test_breakdown_matches_outcome_counters(self, prepared, cache):
        obs.enable()
        report = analyze(prepared, cache, seed=0)
        counters = obs.snapshot()["counters"]
        cold = sum(r.cold for r in report.results.values())
        repl = sum(r.replacement for r in report.results.values())
        hits = sum(r.hits for r in report.results.values())
        assert counters["cme.points.cold"] == cold
        assert counters["cme.points.replacement"] == repl
        assert counters["cme.points.hit"] == hits

    def test_find_records_ris_volumes(self, prepared, cache):
        obs.enable()
        report = analyze(prepared, cache, method="find")
        snap = obs.snapshot()
        hist = snap["histograms"]["polyhedra.ris.volume"]
        assert hist["count"] == len(report.results)
        assert hist["sum"] == report.total_accesses

    def test_simulation_counters(self, prepared, cache):
        obs.enable()
        report = run_simulation(prepared, cache, backend="scalar")
        counters = obs.snapshot()["counters"]
        assert counters["sim.accesses"] == report.total_accesses
        assert counters["sim.misses"] == report.total_misses
        assert counters["sim.hits"] == (
            report.total_accesses - report.total_misses
        )
        assert counters["sim.evictions"] <= counters["sim.misses"]
        assert {s["name"] for s in obs.snapshot()["spans"]} >= {"sim/walk"}

    def test_batch_simulation_counters_match_scalar(self, prepared, cache):
        pytest.importorskip("numpy")
        obs.enable()
        run_simulation(prepared, cache, backend="scalar")
        scalar = {
            k: v
            for k, v in obs.snapshot()["counters"].items()
            if k.startswith("sim.") and not k.startswith("sim.backend.")
        }
        obs.reset()
        report = run_simulation(prepared, cache, backend="numpy")
        snap = obs.snapshot()
        batch = {
            k: v
            for k, v in snap["counters"].items()
            if k.startswith("sim.") and not k.startswith("sim.backend.")
        }
        # Accesses, misses, hits *and* evictions agree — the batch kernel
        # recovers evictions analytically, without replaying LRU state.
        assert batch == scalar
        assert snap["counters"]["sim.backend.batch.runs"] == 1
        assert (
            snap["counters"]["sim.backend.batch.accesses"]
            == report.total_accesses
        )
        assert {s["name"] for s in snap["spans"]} >= {"sim/decode", "sim/batch"}


class TestParallelMerge:
    @pytest.mark.parametrize("method", ["estimate", "find", "regions"])
    def test_merged_counters_equal_serial(self, prepared, cache, method):
        obs.enable()
        serial_report = analyze(prepared, cache, method=method, seed=0)
        serial = solve_counters(obs.snapshot())
        obs.reset()
        parallel_report = analyze(
            prepared, cache, method=method, seed=0, jobs=2
        )
        merged = solve_counters(obs.snapshot())
        assert serial_report == parallel_report
        assert merged == serial

    def test_worker_spans_merge_under_parallel_solve(self, prepared, cache):
        obs.enable()
        analyze(prepared, cache, seed=0, jobs=2)
        spans = {s["name"]: s for s in obs.snapshot()["spans"]}
        solve = spans["parallel/solve"]
        children = {c["name"]: c for c in solve["children"]}
        assert children["cme/classify_ref"]["count"] == len(
            prepared.nprog.refs
        )

    def test_parallel_bookkeeping_metrics(self, prepared, cache):
        obs.enable()
        analyze(prepared, cache, seed=0, jobs=2)
        snap = obs.snapshot()
        assert snap["gauges"]["parallel.jobs"] == 2
        chunks = snap["counters"]["parallel.chunks"]
        assert chunks >= 2
        shard = snap["histograms"]["parallel.shard_size"]
        assert shard["count"] == chunks
        assert shard["sum"] == len(prepared.nprog.refs)
        assert snap["histograms"]["parallel.worker_seconds"]["count"] == chunks

    def test_parallel_report_carries_metrics_snapshot(self, prepared, cache):
        obs.enable()
        report = analyze(prepared, cache, seed=0, jobs=2)
        assert report.metrics is not None
        assert validate_snapshot(report.metrics) == []


class TestReportMetricsField:
    def test_metrics_attached_when_enabled(self, prepared, cache):
        obs.enable()
        report = analyze(prepared, cache, seed=0)
        assert report.metrics is not None
        assert report.metrics["counters"]["cme.points.classified"] > 0

    def test_metrics_none_when_disabled(self, prepared, cache):
        report = analyze(prepared, cache, seed=0)
        assert report.metrics is None

    def test_metrics_excluded_from_equality(self, prepared, cache):
        plain = analyze(prepared, cache, seed=0)
        obs.enable()
        observed = analyze(prepared, cache, seed=0)
        assert observed.metrics is not None
        assert plain == observed
        assert "metrics" not in repr(observed)


class TestDisabledMode:
    def test_disabled_run_records_nothing(self, prepared, cache):
        analyze(prepared, cache, seed=0)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == []

    def test_disabled_and_enabled_reports_identical(self, prepared, cache):
        plain = analyze(prepared, cache, seed=0, jobs=2)
        obs.enable()
        observed = analyze(prepared, cache, seed=0, jobs=2)
        assert plain == observed
