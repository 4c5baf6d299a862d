"""Schema stability of the ``repro.metrics/v1`` name namespace.

The golden lists below enumerate every counter, gauge and histogram a
fully exercised pipeline run produces — cold + warm memoized FindMisses
(serial and ``jobs=2``), EstimateMisses at two geometries (the second
replays the first's shared decisions), RegionMisses, and the simulator on
one pinned workload.  The exporter treats names as opaque keys, so the
*schema* never changes when metrics are added — but dashboards, the run
ledger and the regression checker key on the names themselves.  Renaming
or dropping one is a breaking change; this test makes it a deliberate one
(update the golden list in the same commit, and say so in README's
metric-namespace table).
"""

import pytest

from repro import CacheConfig, Memoizer, analyze, obs, prepare, run_simulation
from repro.kernels import build_hydro

GOLDEN_COUNTERS = {
    "cme.backend.fallback_points",
    "cme.backend.vectorized_points",
    "cme.decisions.shared",
    "cme.points.classified",
    "cme.points.cold",
    "cme.points.hit",
    "cme.points.replacement",
    "cme.refs.analysed",
    "cme.regions.exact_regions",
    "cme.regions.fallback.cell_cap",
    "cme.regions.fallback.irregular",
    "cme.regions.fallback.partition_mismatch",
    "cme.regions.fallback.probe_mismatch",
    "cme.regions.fallback.uncertified",
    "cme.regions.fallback.window_budget",
    "cme.regions.fallback_cells",
    "cme.regions.fallback_points",
    "cme.regions.fallback_regions",
    "cme.sampling.draws",
    "cme.sampling.fallbacks",
    "cme.solver.vector_trials",
    "cme.window.trace_points",
    "cme.window.walk_points",
    "memo.dedup.groups",
    "memo.hits",
    "memo.misses",
    "memo.store.appended",
    "memo.store.hits",
    "memo.store.loaded",
    "parallel.chunks",
    "polyhedra.count.cache_hits",
    "polyhedra.intsolve.calls",
    "polyhedra.intsolve.solutions",
    "polyhedra.nullspace.calls",
    "reuse.ugs.count",
    "reuse.vectors.cross_column",
    "reuse.vectors.spatial_group",
    "reuse.vectors.spatial_self",
    "reuse.vectors.temporal_group",
    "reuse.vectors.temporal_self",
    "reuse.vectors.total",
    "sim.accesses",
    "sim.backend.batch.accesses",
    "sim.backend.batch.runs",
    "sim.evictions",
    "sim.hits",
    "sim.misses",
    "sim.policy.lru",
}

GOLDEN_GAUGES = {
    "parallel.jobs",
}

GOLDEN_HISTOGRAMS = {
    "parallel.shard_size",
    "parallel.worker_peak_rss_bytes",
    "parallel.worker_seconds",
    "polyhedra.ris.volume",
    "reuse.ugs.size",
}


@pytest.fixture(scope="module")
def pipeline_snapshot(tmp_path_factory):
    """One fully exercised pipeline run's metrics snapshot."""
    store = str(tmp_path_factory.mktemp("memo"))
    obs.enable()
    obs.reset()
    try:
        prepared = prepare(build_hydro(16, 16))
        cache = CacheConfig.kb(2, 32, 2)
        with Memoizer.open(store) as memo:
            analyze(prepared, cache, method="find", memo=memo, jobs=2)
        with Memoizer.open(store) as memo:
            analyze(prepared, cache, method="find", memo=memo)
        analyze(prepared, cache, method="estimate", seed=0)
        analyze(prepared, CacheConfig.kb(4, 32, 4), method="estimate", seed=0)
        analyze(prepared, cache, method="regions")
        run_simulation(prepared, cache)
        return obs.snapshot()
    finally:
        obs.disable()


class TestMetricNameStability:
    def test_counter_names_exact(self, pipeline_snapshot):
        assert set(pipeline_snapshot["counters"]) == GOLDEN_COUNTERS

    def test_gauge_names_exact(self, pipeline_snapshot):
        assert set(pipeline_snapshot["gauges"]) == GOLDEN_GAUGES

    def test_histogram_names_exact(self, pipeline_snapshot):
        assert set(pipeline_snapshot["histograms"]) == GOLDEN_HISTOGRAMS

    def test_names_are_dotted_lowercase(self, pipeline_snapshot):
        for kind in ("counters", "gauges", "histograms"):
            for name in pipeline_snapshot[kind]:
                assert name == name.lower()
                assert "." in name
                assert " " not in name
