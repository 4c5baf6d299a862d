"""Schema stability of the ``repro.metrics/v1`` name namespace.

The golden lists below enumerate every counter, gauge, histogram and span
name a fully exercised pipeline run produces — cold + warm memoized FindMisses,
EstimateMisses at two geometries (the second
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
    "polyhedra.count.cache_hits",
    "polyhedra.intsolve.calls",
    "polyhedra.intsolve.solutions",
    "polyhedra.nullspace.calls",
    "reuse.pairs",
    "reuse.solves",
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

GOLDEN_GAUGES: set = set()

GOLDEN_HISTOGRAMS = {
    "polyhedra.ris.volume",
    "reuse.ugs.size",
}

GOLDEN_SPANS = {
    "cme/batch/trace_index",
    "cme/classify_ref",
    "cme/estimate",
    "cme/find",
    "cme/region_ref",
    "cme/regions",
    "cme/regions/decompose",
    "cme/sample",
    "cme/window",
    "memo/probe",
    "memo/store",
    "prepare/inline",
    "prepare/layout",
    "prepare/normalise",
    "reuse/build_table",
    "sim/batch",
    "sim/decode",
}


def _span_paths(nodes, parents=()):
    """``(names from the top span down, node)`` for every span node."""
    for node in nodes:
        path = parents + (node["name"],)
        yield path, node
        yield from _span_paths(node.get("children", ()), path)


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
            analyze(prepared, cache, method="find", memo=memo)
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

    def test_span_names_exact(self, pipeline_snapshot):
        names = {path[-1] for path, _ in _span_paths(pipeline_snapshot["spans"])}
        assert names == GOLDEN_SPANS

    def test_decomposition_is_timed_once_per_region_reference(
        self, pipeline_snapshot
    ):
        spans = dict(_span_paths(pipeline_snapshot["spans"]))
        ref = spans[("cme/regions", "cme/region_ref")]
        decompose = spans[
            ("cme/regions", "cme/region_ref", "cme/regions/decompose")
        ]
        # One fresh regional solve: every reference decomposes once.
        assert decompose["count"] == ref["count"] > 0
        assert 0 < decompose["seconds"] <= ref["seconds"]

    def test_names_are_dotted_lowercase(self, pipeline_snapshot):
        for kind in ("counters", "gauges", "histograms"):
            for name in pipeline_snapshot[kind]:
                assert name == name.lower()
                assert "." in name
                assert " " not in name
