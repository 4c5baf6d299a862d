"""Pipeline integration: the Fig. 7 stages feed the observability layer.

Every stage records its spans and counters, a report carries a valid
metrics snapshot when observability is on, and switching it on never
changes what a solver computes.
"""

import pytest

from repro import CacheConfig, analyze, obs, prepare, run_simulation
from repro.kernels import build_hydro
from repro.obs.export import validate_snapshot
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.reuse import (
    build_reuse_table,
    constant_part,
    ugs_key,
    uniformly_generated_sets,
)
from tests.harness.differential import scalar_simulate


@pytest.fixture(scope="module")
def prepared():
    return prepare(build_hydro(24, 24))


@pytest.fixture(scope="module")
def cache():
    return CacheConfig.kb(4, 32, 2)


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
        """The walker simulator (the oversize fallback) counts like the
        batch one."""
        obs.enable()
        report = scalar_simulate(prepared.nprog, prepared.layout, cache)
        counters = obs.snapshot()["counters"]
        assert counters["sim.accesses"] == report.total_accesses
        assert counters["sim.misses"] == report.total_misses
        assert counters["sim.hits"] == (
            report.total_accesses - report.total_misses
        )
        assert counters["sim.evictions"] <= counters["sim.misses"]
        assert {s["name"] for s in obs.snapshot()["spans"]} >= {"sim/walk"}

    def test_batch_simulation_counters_match_scalar(self, prepared, cache):
        obs.enable()
        scalar_simulate(prepared.nprog, prepared.layout, cache)
        scalar = {
            k: v
            for k, v in obs.snapshot()["counters"].items()
            if k.startswith("sim.") and not k.startswith("sim.backend.")
        }
        obs.reset()
        report = run_simulation(prepared, cache)
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


class TestReuseSharing:
    """``reuse.pairs`` counts the (producer, consumer) pairs of every
    uniformly generated set; ``reuse.solves`` the distinct (set, Δm)
    reuse equations the build solved for them."""

    @staticmethod
    def shared_counts(nprog) -> dict[str, int]:
        obs.enable()
        obs.reset()
        build_reuse_table(nprog, 32)
        counters = obs.snapshot()["counters"]
        obs.disable()
        return {k: counters[k] for k in ("reuse.pairs", "reuse.solves")}

    def test_pairs_and_solves_match_their_definitions(self, prepared):
        nprog = prepared.nprog
        groups = uniformly_generated_sets(nprog)
        equations = {
            (
                ugs_key(rc, nprog.depth),
                tuple(
                    p - c for p, c in zip(constant_part(rp), constant_part(rc))
                ),
            )
            for group in groups
            for rc in group
            for rp in group
        }
        assert self.shared_counts(nprog) == {
            "reuse.pairs": sum(len(g) ** 2 for g in groups),
            "reuse.solves": len(equations),
        }

    def test_table6_programs_solve_946_pairs_as_170_equations(self):
        totals = {"reuse.pairs": 0, "reuse.solves": 0}
        for build, n in (
            (build_tomcatv_like, 40),
            (build_swim_like, 40),
            (build_applu_like, 20),
        ):
            counts = self.shared_counts(prepare(build(n, 2)).nprog)
            for name, value in counts.items():
                totals[name] += value
        assert totals == {"reuse.pairs": 946, "reuse.solves": 170}


class TestReportMetricsField:
    def test_metrics_attached_when_enabled(self, prepared, cache):
        obs.enable()
        report = analyze(prepared, cache, seed=0)
        assert report.metrics is not None
        assert report.metrics["counters"]["cme.points.classified"] > 0
        assert validate_snapshot(report.metrics) == []

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
        plain = analyze(prepared, cache, seed=0)
        obs.enable()
        observed = analyze(prepared, cache, seed=0)
        assert plain == observed
