"""Which oracle answers the replacement windows, and what happens past the
trace budget.

The batch classifier chooses per call, by cost, between walking each
window and building the whole-program :class:`TraceIndex` once.  The
choice only changes speed — both oracles are exact — so the tests here
pin the *choice* on the workloads that motivated it, and pin that
reports stay equal when the trace cannot be built at all.
"""

from __future__ import annotations

import pytest

from repro import CacheConfig, analyze, obs, prepare, run_simulation
from repro.ir import Program, ProgramBuilder
from repro.kernels import build_mmt
from repro.programs import build_swim_like

pytest.importorskip("numpy", reason="the batch classifier needs NumPy")

import repro.cme.batch as cme_batch  # noqa: E402
import repro.sim.batch as sim_batch  # noqa: E402


def build_stencil3(n: int) -> Program:
    """1-D 3-point stencil chain: stride-1, fully certifiable."""
    pb = ProgramBuilder("STENCIL3")
    a = pb.array("A", (n + 2,))
    b = pb.array("B", (n + 2,))
    c = pb.array("C", (n + 2,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 2, n) as i:
            pb.assign(a[i], b[i - 1], b[i], b[i + 1], label="S1")
            pb.assign(c[i], c[i], a[i - 1], a[i], label="S2")
    return pb.build()


@pytest.fixture
def builds(monkeypatch):
    """Count TraceIndex constructions made by the classifier."""
    built = []
    real = cme_batch.TraceIndex

    def counting(*args, **kwargs):
        built.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cme_batch, "TraceIndex", counting)
    return built


def window_counts(prepared, cache, method):
    obs.enable()
    obs.reset()
    try:
        report = analyze(prepared, cache, method=method, seed=0)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    return report, (
        counters.get("cme.window.trace_points", 0),
        counters.get("cme.window.walk_points", 0),
    )


@pytest.mark.parametrize("method", ["regions", "estimate"])
@pytest.mark.parametrize("spec", [(1, 32, 1), (4, 32, 2)])
def test_certified_stencil_never_builds_the_index(builds, method, spec):
    prepared = prepare(build_stencil3(200_000))
    _, (trace, walk) = window_counts(prepared, CacheConfig.kb(*spec), method)
    assert builds == []
    assert trace == 0
    if method == "estimate":
        assert walk > 0


def test_swim_estimate_builds_the_index(builds):
    prepared = prepare(build_swim_like(40, 2))
    _, (trace, walk) = window_counts(
        prepared, CacheConfig.kb(4, 32, 2), "estimate"
    )
    assert len(builds) == 1
    assert trace > 0 and walk == 0


def test_mmt_regions_fallback_builds_the_index(builds):
    prepared = prepare(build_mmt(32, 16, 8))
    cache = CacheConfig.kb(4, 32, 2)
    obs.enable()
    obs.reset()
    try:
        regions = analyze(prepared, cache, method="regions")
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    assert counters["cme.regions.fallback_points"] > 0
    assert len(builds) == 1
    assert counters["cme.window.trace_points"] > 0
    assert regions.results == analyze(prepared, cache, method="find").results


def test_classify_points_always_walks(builds):
    prepared = prepare(build_swim_like(16, 1))
    cache = CacheConfig.kb(4, 32, 2)
    classifier = cme_batch.BatchClassifier(
        prepared.nprog, prepared.layout, cache,
        prepared.reuse_table(cache.line_bytes),
    )
    ref = prepared.nprog.refs[0]
    points = list(prepared.nprog.ris(ref.leaf).enumerate_points())
    classifier.classify_points(ref, points)
    assert builds == []
    assert classifier.drain_window_counts()[0] == 0


class TestPastTheBudget:
    """With the budget below the trace length, the simulator degrades to
    the scalar walker and the classifier walks every window — both through
    ``TraceTooLargeError`` — and every report stays equal."""

    @pytest.mark.parametrize("method", ["find", "estimate", "regions"])
    def test_reports_equal(self, monkeypatch, method):
        prepared = prepare(build_mmt(16, 8, 4))
        cache = CacheConfig.kb(1, 32, 2)
        expected_report, (trace, _) = window_counts(prepared, cache, method)
        expected_sim = run_simulation(prepared, cache)
        assert trace > 0  # the index answered within the budget
        monkeypatch.setattr(sim_batch, "MAX_TRACE_ACCESSES", 100)
        report, (trace, walk) = window_counts(prepared, cache, method)
        assert (trace, report) == (0, expected_report)
        assert walk > 0
        sim = run_simulation(prepared, cache)
        assert (sim.accesses, sim.misses) == (
            expected_sim.accesses, expected_sim.misses,
        )

    def test_builders_raise(self, monkeypatch):
        prepared = prepare(build_mmt(16, 8, 4))
        cache = CacheConfig.kb(1, 32, 2)
        monkeypatch.setattr(sim_batch, "MAX_TRACE_ACCESSES", 100)
        with pytest.raises(sim_batch.TraceTooLargeError):
            sim_batch.trace_arrays(prepared.nprog, prepared.layout)
        with pytest.raises(sim_batch.TraceTooLargeError):
            cme_batch.TraceIndex(
                prepared.nprog, prepared.walker, cache.line_bytes,
                cache.num_sets,
            )
