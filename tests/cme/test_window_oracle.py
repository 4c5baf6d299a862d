"""Which oracle answers the replacement windows, and what happens past the
trace budget.

The batch classifier chooses per call, by cost, between walking each
window and building the whole-program :class:`TraceIndex` once.  The
choice only changes speed — both oracles are exact — so the tests here
pin the *choice* on the workloads that motivated it, and pin that
reports stay equal when the trace cannot be built at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CacheConfig, analyze, obs, prepare, run_simulation
from repro.ir import Program, ProgramBuilder
from repro.kernels import build_mmt
from repro.programs import build_swim_like
import repro.cme.batch as cme_batch
import repro.sim.batch as sim_batch


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


def build_far_line(m: int) -> Program:
    """``A(1)``, ``A(J)`` and two reads of a line past 2³¹ in one set of
    four: the first reads of each iteration reuse a line that fits int32
    across a window holding the far line twice, split by the reused line
    itself (``A(J)``, of another uniformly generated set)."""
    far = 1 << 33
    far_elem = 4 * (far // 4 + 4) + 1  # line 2³¹ + 4 of 8-byte elements
    pb = ProgramBuilder("FARLINE")
    a = pb.array("A", (far + 64,))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, 2) as j:
            with pb.do("I", 1, m):
                pb.read(a[1], a[far_elem], a[j], a[far_elem])
    return pb.build()


@pytest.mark.parametrize("method", ["find", "estimate"])
@pytest.mark.parametrize("assoc", [2, 4])
def test_int32_decisions_on_an_int64_index_match_the_oracle(
    monkeypatch, method, assoc
):
    """A reference's decided lines narrow to int32 whenever they fit, the
    trace's stay int64 when a line of the program does not: the index's
    window probe must count the far line once however the two differ."""
    from repro.cme.solver import solve_misses, solver_for
    from tests.harness.differential import scalar_results

    monkeypatch.setattr(cme_batch, "_WALK_POINT", 1e15)  # always index
    prepared = prepare(build_far_line(6))
    cache = CacheConfig(4 * 32 * assoc, 32, assoc)
    nprog, layout = prepared.nprog, prepared.layout
    reuse = prepared.reuse_table(cache.line_bytes)
    classifier = cme_batch.BatchClassifier(nprog, layout, cache, reuse)
    solver = solver_for(method)
    obs.enable()
    obs.reset()
    try:
        report = solve_misses(
            solver, nprog, layout, cache, reuse, classifier=classifier
        )
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    assert counters["cme.window.trace_points"] > 0
    assert counters.get("cme.window.walk_points", 0) == 0
    assert classifier._line_trace().lines.dtype == "int64"
    dtypes = {
        classifier.store.peek(solver.decision_key(classifier, ref)).lines.dtype
        for ref in nprog.refs
    }
    assert dtypes == {np.dtype("int32"), np.dtype("int64")}
    assert report.results == scalar_results(solver, nprog, layout, cache, reuse)
