"""The one classifier every solver runs on, and programs without loops.

``make_classifier`` builds the batch classifier; its counters surface
through observability (the ``cme.backend.*`` counters of the removed
scalar fallback do not).  A straight-line program needs no fallback
either: the normaliser pads it to depth 1, and every solver classifies its
single iteration exactly as the scalar oracle does.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.cme import (
    estimate_misses,
    find_misses,
    make_classifier,
    region_misses,
    solver_for,
)
from repro.cme.batch import BatchClassifier
from repro.ir import ProgramBuilder
from repro.layout import CacheConfig, layout_for_refs
from repro.normalize import normalize
from repro.reuse import build_reuse_table
from tests.harness.differential import scalar_results


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    yield
    obs.disable()


def _prepared():
    pb = ProgramBuilder("FB")
    a = pb.array("A", (40,))
    with pb.subroutine("MAIN"):
        with pb.do("T", 1, 2):
            with pb.do("I", 1, 32) as i:
                pb.assign(a[i], a[i + 1])
    nprog = normalize(pb.build().main)
    layout = layout_for_refs(nprog.refs)
    cache = CacheConfig.kb(1, 32, 2)
    return nprog, layout, cache


def test_make_classifier_builds_the_resolved_backend():
    nprog, layout, cache = _prepared()
    reuse = build_reuse_table(nprog, cache.line_bytes)
    classifier = make_classifier(nprog, layout, cache, reuse)
    assert isinstance(classifier, BatchClassifier)


def test_backend_counters_surface_in_observability():
    nprog, layout, cache = _prepared()
    obs.enable()
    report = find_misses(nprog, layout, cache)
    counters = obs.snapshot()["counters"]
    obs.disable()
    assert counters["cme.points.classified"] == report.analysed_points
    trials = counters["cme.solver.vector_trials"]
    assert trials > 0
    assert counters["cme.window.trace_points"] + counters[
        "cme.window.walk_points"
    ] == sum(r.hits + r.replacement for r in report.results.values())
    assert not [name for name in counters if name.startswith("cme.backend.")]
    obs.enable()
    scalar_results(solver_for("find"), nprog, layout, cache)
    counters = obs.snapshot()["counters"]
    assert counters["cme.solver.vector_trials"] == trials


def _straight_line():
    pb = ProgramBuilder("SL")
    a = pb.array("A", (16,))
    b = pb.array("B", (16,))
    with pb.subroutine("MAIN"):
        pb.assign(a[1], b[1], b[2])
        pb.assign(a[2], a[1], b[9])
        pb.assign(b[1], a[2], a[9])
    return pb.build()


@pytest.mark.parametrize("cache", [(1, 32, 1), (1, 32, 2)], ids=str)
def test_loop_free_program_matches_the_scalar_oracle(cache):
    prog = _straight_line()
    nprog = normalize(prog.main)
    assert nprog.depth == 1
    assert all(nprog.ris(leaf).count() == 1 for leaf in nprog.leaves)
    layout = layout_for_refs(nprog.refs, declared_order=prog.global_arrays)
    cache = CacheConfig.kb(*cache)
    find = scalar_results(solver_for("find"), nprog, layout, cache)
    assert find_misses(nprog, layout, cache).results == find
    assert region_misses(nprog, layout, cache).results == find
    estimate = scalar_results(solver_for("estimate"), nprog, layout, cache)
    assert estimate_misses(nprog, layout, cache).results == estimate
    outcomes = [(r.cold, r.replacement, r.hits) for r in find.values()]
    assert (0, 0, 1) in outcomes  # A(1) and A(2) are reused, not all cold
