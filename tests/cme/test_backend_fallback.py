"""The batch classifier's per-reference fallback contract.

A reference the vectorized path cannot handle is classified by the
embedded scalar classifier with identical tallies, surfaced through the
``cme.backend.fallback_points`` counter.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.cme import find_misses, make_classifier, solver_for
from repro.cme.batch import BatchClassifier, _BatchUnsupported
from repro.cme.point import PointClassifier
from repro.cme.result import RefResult
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
    """The one classifier: the batch path, embedding its scalar fallback."""
    nprog, layout, cache = _prepared()
    reuse = build_reuse_table(nprog, cache.line_bytes)
    classifier = make_classifier(nprog, layout, cache, reuse)
    assert isinstance(classifier, BatchClassifier)
    assert isinstance(classifier.scalar, PointClassifier)


# -- per-reference fallback -----------------------------------------------------------


def test_unsupported_reference_falls_back_with_identical_tallies(monkeypatch):
    nprog, layout, cache = _prepared()
    reuse = build_reuse_table(nprog, cache.line_bytes)
    batch = make_classifier(nprog, layout, cache, reuse)

    def unsupported(ref, points):
        raise _BatchUnsupported("forced by the test")

    monkeypatch.setattr(batch, "_points_array", unsupported)
    scalar = PointClassifier(nprog, layout, cache, reuse)
    for ref in nprog.refs:
        population = nprog.ris(ref.leaf).count()
        got = RefResult(ref.name(), ref.uid, population=population)
        batch.tally_ref(ref, got)
        want = RefResult(ref.name(), ref.uid, population=population)
        for point in nprog.ris(ref.leaf).enumerate_points():
            outcome = scalar.classify(ref, point).outcome
            want.analysed += 1
            if outcome.is_miss:
                if outcome.name == "COLD":
                    want.cold += 1
                else:
                    want.replacement += 1
            else:
                want.hits += 1
        assert got == want
    vectorized, fallback = batch.drain_backend_counts()
    assert vectorized == 0
    assert fallback == sum(nprog.ris(r.leaf).count() for r in nprog.refs)
    assert batch.drain_vector_trials() == scalar.drain_vector_trials()


def test_backend_counters_surface_in_observability():
    nprog, layout, cache = _prepared()
    obs.enable()
    report = find_misses(nprog, layout, cache)
    counters = obs.snapshot()["counters"]
    assert counters["cme.backend.vectorized_points"] == report.analysed_points
    assert counters.get("cme.backend.fallback_points", 0) == 0
    obs.disable()
    obs.enable()
    results = scalar_results(solver_for("find"), nprog, layout, cache)
    counters = obs.snapshot()["counters"]
    # The scalar classifier has no backend counters to drain.
    assert "cme.backend.vectorized_points" not in counters
    assert sum(r.analysed for r in results.values()) > 0
