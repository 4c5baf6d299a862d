"""Differential fuzz sweep: the batch classifier against the scalar oracle.

Over the same 210-case seeded pool as the memoization sweep (all harness
families, all cache geometries), the vectorized solvers must be
**bit-identical** to the pure-Python ``PointClassifier`` oracle
(:mod:`tests.cme.scalar_oracle`, run through
:func:`tests.harness.differential.scalar_results`):

* ``FindMisses`` per-reference results compare equal case-for-case;
* ``EstimateMisses`` at a fixed sampling seed compares equal — the batch
  path must consume the identical sample the scalar path draws;
* point-by-point, :meth:`BatchClassifier.classify_points` returns the same
  :class:`~repro.cme.Classification` — outcome *and* deciding reuse
  vector — as the oracle's ``classify``, with the same ``vector_trials``
  accounting.
"""

from __future__ import annotations

from repro.cme import estimate_misses, find_misses, make_classifier, solver_for
from repro.reuse import build_reuse_table
from tests.cme.scalar_oracle import PointClassifier
from tests.harness.differential import FAMILIES, generate_cases, scalar_results

#: 30 cases per family — 210 total, same pool size as the memo sweep.
CASE_COUNT = 30 * len(FAMILIES)

_cases = None


def all_cases():
    global _cases
    if _cases is None:
        _cases = generate_cases(CASE_COUNT)
    return _cases


def test_find_reports_bit_identical():
    failures = []
    for case in all_cases():
        nprog, layout = case.prepared()
        scalar = scalar_results(solver_for("find"), nprog, layout, case.cache)
        batch = find_misses(nprog, layout, case.cache)
        if batch.results != scalar:
            failures.append(f"{case.name}: numpy FindMisses != scalar")
    assert not failures, "\n".join(failures[:20])


def test_estimate_reports_bit_identical_at_fixed_seed():
    failures = []
    # Every third case keeps the sampling leg fast while still touching
    # every family (210 / 3 = 70 cases, family stride 7 is coprime to 3).
    for case in all_cases()[::3]:
        nprog, layout = case.prepared()
        solver = solver_for("estimate", seed=20260806)
        scalar = scalar_results(solver, nprog, layout, case.cache)
        batch = estimate_misses(nprog, layout, case.cache, seed=20260806)
        if batch.results != scalar:
            failures.append(f"{case.name}: numpy EstimateMisses != scalar")
    assert not failures, "\n".join(failures)


def test_classifications_agree_point_by_point():
    # One case per family: compare the full Classification (outcome and the
    # deciding reuse vector) for every point of every reference, plus the
    # drained trial counts.  The reuse table is shared so vector identity
    # carries across both classifiers.
    for case in all_cases()[: len(FAMILIES)]:
        nprog, layout = case.prepared()
        reuse = build_reuse_table(nprog, case.cache.line_bytes)
        batch = make_classifier(nprog, layout, case.cache, reuse)
        scalar = PointClassifier(nprog, layout, case.cache, reuse)
        for ref in nprog.refs:
            points = list(nprog.ris(ref.leaf).enumerate_points())
            got = batch.classify_points(ref, points)
            want = [scalar.classify(ref, p) for p in points]
            for point, g, w in zip(points, got, want):
                assert g == w, (
                    f"{case.name}: {ref.name()}@{point} classified {g} "
                    f"by the batch classifier, {w} by the scalar oracle"
                )
        assert batch.drain_vector_trials() == scalar.drain_vector_trials()
