"""Memoized solver behaviour: dedup, replay, persistence."""

from __future__ import annotations

import pytest

from repro import (
    CacheConfig,
    Memoizer,
    ProgramBuilder,
    analyze,
    prepare,
    run_simulation,
)
from repro.kernels import build_hydro

CACHE = CacheConfig.kb(4, 32, assoc=2)


def congruent_twin_nests(n=128):
    """Two identical independent nests over arrays congruent mod the cache.

    With a 1KB direct-mapped cache (32 sets x 32B lines) and A sized at
    exactly 1024 bytes, B's base lands at 1024 = 0 (mod num_sets * Ls):
    both nests produce byte-for-byte identical equation systems, so the
    second one must dedup against the first within a single cold run.
    """
    pb = ProgramBuilder("TWINS")
    a = pb.array("A", (n,))  # n * 8B = 1024 bytes for n = 128
    b = pb.array("B", (n,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 1, n) as i:
            pb.assign(a[i])
        with pb.do("I", 1, n) as i:
            pb.assign(b[i])
    return pb.build()


class TestInRunDedup:
    def test_congruent_systems_classified_once(self):
        cache = CacheConfig.kb(1, 32, assoc=1)
        prepared = prepare(congruent_twin_nests())
        assert prepared.layout.base_of(prepared.nprog.refs[1].array) == 1024
        memo = Memoizer()
        report = analyze(prepared, cache, method="find", memo=memo)
        assert memo.groups == 1  # one distinct equation system
        assert memo.misses == 1 and memo.hits == 1
        # The replay is correct, not just cheap:
        assert report == analyze(prepared, cache, method="find")

    def test_estimate_never_dedups_across_references(self):
        # Estimate keys embed seed ^ ref.uid: structurally identical refs
        # draw different samples, so they must NOT share results.
        cache = CacheConfig.kb(1, 32, assoc=1)
        prepared = prepare(congruent_twin_nests())
        memo = Memoizer()
        analyze(prepared, cache, method="estimate", memo=memo, seed=3)
        assert memo.hits == 0 and memo.misses == 2 and memo.groups == 2


class TestColdWarm:
    @pytest.mark.parametrize("method", ["find", "estimate"])
    def test_warm_run_replays_bit_identically(self, tmp_path, method):
        prepared = prepare(build_hydro(24, 24))
        baseline = analyze(prepared, CACHE, method=method, seed=11)
        with Memoizer.open(str(tmp_path)) as cold:
            cold_report = analyze(
                prepared, CACHE, method=method, memo=cold, seed=11
            )
        with Memoizer.open(str(tmp_path)) as warm:
            warm_report = analyze(
                prepared, CACHE, method=method, memo=warm, seed=11
            )
        assert cold_report == baseline
        assert warm_report == baseline
        assert cold.hits == 0 and cold.misses > 0
        assert warm.misses == 0
        assert warm.hits == cold.hits + cold.misses
        assert warm.store_hits == warm.hits

    def test_estimate_seed_isolation_across_runs(self, tmp_path):
        # A warm store for seed 11 must not answer a seed-12 run.
        prepared = prepare(build_hydro(16, 16))
        with Memoizer.open(str(tmp_path)) as cold:
            analyze(prepared, CACHE, method="estimate", memo=cold, seed=11)
        with Memoizer.open(str(tmp_path)) as other:
            report = analyze(
                prepared, CACHE, method="estimate", memo=other, seed=12
            )
        assert other.hits == 0 and other.misses > 0
        assert report == analyze(prepared, CACHE, method="estimate", seed=12)

    def test_cache_geometry_isolation_across_runs(self, tmp_path):
        prepared = prepare(build_hydro(16, 16))
        with Memoizer.open(str(tmp_path)) as cold:
            analyze(prepared, CACHE, method="find", memo=cold)
        other_cache = CacheConfig.kb(8, 32, assoc=2)
        with Memoizer.open(str(tmp_path)) as warm:
            report = analyze(prepared, other_cache, method="find", memo=warm)
        assert warm.hits == 0  # no stale cross-geometry answers
        assert report == analyze(prepared, other_cache, method="find")

    def test_memoizer_spans_methods_without_collisions(self, tmp_path):
        # One memoizer can serve find and estimate in the same run; the
        # method tag keeps their key spaces disjoint.
        prepared = prepare(build_hydro(16, 16))
        with Memoizer.open(str(tmp_path)) as memo:
            find = analyze(prepared, CACHE, method="find", memo=memo)
            est = analyze(prepared, CACHE, method="estimate", memo=memo, seed=5)
        assert find == analyze(prepared, CACHE, method="find")
        assert est == analyze(prepared, CACHE, method="estimate", seed=5)


class TestAgainstSimulator:
    def test_memoized_find_still_matches_simulation(self):
        # Hydro's reuse information is complete (paper Table 3): the
        # memoized exhaustive solver must stay exact.
        prepared = prepare(build_hydro(16, 16))
        memo = Memoizer()
        report = analyze(prepared, CACHE, method="find", memo=memo)
        sim = run_simulation(prepared, CACHE)
        assert report.total_misses == sim.total_misses
