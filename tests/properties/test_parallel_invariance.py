"""Invariance properties of the parallel engine on seeded-random programs.

Complements the hypothesis tests in ``test_random_programs``: a seeded
``random.Random`` generator builds a fresh batch of small programs and the
same report must come back for every ``jobs`` value and — on the exhaustive
path — for every RNG seed.
"""

import random

import pytest

from repro.ir import ProgramBuilder
from repro.layout import CacheConfig, layout_for_refs
from repro.normalize import normalize
from repro.cme import estimate_misses, find_misses, solver_for
from repro.parallel import ParallelEngine, resolve_jobs
from repro.reuse import build_reuse_table
from tests.fixtures import UNKNOWN_METHODS

JOBS = [1, 2, 4]


def random_program(rng: random.Random):
    """A small random 2-D stencil (one or two arrays, optional guard)."""
    n = rng.randrange(6, 11)
    pb = ProgramBuilder("RAND")
    a = pb.array("A", (n + 4, n + 4))
    b = pb.array("B", (n + 4, n + 4)) if rng.random() < 0.5 else a
    offsets = {(rng.randrange(-2, 3), rng.randrange(-2, 3))
               for _ in range(rng.randrange(1, 4))}
    with pb.subroutine("MAIN"):
        with pb.do("J", 3, n + 2) as j:
            with pb.do("I", 3, n + 2) as i:
                if rng.random() < 0.3:
                    with pb.if_(i.le(j)):
                        pb.assign(b[i, j], *[a[i + x, j + y] for x, y in offsets])
                else:
                    pb.assign(b[i, j], *[a[i + x, j + y] for x, y in offsets])
    prog = pb.build()
    nprog = normalize(prog.main)
    layout = layout_for_refs(
        nprog.refs, declared_order=prog.global_arrays, align=32
    )
    return nprog, layout


@pytest.fixture(scope="module", params=range(4))
def program(request):
    return random_program(random.Random(0xD1F ^ request.param))


@pytest.fixture(scope="module", params=[CacheConfig.kb(1, 32, 1),
                                        CacheConfig.kb(2, 32, 2)],
                ids=["1k-direct", "2k-2way"])
def cache(request):
    return request.param


class TestJobsInvariance:
    def test_find_misses_invariant_under_jobs(self, program, cache):
        nprog, layout = program
        reports = [
            find_misses(nprog, layout, cache, jobs=jobs) for jobs in JOBS
        ]
        assert reports[0] == reports[1] == reports[2]
        assert [r.jobs for r in reports] == JOBS

    def test_estimate_misses_invariant_under_jobs(self, program, cache):
        nprog, layout = program
        reports = [
            estimate_misses(nprog, layout, cache, seed=11, jobs=jobs)
            for jobs in JOBS
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_engine_reuse_across_solves(self, program, cache):
        """One pool, several solves: still identical to one-shot serial."""
        nprog, layout = program
        reuse = build_reuse_table(nprog, cache.line_bytes)
        with ParallelEngine(nprog, layout, cache, reuse, jobs=2) as engine:
            report = engine.solve(solver_for("find"))
            assert report == find_misses(nprog, layout, cache)
            assert report.points_per_second > 0
            assert 0.0 <= report.parallel_efficiency <= 1.5
            estimate = engine.solve(solver_for("estimate", seed=5))
            assert estimate == estimate_misses(nprog, layout, cache, seed=5)

    def test_engine_with_one_job_is_the_serial_solver(self, program, cache):
        """jobs=1 runs the chunk code in-process — no pool, same report."""
        nprog, layout = program
        reuse = build_reuse_table(nprog, cache.line_bytes)
        with ParallelEngine(nprog, layout, cache, reuse, jobs=1) as engine:
            assert engine._pool is None
            report = engine.solve(solver_for("find"))
            assert report == find_misses(nprog, layout, cache)
            assert engine._pool is None  # serial path never spawned one

    def test_single_reference_subset_avoids_the_pool(self, program, cache):
        nprog, layout = program
        reuse = build_reuse_table(nprog, cache.line_bytes)
        ref = nprog.refs[0]
        with ParallelEngine(nprog, layout, cache, reuse, jobs=4) as engine:
            parallel = engine.solve(solver_for("find"), refs=[ref])
            assert engine._pool is None
        serial = find_misses(nprog, layout, cache, refs=[ref])
        assert parallel == serial

    def test_unknown_method_rejected(self, program, cache):
        nprog, layout = program
        reuse = build_reuse_table(nprog, cache.line_bytes)
        with ParallelEngine(nprog, layout, cache, reuse, jobs=2) as engine:
            for method in UNKNOWN_METHODS:
                with pytest.raises(ValueError, match="unknown method"):
                    engine.solve(solver_for(method))
            assert engine._pool is None


class TestSeedInvariance:
    def test_exhaustive_path_ignores_seed(self, cache):
        """Small RISs are analysed exhaustively (Fig. 6): no RNG involved,
        so any seed — and any job count — gives the identical report."""
        pb = ProgramBuilder("TINY")
        a = pb.array("A", (9, 9))
        with pb.subroutine("MAIN"):
            with pb.do("J", 1, 5) as j:
                with pb.do("I", 1, 5) as i:  # RIS volume 25 < fallback n0
                    pb.assign(a[i, j], a[i + 1, j])
        prog = pb.build()
        nprog = normalize(prog.main)
        layout = layout_for_refs(
            nprog.refs, declared_order=prog.global_arrays, align=32
        )
        reports = [
            estimate_misses(nprog, layout, cache, seed=seed, jobs=jobs)
            for seed, jobs in [(0, 1), (123, 1), (0, 2), (999, 4)]
        ]
        for report in reports:
            for res in report.results.values():
                assert res.analysed == res.population
        assert reports[0] == reports[1] == reports[2] == reports[3]

    def test_find_misses_has_no_rng_dependence(self, program, cache):
        nprog, layout = program
        assert find_misses(nprog, layout, cache) == find_misses(
            nprog, layout, cache
        )


class TestResolveJobs:
    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_none_negative_mean_all_cpus(self):
        import os

        expected = os.cpu_count() or 1
        assert resolve_jobs(0) == expected
        assert resolve_jobs(None) == expected
        assert resolve_jobs(-1) == expected
