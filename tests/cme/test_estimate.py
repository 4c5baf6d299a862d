"""EstimateMisses: accuracy against simulation and Fig. 6 behaviours."""

import random

import pytest

from repro.ir import ProgramBuilder
from repro.layout import CacheConfig, layout_for_refs
from repro.normalize import normalize
from repro.cme import compare_reports, estimate_misses, find_misses
from repro.sim import simulate
from repro.stats import sample_size


def build_stencil(n=40):
    pb = ProgramBuilder("STENCIL")
    a = pb.array("A", (n + 2, n + 2))
    b = pb.array("B", (n + 2, n + 2))
    with pb.subroutine("MAIN"):
        with pb.do("J", 2, n + 1) as j:
            with pb.do("I", 2, n + 1) as i:
                pb.assign(
                    b[i, j], a[i - 1, j], a[i + 1, j], a[i, j - 1], a[i, j + 1]
                )
    prog = pb.build()
    nprog = normalize(prog.main)
    layout = layout_for_refs(nprog.refs, declared_order=prog.global_arrays, align=32)
    return nprog, layout


class TestAccuracy:
    @pytest.mark.parametrize("assoc", [1, 2])
    def test_estimate_close_to_simulation(self, assoc):
        nprog, layout = build_stencil(40)
        cache = CacheConfig.kb(8, 32, assoc)
        est = estimate_misses(nprog, layout, cache, seed=random.Random(1).getrandbits(64))
        sim = simulate(nprog, layout, cache)
        # The paper reports absolute errors below 0.4 percentage points for
        # kernels at (c, w) = (95%, 0.05); allow a small safety margin.
        assert abs(est.miss_ratio_percent - sim.miss_ratio_percent) < 2.0

    def test_estimate_close_to_findmisses(self):
        nprog, layout = build_stencil(30)
        cache = CacheConfig.kb(8, 32, 1)
        est = estimate_misses(nprog, layout, cache, seed=random.Random(2).getrandbits(64))
        exact = find_misses(nprog, layout, cache)
        assert abs(est.miss_ratio - exact.miss_ratio) < 0.03

    def test_tighter_width_is_more_accurate_on_average(self):
        """Both widths must be achievable for the RIS (else Fig. 6 falls back
        to the coarse default and the comparison inverts)."""
        nprog, layout = build_stencil(40)  # RIS volume 1600 per reference
        cache = CacheConfig.kb(8, 32, 1)
        exact = find_misses(nprog, layout, cache).miss_ratio
        errors = {0.12: [], 0.04: []}
        for seed in range(4):
            for w in errors:
                est = estimate_misses(
                    nprog, layout, cache, width=w, seed=random.Random(seed).getrandbits(64)
                )
                errors[w].append(abs(est.miss_ratio - exact))
        assert sum(errors[0.04]) / 4 <= sum(errors[0.12]) / 4 + 0.02

    def test_unachievable_width_falls_back_to_coarse_sampling(self):
        """Fig. 6: an RIS too small for (c, w) is sampled at (90%, 0.15)."""
        nprog, layout = build_stencil(30)  # volume 900 < n0(0.95, 0.03)
        cache = CacheConfig.kb(8, 32, 1)
        est = estimate_misses(
            nprog, layout, cache, width=0.03, seed=random.Random(0).getrandbits(64)
        )
        expected = sample_size(0.90, 0.15, population=900)
        for result in est.results.values():
            assert result.analysed == expected


class TestFig6Behaviours:
    def test_sample_size_matches_formula(self):
        nprog, layout = build_stencil(40)  # RIS volume 1600 per ref
        cache = CacheConfig.kb(8, 32, 1)
        est = estimate_misses(nprog, layout, cache, seed=random.Random(0).getrandbits(64))
        expected = sample_size(0.95, 0.05, population=1600)
        for result in est.results.values():
            assert result.analysed == expected

    def test_small_ris_falls_back_to_exhaustive(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (8,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 8) as i:
                pb.assign(a[i])
        nprog = normalize(pb.build().main)
        layout = layout_for_refs(nprog.refs, align=32)
        est = estimate_misses(nprog, layout, CacheConfig.kb(32, 32, 1))
        result = next(iter(est.results.values()))
        assert result.analysed == result.population == 8
        assert est.total_misses == 2.0  # exact: falls back to FindMisses

    def test_medium_ris_uses_fallback_accuracy(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (200,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 200) as i:
                pb.assign(a[i])
        nprog = normalize(pb.build().main)
        layout = layout_for_refs(nprog.refs, align=32)
        est = estimate_misses(nprog, layout, CacheConfig.kb(32, 32, 1))
        result = next(iter(est.results.values()))
        expected = sample_size(0.90, 0.15, population=200)
        assert result.analysed == expected

    def test_deterministic_with_seed(self):
        nprog, layout = build_stencil(20)
        cache = CacheConfig.kb(8, 32, 1)
        r1 = estimate_misses(nprog, layout, cache, seed=random.Random(7).getrandbits(64))
        r2 = estimate_misses(nprog, layout, cache, seed=random.Random(7).getrandbits(64))
        assert r1.total_misses == r2.total_misses

    def test_seed_and_legacy_rng_are_both_deterministic(self):
        nprog, layout = build_stencil(20)
        cache = CacheConfig.kb(8, 32, 1)
        assert estimate_misses(nprog, layout, cache, seed=9) == estimate_misses(
            nprog, layout, cache, seed=9
        )

    def test_per_reference_seeds_are_independent(self):
        """Regression for the shared-RNG bug: one ``random.Random(0)`` was
        threaded through every reference, so dropping a reference shifted
        the sample of every reference after it.  With derived per-reference
        seeds (``seed ^ ref.uid``), analysing a subset of references must
        reproduce exactly the same per-reference tallies as the full run."""
        nprog, layout = build_stencil(40)
        cache = CacheConfig.kb(8, 32, 1)
        full = estimate_misses(nprog, layout, cache, seed=0)
        # Remove the first reference; the rest must be untouched.
        subset = estimate_misses(
            nprog, layout, cache, seed=0, refs=nprog.refs[1:]
        )
        for ref in nprog.refs[1:]:
            assert subset.result_for(ref) == full.result_for(ref), ref.name()
        # And each reference analysed in isolation reproduces its tally.
        lone = estimate_misses(nprog, layout, cache, seed=0, refs=[nprog.refs[2]])
        assert lone.result_for(nprog.refs[2]) == full.result_for(nprog.refs[2])

    def test_empty_ris_reference(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (8,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 8) as i:
                with pb.if_(i.ge(100)):
                    pb.assign(a[i])
        nprog = normalize(pb.build().main)
        layout = layout_for_refs(nprog.refs, align=32)
        est = estimate_misses(nprog, layout, CacheConfig.kb(32, 32, 1))
        assert est.total_accesses == 0
        assert est.miss_ratio == 0.0


class TestReporting:
    def test_compare_reports_fields(self):
        nprog, layout = build_stencil(20)
        cache = CacheConfig.kb(8, 32, 1)
        est = estimate_misses(nprog, layout, cache, seed=random.Random(0).getrandbits(64))
        sim = simulate(nprog, layout, cache)
        record = compare_reports(est, sim)
        assert set(record) == {
            "analytical_percent",
            "simulated_percent",
            "abs_error",
            "analysis_seconds",
            "simulation_seconds",
            "speedup",
        }
        assert record["abs_error"] >= 0.0

    def test_breakdown_sums_to_population(self):
        nprog, layout = build_stencil(20)
        cache = CacheConfig.kb(8, 32, 1)
        exact = find_misses(nprog, layout, cache)
        b = exact.breakdown()
        assert b["cold"] + b["replacement"] + b["hits"] == exact.total_accesses

    def test_worst_refs_ordering(self):
        nprog, layout = build_stencil(20)
        exact = find_misses(nprog, layout, CacheConfig.kb(8, 32, 1))
        worst = exact.worst_refs(3)
        values = [r.estimated_misses for r in worst]
        assert values == sorted(values, reverse=True)

    def test_analysed_points_far_fewer_than_trace(self):
        """The speedup mechanism: sample size independent of trace length."""
        nprog, layout = build_stencil(40)
        cache = CacheConfig.kb(8, 32, 1)
        est = estimate_misses(nprog, layout, cache, seed=random.Random(0).getrandbits(64))
        assert est.analysed_points < est.total_accesses / 2


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


class TestSeedInvariance:
    def test_exhaustive_path_ignores_seed(self, cache):
        """Small RISs are analysed exhaustively (Fig. 6): no RNG involved,
        so any seed gives the identical report."""
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
            estimate_misses(nprog, layout, cache, seed=seed)
            for seed in (0, 123, 999)
        ]
        for report in reports:
            for res in report.results.values():
                assert res.analysed == res.population
        assert reports[0] == reports[1] == reports[2]

    def test_find_misses_has_no_rng_dependence(self, program, cache):
        nprog, layout = program
        assert find_misses(nprog, layout, cache) == find_misses(
            nprog, layout, cache
        )
