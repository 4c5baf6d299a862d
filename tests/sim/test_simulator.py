"""Cache simulator tests with hand-computed miss counts."""

import pytest

from repro.ir import ProgramBuilder
from repro.layout import CacheConfig, MemoryLayout, layout_for_refs
from repro.normalize import normalize
from repro.sim import SetAssocLRUCache, simulate
from repro.iteration import Walker
from tests.harness.differential import (
    force_walker_fallback,
    scalar_simulate,
    scalar_trace,
)


def analyse_ready(pb):
    prog = pb.build()
    nprog = normalize(prog.main)
    layout = layout_for_refs(nprog.refs, declared_order=prog.global_arrays)
    return nprog, layout


class TestLRUCacheState:
    def test_cold_miss_then_hit(self):
        c = SetAssocLRUCache(CacheConfig(64, 32, 1))
        assert not c.access_line(0)
        assert c.access_line(0)

    def test_direct_mapped_conflict(self):
        c = SetAssocLRUCache(CacheConfig(64, 32, 1))  # 2 sets
        assert not c.access_line(0)
        assert not c.access_line(2)  # same set, evicts line 0
        assert not c.access_line(0)

    def test_two_way_holds_two_lines(self):
        c = SetAssocLRUCache(CacheConfig(128, 32, 2))  # 2 sets, 2-way
        c.access_line(0)
        c.access_line(2)
        assert c.access_line(0)
        assert c.access_line(2)

    def test_lru_evicts_least_recent(self):
        c = SetAssocLRUCache(CacheConfig(64, 32, 2))  # 1 set, 2-way
        c.access_line(0)
        c.access_line(1)
        c.access_line(0)  # 1 is now LRU
        c.access_line(2)  # evicts 1
        assert c.access_line(0)
        assert not c.access_line(1)

    def test_access_address(self):
        c = SetAssocLRUCache(CacheConfig(64, 32, 1))
        assert not c.access_address(5)
        assert c.access_address(31)  # same 32B line
        assert not c.access_address(32)

    def test_flush(self):
        c = SetAssocLRUCache(CacheConfig(64, 32, 1))
        c.access_line(0)
        c.flush()
        assert not c.access_line(0)
        assert c.resident_lines() == {0}


class TestSimulateKnownCounts:
    def test_sequential_scan_spatial_locality(self):
        """A(1..16) REAL*8 with 32B lines: one miss per 4 elements."""
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 16) as i:
                pb.assign(a[i])
        nprog, layout = analyse_ready(pb)
        report = simulate(nprog, layout, CacheConfig.kb(32, 32, 1))
        assert report.total_accesses == 16
        assert report.total_misses == 4
        assert report.miss_ratio == 0.25

    def test_repeat_scan_all_hits_second_time(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("T", 1, 2):
                with pb.do("I", 1, 16) as i:
                    pb.assign(a[i])
        nprog, layout = analyse_ready(pb)
        report = simulate(nprog, layout, CacheConfig.kb(32, 32, 1))
        assert report.total_accesses == 32
        assert report.total_misses == 4  # second sweep hits in cache

    def test_capacity_misses_when_footprint_exceeds_cache(self):
        """Footprint 8KB > 1KB cache: every revisit misses again."""
        pb = ProgramBuilder("P")
        a = pb.array("A", (1024,))  # 8KB
        with pb.subroutine("MAIN"):
            with pb.do("T", 1, 2):
                with pb.do("I", 1, 1024) as i:
                    pb.assign(a[i])
        nprog, layout = analyse_ready(pb)
        report = simulate(nprog, layout, CacheConfig.kb(1, 32, 1))
        assert report.total_misses == 2 * 1024 // 4

    def test_conflict_misses_direct_mapped_vs_2way(self):
        """Two arrays exactly one cache apart: ping-pong in direct mapped."""
        pb = ProgramBuilder("P")
        a = pb.array("A", (128,))  # 1KB
        b = pb.array("B", (128,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 128) as i:
                pb.assign(b[i], a[i])
        prog = pb.build()
        nprog = normalize(prog.main)
        layout = MemoryLayout(prog.global_arrays, align=1024)
        direct = simulate(nprog, layout, CacheConfig.kb(1, 32, 1))
        two_way = simulate(nprog, layout, CacheConfig.kb(1, 32, 2))
        # Direct mapped: A(i) and B(i) map to the same set -> every access misses.
        assert direct.total_misses == 256
        # 2-way: both lines coexist -> one miss per line per array.
        assert two_way.total_misses == 64

    def test_write_counts_as_access(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (4,))
        b = pb.array("B", (4,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 4) as i:
                pb.assign(b[i], a[i])  # one read + one write per iteration
        nprog, layout = analyse_ready(pb)
        report = simulate(nprog, layout, CacheConfig.kb(32, 32, 1))
        assert report.total_accesses == 8

    def test_per_reference_ratios(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("T", 1, 2):
                with pb.do("I", 1, 16) as i:
                    pb.assign(a[i])
        nprog, layout = analyse_ready(pb)
        report = simulate(nprog, layout, CacheConfig.kb(32, 32, 1))
        ref = nprog.refs[0]
        assert report.ref_miss_ratio(ref) == report.miss_ratio

    def test_guarded_statement_skipped_when_false(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 16) as i:
                with pb.if_(i.le(8)):
                    pb.assign(a[i])
        nprog, layout = analyse_ready(pb)
        report = simulate(nprog, layout, CacheConfig.kb(32, 32, 1))
        assert report.total_accesses == 8

    def test_empty_report_ratio_zero(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (4,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 0) as i:  # empty loop range
                pb.assign(a[i])
        nprog, layout = analyse_ready(pb)
        report = simulate(nprog, layout, CacheConfig.kb(32, 32, 1))
        assert report.total_accesses == 0
        assert report.miss_ratio == 0.0

    def test_reuse_across_nests(self):
        """Second nest re-reads what the first nest wrote (inter-nest reuse)."""
        pb = ProgramBuilder("P")
        a = pb.array("A", (32,))
        b = pb.array("B", (32,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 32) as i:
                pb.assign(a[i])
            with pb.do("I", 1, 32) as i:
                pb.assign(b[i], a[i])
        nprog, layout = analyse_ready(pb)
        report = simulate(nprog, layout, CacheConfig.kb(32, 32, 1))
        # A misses 8 (first nest), hits in second; B misses 8.
        assert report.total_misses == 16

    def test_walker_can_be_reused(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 16) as i:
                pb.assign(a[i])
        nprog, layout = analyse_ready(pb)
        walker = Walker(nprog, layout)
        r1 = simulate(nprog, layout, CacheConfig.kb(32, 32, 1), walker=walker)
        r2 = simulate(nprog, layout, CacheConfig.kb(32, 32, 1), walker=walker)
        assert r1.total_misses == r2.total_misses


class TestBackendSelection:
    """The batch simulator, its walker fallback and the scalar oracles.

    ``path`` parametrises the public entry points: ``"numpy"`` runs the
    set kernels, ``"scalar"`` forces the walker fallback (and replays
    explicit traces through the scalar oracle)."""

    def _scan(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (64,))
        with pb.subroutine("MAIN"):
            with pb.do("T", 1, 2):
                with pb.do("I", 1, 64) as i:
                    pb.assign(a[i])
        return analyse_ready(pb)

    def test_backends_agree_and_auto_resolves(self):
        nprog, layout = self._scan()
        cache = CacheConfig.kb(1, 32, 2)
        scalar = scalar_simulate(nprog, layout, cache)
        batch = simulate(nprog, layout, cache)
        assert scalar.accesses == batch.accesses
        assert scalar.misses == batch.misses

    def test_oversized_trace_falls_back_to_scalar(self, monkeypatch):
        import repro.sim.batch as batch_mod

        monkeypatch.setattr(batch_mod, "MAX_TRACE_ACCESSES", 10)
        nprog, layout = self._scan()
        report = simulate(nprog, layout, CacheConfig.kb(1, 32, 2))
        assert report.total_accesses == 128

    @pytest.mark.parametrize("path", ["scalar", "numpy"])
    def test_sweep_matches_per_cache_simulate(self, path, monkeypatch):
        from repro.sim import simulate_sweep

        if path == "scalar":
            force_walker_fallback(monkeypatch)
        nprog, layout = self._scan()
        caches = [
            CacheConfig.kb(1, 32, 1),
            CacheConfig.kb(1, 32, 2),
            CacheConfig.kb(1, 16, 4),  # different line size in one sweep
        ]
        reports = simulate_sweep(nprog, layout, caches)
        assert [r.cache for r in reports] == caches
        for cache, swept in zip(caches, reports):
            direct = simulate(nprog, layout, cache)
            assert swept.accesses == direct.accesses
            assert swept.misses == direct.misses

    def test_sweep_of_nothing_is_empty(self):
        from repro.sim import simulate_sweep

        nprog, layout = self._scan()
        assert simulate_sweep(nprog, layout, []) == []


class TestSimulateTrace:
    """Replaying explicit traces, and the uid-mismatch invariant.

    ``"scalar"`` replays through the scalar oracle, ``"numpy"`` through
    :func:`~repro.sim.simulate_trace`."""

    def _prog(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 16) as i:
                pb.assign(a[i])
        return analyse_ready(pb)

    @staticmethod
    def _replay(path):
        from repro.sim import simulate_trace

        return scalar_trace if path == "scalar" else simulate_trace

    @pytest.mark.parametrize("path", ["scalar", "numpy"])
    def test_unknown_uid_raises_invariant_error(self, path):
        """Regression: unknown trace uids used to be silently dropped from
        the tallies, skewing every aggregate ratio."""
        from repro.errors import InvariantError

        nprog, _ = self._prog()
        trace = [(0, 0), (7, 64)]  # uid 7 does not exist in the program
        with pytest.raises(InvariantError, match="uid 7"):
            self._replay(path)(trace, CacheConfig.kb(1, 32, 1), refs=nprog.refs)

    @pytest.mark.parametrize("path", ["scalar", "numpy"])
    def test_refs_prefill_zero_tallies(self, path):
        nprog, _ = self._prog()
        report = self._replay(path)([], CacheConfig.kb(1, 32, 1), refs=nprog.refs)
        assert report.accesses == {r.uid: 0 for r in nprog.refs}
        assert report.misses == {r.uid: 0 for r in nprog.refs}
        assert report.miss_ratio == 0.0

    @pytest.mark.parametrize("path", ["scalar", "numpy"])
    def test_without_refs_tallies_by_trace_uid(self, path):
        trace = [(3, 0), (3, 0), (9, 32)]
        report = self._replay(path)(trace, CacheConfig.kb(1, 32, 1))
        assert report.accesses == {3: 2, 9: 1}
        assert report.misses == {3: 1, 9: 1}

    @pytest.mark.parametrize("line_bytes", [32, 24])
    def test_addresses_near_2_64_agree_on_every_path(self, tmp_path, line_bytes):
        """Regression: in-memory pairs were decoded as int64, so a valid u64
        address past 2**63 raised a raw OverflowError.  Pairs, the trace
        file and the scalar oracle now give one report."""
        from repro.sim import simulate_trace, write_trace

        top = 2**64 - 1
        pairs = [
            (0, top - 7), (1, 2**63), (0, top - 7 - 4096), (2, 0),
            (1, 2**63 + 32), (0, top - 7), (2, 2**63 - 1), (1, 2**63),
        ]
        path = tmp_path / "high.trace"
        write_trace(path, pairs)
        for cache in (
            CacheConfig(32 * line_bytes, line_bytes, 1),
            CacheConfig(96 * line_bytes, line_bytes, 2),  # 48 sets
        ):
            want = scalar_trace(pairs, cache)
            for got in (simulate_trace(pairs, cache), simulate_trace(path, cache)):
                assert got.accesses == want.accesses
                assert got.misses == want.misses

    @pytest.mark.parametrize(
        "pair, field",
        [
            ((0, -1), "address"),
            ((0, 2**64), "address"),
            ((2**32, 0), "ref uid"),
            ((-1, 0), "ref uid"),
        ],
    )
    def test_pairs_outside_the_record_widths_raise(self, pair, field):
        from repro.errors import TraceFormatError
        from repro.sim import simulate_trace

        with pytest.raises(TraceFormatError, match=field):
            simulate_trace([(0, 0), pair], CacheConfig.kb(1, 32, 1))


class TestSweepValidation:
    """Regression: ``simulate_sweep`` used to accept duplicate and
    unsorted associativity lists silently — duplicates were simulated
    (and reported) twice and curves came back out of order; non-positive
    values built nonsensical geometries instead of failing fast."""

    def _scan(self):
        pb = ProgramBuilder("SWEEPV")
        a = pb.array("A", (64,))
        with pb.subroutine("MAIN"):
            with pb.do("T", 1, 2):
                with pb.do("I", 1, 64) as i:
                    pb.assign(a[i])
        return analyse_ready(pb)

    @pytest.mark.parametrize("path", ["scalar", "numpy"])
    def test_assoc_sweep_dedupes_and_sorts(self, path, monkeypatch):
        from repro.sim import simulate_sweep

        if path == "scalar":
            force_walker_fallback(monkeypatch)
        nprog, layout = self._scan()
        base = CacheConfig.kb(2, 32, 4)
        reports = simulate_sweep(
            nprog, layout, base, assocs=[4, 1, 2, 2, 1, 4]
        )
        assert [r.cache.assoc for r in reports] == [1, 2, 4]
        for report in reports:
            assert report.cache.size_bytes == base.size_bytes
            assert report.cache.line_bytes == base.line_bytes
            direct = simulate(nprog, layout, report.cache)
            assert report.accesses == direct.accesses
            assert report.misses == direct.misses

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True, "2"])
    def test_invalid_assoc_values_raise(self, bad):
        from repro.errors import InvariantError
        from repro.sim import normalize_assocs

        with pytest.raises(InvariantError, match="positive integers"):
            normalize_assocs([1, bad])

    def test_normalize_assocs_canonicalises(self):
        from repro.sim import normalize_assocs

        assert normalize_assocs([8, 2, 2, 4, 8]) == [2, 4, 8]

    def test_inexpressible_assoc_raises(self):
        from repro.errors import InvariantError
        from repro.sim import assoc_sweep_caches

        with pytest.raises(InvariantError, match="cannot hold 3 ways"):
            assoc_sweep_caches(CacheConfig.kb(2, 32, 1), [3])

    def test_assocs_needs_a_single_base_config(self):
        from repro.errors import InvariantError
        from repro.sim import simulate_sweep

        nprog, layout = self._scan()
        with pytest.raises(InvariantError, match="single base CacheConfig"):
            simulate_sweep(
                nprog,
                layout,
                [CacheConfig.kb(1, 32, 1), CacheConfig.kb(1, 32, 2)],
                assocs=[1, 2],
            )

    @pytest.mark.parametrize("path", ["scalar", "numpy"])
    def test_duplicate_caches_simulated_once(self, path, monkeypatch):
        from repro.sim import simulate_sweep

        if path == "scalar":
            force_walker_fallback(monkeypatch)
        nprog, layout = self._scan()
        c1 = CacheConfig.kb(1, 32, 2)
        c2 = CacheConfig.kb(1, 32, 1)
        reports = simulate_sweep(nprog, layout, [c1, c2, c1])
        assert [r.cache for r in reports] == [c1, c2]

    def test_single_base_config_without_assocs_is_one_report(self):
        from repro.sim import simulate_sweep

        nprog, layout = self._scan()
        cache = CacheConfig.kb(1, 32, 2)
        (report,) = simulate_sweep(nprog, layout, cache)
        assert report.cache == cache

    @pytest.mark.parametrize("path", ["scalar", "numpy"])
    def test_sweep_carries_the_policy(self, path, monkeypatch):
        from repro.sim import simulate_sweep

        if path == "scalar":
            force_walker_fallback(monkeypatch)
        nprog, layout = self._scan()
        reports = simulate_sweep(
            nprog,
            layout,
            CacheConfig.kb(1, 32, 4),
            policy="fifo",
            assocs=[1, 2, 4],
        )
        assert {r.policy for r in reports} == {"fifo"}
        for report in reports:
            direct = simulate(nprog, layout, report.cache, policy="fifo")
            assert report.misses == direct.misses
