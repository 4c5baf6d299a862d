"""Tests for the Fraguela-style probabilistic baseline (Table 7 comparator)."""

import random

import pytest

from repro import CacheConfig, prepare, run_simulation
from repro.baselines import probabilistic_misses
from repro.baselines.probabilistic import _reuse_fraction, _window_iterations
from repro.cme import estimate_misses
from repro.ir import ProgramBuilder
from repro.kernels import build_mmt
from repro.normalize import normalize
from repro.layout import layout_for_refs
from repro.reuse import build_reuse_table


def scan_program(n=64):
    pb = ProgramBuilder("SCAN")
    a = pb.array("A", (n,))
    with pb.subroutine("MAIN"):
        with pb.do("T", 1, 2):
            with pb.do("I", 1, n) as i:
                pb.assign(a[i])
    return normalize(pb.build().main)


class TestMachinery:
    def test_reuse_fraction_unit_shift(self):
        nprog = scan_program(64)
        table = build_reuse_table(nprog, 32)
        ref = nprog.refs[0]
        # self-temporal along T: producer exists for T=2 only -> fraction 1/2
        rv = next(
            v for v in table.vectors_for(ref) if v.index_part() == (1, 0)
        )
        assert _reuse_fraction(nprog, ref, rv) == pytest.approx(0.5)

    def test_reuse_fraction_spatial_within_line(self):
        nprog = scan_program(64)
        table = build_reuse_table(nprog, 32)
        ref = nprog.refs[0]
        rv = next(
            v for v in table.vectors_for(ref) if v.index_part() == (0, 1)
        )
        # producer I-1 exists for I >= 2: fraction 63/64
        assert _reuse_fraction(nprog, ref, rv) == pytest.approx(63 / 64)

    def test_window_iterations_scales_with_depth(self):
        nprog = scan_program(64)
        table = build_reuse_table(nprog, 32)
        ref = nprog.refs[0]
        near = next(v for v in table.vectors_for(ref) if v.index_part() == (0, 1))
        far = next(v for v in table.vectors_for(ref) if v.index_part() == (1, 0))
        extents = [2, 64]
        assert _window_iterations(near, extents) < _window_iterations(far, extents)


class TestReport:
    @pytest.fixture(scope="class")
    def mmt(self):
        return prepare(build_mmt(24, 12, 6))

    def test_ratio_in_unit_interval(self, mmt):
        cache = CacheConfig.kb(1, 32, 1)
        report = probabilistic_misses(mmt.nprog, mmt.layout, cache)
        assert 0.0 <= report.miss_ratio <= 1.0
        assert report.total_accesses > 0

    def test_reference_without_reuse_is_all_miss(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (8,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 8) as i:
                pb.assign(a[8 * i - 7])  # stride 8 elements: no reuse at Ls=4
        nprog = normalize(pb.build().main)
        layout = layout_for_refs(nprog.refs)
        report = probabilistic_misses(nprog, layout, CacheConfig.kb(32, 32, 1))
        assert report.miss_ratio == pytest.approx(1.0)

    def test_estimate_beats_probabilistic_on_mmt(self, mmt):
        """The Table 7 claim: Δ_E < Δ_P across cache configurations."""
        wins = 0
        configs = [(1, 32, 1), (1, 32, 2), (4, 64, 2)]
        for kb, line, k in configs:
            cache = CacheConfig.kb(kb, line, k)
            sim = run_simulation(mmt, cache).miss_ratio_percent
            est = estimate_misses(
                mmt.nprog,
                mmt.layout,
                cache,
                reuse=mmt.reuse_table(cache.line_bytes),
                walker=mmt.walker,
                seed=random.Random(0).getrandbits(64),
            ).miss_ratio_percent
            prob = probabilistic_misses(
                mmt.nprog, mmt.layout, cache, reuse=mmt.reuse_table(cache.line_bytes)
            ).miss_ratio_percent
            if abs(est - sim) <= abs(prob - sim):
                wins += 1
        assert wins >= 2  # EstimateMisses wins (at least) nearly everywhere

    def test_probabilistic_is_fast(self, mmt):
        cache = CacheConfig.kb(1, 32, 1)
        report = probabilistic_misses(
            mmt.nprog, mmt.layout, cache, reuse=mmt.reuse_table(cache.line_bytes)
        )
        assert report.elapsed_seconds < 5.0


class TestRandomReplacementEquation:
    """The random-policy closed form: p_evict = 1 - (1 - 1/(S·k))^F."""

    @pytest.fixture(scope="class")
    def mmt(self):
        return prepare(build_mmt(24, 12, 6))

    def test_ratio_in_unit_interval(self, mmt):
        cache = CacheConfig.kb(1, 32, 2)
        report = probabilistic_misses(
            mmt.nprog, mmt.layout, cache, policy="random"
        )
        assert 0.0 <= report.miss_ratio <= 1.0
        assert report.total_accesses > 0

    def test_policy_none_and_auto_mean_lru(self, mmt):
        cache = CacheConfig.kb(1, 32, 2)
        reuse = mmt.reuse_table(cache.line_bytes)
        lru = probabilistic_misses(mmt.nprog, mmt.layout, cache, reuse=reuse)
        for alias in (None, "auto", "lru"):
            aliased = probabilistic_misses(
                mmt.nprog, mmt.layout, cache, reuse=reuse, policy=alias
            )
            assert aliased.ref_ratios == lru.ref_ratios

    def test_random_differs_from_lru_under_contention(self, mmt):
        cache = CacheConfig.kb(1, 32, 2)
        reuse = mmt.reuse_table(cache.line_bytes)
        lru = probabilistic_misses(mmt.nprog, mmt.layout, cache, reuse=reuse)
        rnd = probabilistic_misses(
            mmt.nprog, mmt.layout, cache, reuse=reuse, policy="random"
        )
        assert rnd.ref_ratios != lru.ref_ratios

    def test_random_moves_the_same_way_as_the_simulator(self, mmt):
        """Directional consistency: the footprint approximation makes the
        absolute figures loose (the Table 7 weakness), but switching
        LRU → random must move the analytical prediction the same way it
        moves the simulator on a contended configuration."""
        cache = CacheConfig.kb(1, 32, 2)
        sim_lru = run_simulation(mmt, cache).miss_ratio_percent
        sim_rnd = run_simulation(
            mmt, cache, policy="random", seed=0
        ).miss_ratio_percent
        reuse = mmt.reuse_table(cache.line_bytes)
        prob_lru = probabilistic_misses(
            mmt.nprog, mmt.layout, cache, reuse=reuse
        ).miss_ratio_percent
        prob_rnd = probabilistic_misses(
            mmt.nprog, mmt.layout, cache, reuse=reuse, policy="random"
        ).miss_ratio_percent
        assert sim_rnd > sim_lru  # random loses to LRU here...
        assert prob_rnd > prob_lru  # ...and the model agrees in direction

    def test_unsupported_policies_raise(self, mmt):
        from repro.errors import ReproError

        cache = CacheConfig.kb(1, 32, 2)
        for policy in ("fifo", "plru"):
            with pytest.raises(ReproError, match="no probabilistic"):
                probabilistic_misses(
                    mmt.nprog, mmt.layout, cache, policy=policy
                )

    def test_random_needs_no_scipy(self, mmt, monkeypatch):
        """The random branch must not import scipy (the LRU import is
        lazy so NumPy-only environments can still use it)."""
        import builtins
        import sys

        real_import = builtins.__import__

        def no_scipy(name, *args, **kwargs):
            if name.startswith("scipy"):
                raise ImportError("scipy blocked for this test")
            return real_import(name, *args, **kwargs)

        monkeypatch.delitem(sys.modules, "scipy.stats", raising=False)
        monkeypatch.delitem(sys.modules, "scipy", raising=False)
        monkeypatch.setattr(builtins, "__import__", no_scipy)
        cache = CacheConfig.kb(1, 32, 2)
        report = probabilistic_misses(
            mmt.nprog,
            mmt.layout,
            cache,
            reuse=mmt.reuse_table(cache.line_bytes),
            policy="random",
        )
        assert 0.0 <= report.miss_ratio <= 1.0
