"""Seeded property tests for the replacement-policy framework."""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from repro import obs
from repro.errors import ReproError
from repro.layout import CacheConfig
from repro.sim import simulate_trace
from repro.sim.cache import SetAssocLRUCache
from repro.sim.policy import (
    DEFAULT_POLICY,
    POLICIES,
    LRUSet,
    PLRUSet,
    PolicyCache,
    make_cache,
    mix_victim,
    resolve_policy,
)
from tests.harness.differential import scalar_trace


def _stream(seed: int, pages: int = 24, length: int = 600) -> list[int]:
    """A seeded page stream with enough conflict to exercise eviction."""
    rng = random.Random(seed)
    return [rng.randrange(pages) for _ in range(length)]


def _pairs(stream, line=32):
    return [(0, page * line) for page in stream]


class TestResolvePolicy:
    def test_none_and_auto_mean_lru(self):
        assert resolve_policy(None) == DEFAULT_POLICY == "lru"
        assert resolve_policy("auto") == "lru"

    @pytest.mark.parametrize("policy", POLICIES)
    def test_known_names_pass_through(self, policy):
        assert resolve_policy(policy) == policy

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="unknown replacement policy"):
            resolve_policy("mru")

    def test_plru_rejects_non_power_of_two_assoc(self):
        cache = CacheConfig(3 * 32 * 4, 32, 3)
        with pytest.raises(ReproError, match="power-of-two"):
            PolicyCache(cache, "plru")
        # ...but the other policies take the same geometry fine.
        for policy in ("lru", "fifo", "random"):
            assert PolicyCache(cache, policy).access_line(0) is False


class TestMixVictim:
    def test_pure_function_of_its_inputs(self):
        assert mix_victim(7, 3, 11, 8) == mix_victim(7, 3, 11, 8)

    def test_in_range_and_spread(self):
        draws = [mix_victim(1, s, e, 8) for s in range(8) for e in range(64)]
        assert all(0 <= d < 8 for d in draws)
        # splitmix64 over 512 draws should touch every way.
        assert set(draws) == set(range(8))

    def test_seed_changes_the_draw_sequence(self):
        a = [mix_victim(0, 0, e, 8) for e in range(32)]
        b = [mix_victim(1, 0, e, 8) for e in range(32)]
        assert a != b


class TestPolicyCacheLRU:
    def test_bit_identical_to_the_tuned_lru_cache(self):
        cache = CacheConfig.kb(1, 32, 2)
        tuned = SetAssocLRUCache(cache)
        generic = PolicyCache(cache, "lru")
        for line in _stream(5, pages=200, length=2000):
            assert tuned.access_line(line) == generic.access_line(line)
        assert tuned.evictions == generic.evictions

    def test_make_cache_picks_the_tuned_lru(self):
        cache = CacheConfig.kb(1, 32, 2)
        assert isinstance(make_cache(cache, None), SetAssocLRUCache)
        assert isinstance(make_cache(cache, "fifo"), PolicyCache)


class TestPLRU:
    def test_two_way_plru_is_exactly_lru(self):
        plru, lru = PLRUSet(2), LRUSet(2)
        for line in _stream(9, pages=8, length=500):
            assert plru.access(line) == lru.access(line)
        assert plru.evictions == lru.evictions

    def test_pinned_divergence_from_lru_at_four_ways(self):
        # Fill A B C D (ways 0-3), re-touch A, then miss E: true LRU
        # evicts B (oldest untouched), tree-PLRU follows its bits to C.
        A, B, C, D, E = range(5)
        plru, lru = PLRUSet(4), LRUSet(4)
        for m in (plru, lru):
            for line in (A, B, C, D, A, E):
                m.access(line)
        assert lru.access(B) is False  # true LRU evicted B for E
        assert plru.access(B) is True  # tree-PLRU kept B...
        assert plru.access(C) is False  # ...and evicted C instead

    def test_state_round_trip_resumes_identically(self):
        rng = random.Random(13)
        original = PLRUSet(8)
        for line in _stream(13, pages=30, length=300):
            original.access(line)
        resumed = PLRUSet(8)
        resumed.restore(original.state())
        assert resumed.state() == original.state()
        suffix = [rng.randrange(30) for _ in range(300)]
        assert [original.access(l) for l in suffix] == [
            resumed.access(l) for l in suffix
        ]
        assert original.state() == resumed.state()

    def test_restore_rejects_wrong_width_state(self):
        machine = PLRUSet(4)
        with pytest.raises(ReproError, match="ways"):
            machine.restore(((None, None), 0))


class TestRandomDeterminism:
    CACHE = CacheConfig(32 * 4 * 4, 32, 4)  # 4 sets, 4-way

    def test_fixed_seed_reproduces_across_backends_and_runs(self):
        pairs = _pairs(_stream(21))
        reports = [
            replay(pairs, self.CACHE, policy="random", seed=4)
            for replay in (scalar_trace, simulate_trace, scalar_trace)
        ]
        for report in reports[1:]:
            assert report.misses == reports[0].misses

    def test_different_seeds_draw_different_victims(self):
        pairs = _pairs(_stream(21))
        totals = {
            simulate_trace(
                pairs, self.CACHE, policy="random", seed=seed
            ).total_misses
            for seed in range(6)
        }
        assert len(totals) > 1

    def test_reproduces_across_processes_and_hash_seeds(self):
        # PYTHONHASHSEED perturbs str/bytes hashing: a victim draw built
        # on hash() would diverge between these two interpreters.
        script = (
            "import random\n"
            "from repro.layout import CacheConfig\n"
            "from repro.sim import simulate_trace\n"
            "rng = random.Random(21)\n"
            "pairs = [(0, rng.randrange(24) * 32) for _ in range(600)]\n"
            "cache = CacheConfig(32 * 4 * 4, 32, 4)\n"
            "r = simulate_trace(pairs, cache, policy='random', seed=4)\n"
            "print(r.total_misses, sorted(r.misses.items()))\n"
        )
        outputs = set()
        for hash_seed in ("0", "4242"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
            )
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestFullyAssociativeFastPath:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_the_scalar_set_associative_reference(self, policy):
        # A one-set cache *is* a k=lines set-associative cache; the
        # scalar walker never takes the fast path, so it is the
        # independent reference for the vectorized one.
        lines = 8
        cache = CacheConfig(32 * lines, 32, lines)
        assert cache.num_sets == 1
        pairs = _pairs(_stream(31, pages=20))
        fast = simulate_trace(pairs, cache, policy=policy, seed=2)
        reference = scalar_trace(pairs, cache, policy=policy, seed=2)
        assert fast.accesses == reference.accesses
        assert fast.misses == reference.misses

    def test_fast_path_counter_increments(self):
        fa = CacheConfig(32 * 8, 32, 8)
        split = CacheConfig(32 * 8 * 4, 32, 8)
        pairs = _pairs(_stream(33))
        obs.enable()
        obs.reset()
        try:
            simulate_trace(pairs, fa, policy="fifo")
            counters = obs.snapshot()["counters"]
            assert counters["sim.policy.fa_fastpath"] == 1
            assert counters["sim.policy.fifo"] == 1
            simulate_trace(pairs, split, policy="fifo")
            assert obs.snapshot()["counters"]["sim.policy.fa_fastpath"] == 1
        finally:
            obs.disable()


class TestPolicyCounters:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_each_policy_counts_its_runs(self, policy):
        pairs = _pairs(_stream(37))
        cache = CacheConfig(32 * 2 * 2, 32, 2)
        obs.enable()
        obs.reset()
        try:
            simulate_trace(pairs, cache, policy=policy)
            counters = obs.snapshot()["counters"]
            assert counters["sim.policy." + policy] == 1
            # Trace replays report the aggregate sim.* tallies too.
            assert counters["sim.accesses"] == len(pairs)
            assert (
                counters["sim.hits"] + counters["sim.misses"]
                == counters["sim.accesses"]
            )
        finally:
            obs.disable()
