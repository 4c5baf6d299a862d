"""Two-level (L1 → L2) hierarchy simulation tests.

The hierarchy model is deliberately thin: the L2 *is* the single-level
simulator replaying the L1 miss stream, so the properties to pin are the
stream plumbing (the L2 sees exactly the L1 misses, in order),
bit-identity with the walker oracle level by level, and the ``RPCT`` persistence of the miss
stream.
"""

from __future__ import annotations

import pytest

from repro import CacheConfig, prepare, run_simulation
from repro.kernels import build_hydro, build_mmt
from repro.sim import (
    HierarchyReport,
    read_trace,
    simulate,
    simulate_hierarchy,
    simulate_trace,
)
from tests.harness.differential import scalar_hierarchy

L1 = CacheConfig.kb(1, 32, 2)
L2 = CacheConfig.kb(8, 32, 4)


@pytest.fixture(scope="module")
def hydro():
    prepared = prepare(build_hydro(16, 16))
    return prepared.nprog, prepared.layout


class TestHierarchy:
    """``"scalar"`` runs the walker-driven hierarchy oracle, ``"numpy"``
    :func:`~repro.sim.simulate_hierarchy`."""

    @staticmethod
    def _hierarchy(path):
        return scalar_hierarchy if path == "scalar" else simulate_hierarchy

    def test_backends_bit_identical_per_level(self, hydro):
        nprog, layout = hydro
        for policy, l2_policy in (("lru", "lru"), ("fifo", "plru")):
            scalar = scalar_hierarchy(
                nprog, layout, L1, L2, policy=policy, l2_policy=l2_policy
            )
            batch = simulate_hierarchy(
                nprog, layout, L1, L2, policy=policy, l2_policy=l2_policy
            )
            assert scalar.l1.misses == batch.l1.misses
            assert scalar.l2.accesses == batch.l2.accesses
            assert scalar.l2.misses == batch.l2.misses

    @pytest.mark.parametrize("path", ["scalar", "numpy"])
    def test_l2_sees_exactly_the_l1_misses(self, hydro, path):
        nprog, layout = hydro
        report = self._hierarchy(path)(nprog, layout, L1, L2)
        assert report.l2.accesses == report.l1.misses
        assert report.l1.accesses == simulate(nprog, layout, L1).accesses

    def test_l1_level_matches_single_level_simulation(self, hydro):
        nprog, layout = hydro
        report = simulate_hierarchy(nprog, layout, L1, L2)
        single = simulate(nprog, layout, L1)
        assert report.l1.misses == single.misses
        assert report.l1.accesses == single.accesses

    @pytest.mark.parametrize("path", ["scalar", "numpy"])
    def test_miss_stream_persists_as_rpct_trace(self, hydro, path, tmp_path):
        nprog, layout = hydro
        trace = tmp_path / f"l1-misses-{path}.trace"
        report = self._hierarchy(path)(
            nprog, layout, L1, L2, miss_trace_path=trace
        )
        pairs = read_trace(trace)
        assert len(pairs) == report.l1.total_misses
        # Replaying the persisted stream reproduces the L2 level exactly.
        replayed = simulate_trace(trace, L2, refs=nprog.refs)
        assert replayed.misses == report.l2.misses
        assert replayed.accesses == report.l2.accesses

    def test_ratio_arithmetic(self, hydro):
        nprog, layout = hydro
        report = simulate_hierarchy(nprog, layout, L1, L2)
        total = report.total_accesses
        assert total == report.l1.total_accesses
        assert report.global_miss_ratio_percent == pytest.approx(
            100.0 * report.l2.total_misses / total
        )
        assert report.l1_miss_ratio_percent >= report.global_miss_ratio_percent
        assert report.elapsed_seconds == pytest.approx(
            report.l1.elapsed_seconds + report.l2.elapsed_seconds
        )

    def test_l2_policy_defaults_to_l1_policy(self, hydro):
        nprog, layout = hydro
        report = simulate_hierarchy(
            nprog, layout, L1, L2, policy="fifo"
        )
        assert report.l1.policy == "fifo"
        assert report.l2.policy == "fifo"


class TestFacade:
    def test_run_simulation_returns_hierarchy_report(self):
        prepared = prepare(build_mmt(16, 8, 4))
        report = run_simulation(
            prepared, L1, l2_cache=L2, policy="lru", l2_policy="random"
        )
        assert isinstance(report, HierarchyReport)
        assert report.l2.policy == "random"
        single = run_simulation(prepared, L1)
        assert report.l1.misses == single.misses
