"""Per-policy differential matrix: every policy, both engines, 210 cases.

The cache-model zoo is only trustworthy inside the same harness that
validates the LRU kernel, so this module runs the full 210-case seeded
program/geometry pool once per registered replacement policy and asserts
**bit-identity** of the per-reference tallies between the vectorized
simulator and the walker oracle.  For
LRU that checks the closed-form stack-distance kernel; for FIFO, PLRU
and random it checks that run compression and set decomposition are
semantics-preserving around the run-head replay.

Two policy-theory properties ride along:

* **LRU inclusion property** — at a fixed set count, a ``k+1``-way LRU
  cache's content always includes the ``k``-way cache's (LRU is a stack
  algorithm), so misses are monotonically non-increasing in
  associativity.  Checked across the case pool.
* **Belady's anomaly** — FIFO is *not* a stack algorithm: the classic
  counterexample (Belady 1969; reference string 1 2 3 4 1 2 5 1 2 3 4 5)
  misses **more** with four frames than with three.  Pinned exactly, on
  both engines.
"""

from __future__ import annotations

import pytest

from repro.layout import CacheConfig
from repro.sim import simulate, simulate_trace
from repro.sim.policy import POLICIES
from tests.harness.differential import (
    FAMILIES,
    check_policy_bit_identity,
    generate_cases,
    scalar_simulate,
    scalar_trace,
)

#: 30 cases per family — 210 total, the same pool as every other sweep.
CASE_COUNT = 30 * len(FAMILIES)

_pool = None


def case_pool():
    """The case pool with normalisation/layout amortised across policies."""
    global _pool
    if _pool is None:
        cases = generate_cases(CASE_COUNT)
        _pool = [(case, case.prepared()) for case in cases]
    return _pool


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_bit_identity_over_case_pool(policy):
    failures = []
    for case, prepared in case_pool():
        failures.extend(
            check_policy_bit_identity(case, policy, seed=11, prepared=prepared)
        )
    assert not failures, "\n".join(failures[:20])


@pytest.mark.parametrize("path", ["scalar", "numpy"])
def test_lru_inclusion_property(path):
    """LRU misses never increase with associativity at a fixed set count."""
    num_sets, line = 16, 32
    failures = []
    for case, (nprog, layout) in case_pool()[:: len(FAMILIES)]:
        previous = None
        for assoc in (1, 2, 4, 8):
            cache = CacheConfig(line * num_sets * assoc, line, assoc)
            assert cache.num_sets == num_sets
            run = scalar_simulate if path == "scalar" else simulate
            misses = run(nprog, layout, cache, policy="lru").total_misses
            if previous is not None and misses > previous:
                failures.append(
                    f"{case.name}: {assoc}-way missed {misses} > "
                    f"{previous} at {assoc // 2}-way"
                )
            previous = misses
    assert not failures, "\n".join(failures)


#: Belady's reference string, as (uid, address) pairs one line apart.
_BELADY_PAGES = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]


def _replay(path: str):
    """The scalar replay oracle, or :func:`simulate_trace`."""
    return scalar_trace if path == "scalar" else simulate_trace


def _belady_fifo_misses(frames: int, path: str) -> int:
    line = 32
    cache = CacheConfig(line * frames, line, frames)  # fully associative
    assert cache.num_sets == 1
    pairs = [(0, page * line) for page in _BELADY_PAGES]
    report = _replay(path)(pairs, cache, policy="fifo")
    return report.total_misses


@pytest.mark.parametrize("path", ["scalar", "numpy"])
def test_fifo_belady_anomaly_pinned(path):
    """The classic counterexample: 4 FIFO frames miss more than 3."""
    three = _belady_fifo_misses(3, path)
    four = _belady_fifo_misses(4, path)
    assert three == 9
    assert four == 10
    assert four > three  # the anomaly itself


@pytest.mark.parametrize("path", ["scalar", "numpy"])
def test_lru_has_no_anomaly_on_belady_string(path):
    """The same string under LRU obeys inclusion (10 then 8 misses)."""
    line = 32
    pairs = [(0, page * line) for page in _BELADY_PAGES]
    misses = [
        _replay(path)(
            pairs, CacheConfig(line * frames, line, frames), policy="lru"
        ).total_misses
        for frames in (3, 4)
    ]
    assert misses[0] >= misses[1]
