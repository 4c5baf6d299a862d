"""Trace-level differential sweep: vectorized simulator vs walker oracle.

Over the same 210-case seeded pool as the classifier sweep (all harness
families, all cache geometries), the stack-distance kernel must be
**bit-identical** to :class:`~repro.sim.cache.SetAssocLRUCache`:

* ``simulate`` reports the same per-reference ``accesses`` and
  ``misses`` dicts as the walker oracle
  (:func:`tests.harness.differential.scalar_simulate`), case for case;
* the batch trace builder reproduces the walker's access stream pair for
  pair, and its binary-file round trip equals :func:`naive_trace` — the
  independent per-leaf-enumeration oracle;
* replaying an exported trace file (:func:`simulate_trace`, or the
  scalar replay oracle) matches the in-memory simulation.

This module pins the default (LRU) engine; the same 210-case pool is
re-run once per replacement policy — FIFO, tree-PLRU and seeded-random
via the run-head-replay kernel — in
``tests/sim/test_policy_differential.py`` (ISSUE 8), which also pins the
LRU inclusion property and FIFO's Belady anomaly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

from repro.iteration import Walker
from repro.sim import (
    collect_walker_trace,
    naive_trace,
    read_trace,
    simulate,
    simulate_trace,
    write_trace,
)
from tests.harness.differential import (
    FAMILIES,
    generate_cases,
    scalar_simulate,
    scalar_trace,
)

#: 30 cases per family — 210 total, same pool as the classifier sweep.
CASE_COUNT = 30 * len(FAMILIES)

_cases = None


def all_cases():
    global _cases
    if _cases is None:
        _cases = generate_cases(CASE_COUNT)
    return _cases


def test_sim_reports_bit_identical():
    failures = []
    for case in all_cases():
        nprog, layout = case.prepared()
        scalar = scalar_simulate(nprog, layout, case.cache)
        batch = simulate(nprog, layout, case.cache)
        if batch.accesses != scalar.accesses:
            failures.append(f"{case.name}: access tallies diverge")
        if batch.misses != scalar.misses:
            failures.append(f"{case.name}: miss tallies diverge")
    assert not failures, "\n".join(failures[:20])


def test_trace_arrays_match_walker_stream():
    # One case per family covers both trace builders (the guarded
    # families use the lex-sort path, the rest the rectangular one).
    from repro.sim import batch

    for case in all_cases()[: 2 * len(FAMILIES)]:
        nprog, layout = case.prepared()
        walker = Walker(nprog, layout)
        uids, addrs = batch.trace_arrays(nprog, layout, walker)
        assert (
            list(zip(uids.tolist(), addrs.tolist()))
            == collect_walker_trace(walker)
        ), f"{case.name}: batch trace diverges from the walker stream"


def test_exported_trace_round_trips_to_naive_trace(tmp_path):
    # naive_trace enumerates per leaf and sorts — a fully independent
    # oracle for the order the binary file must replay in.
    for k, case in enumerate(all_cases()[:: len(FAMILIES) * 3]):
        nprog, layout = case.prepared()
        path = tmp_path / f"case{k}.trace"
        write_trace(path, collect_walker_trace(Walker(nprog, layout)))
        assert read_trace(path) == [
            (e.ref_uid, e.address) for e in naive_trace(nprog, layout)
        ], f"{case.name}: exported trace != naive_trace"


@pytest.mark.parametrize("path", ["scalar", "numpy"])
def test_trace_file_replay_matches_simulation(tmp_path, path):
    for k, case in enumerate(all_cases()[7 :: len(FAMILIES) * 5]):
        nprog, layout = case.prepared()
        trace = tmp_path / f"case{k}.trace"
        write_trace(trace, collect_walker_trace(Walker(nprog, layout)))
        if path == "scalar":
            replayed = scalar_trace(read_trace(trace), case.cache, nprog.refs)
            direct = scalar_simulate(nprog, layout, case.cache)
        else:
            replayed = simulate_trace(trace, case.cache, refs=nprog.refs)
            direct = simulate(nprog, layout, case.cache)
        assert replayed.accesses == direct.accesses, case.name
        assert replayed.misses == direct.misses, case.name


#: Simulates Hydro 16×16 at 2³⁰ and 2²⁸ sets under a 2 GiB address-space
#: limit and prints each run's misses beside the first touches of every
#: line: with that many sets no two of its lines share one, so only first
#: touches miss.
_HUGE_SETS_SCRIPT = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from repro import prepare, run_simulation
from repro.serve.engine import load_kernel
from repro.serve.protocol import parse_cache_spec
from repro.sim.batch import trace_arrays
prep = prepare(load_kernel("hydro", 16))
uids, addrs = trace_arrays(prep.nprog, prep.layout, prep.walker)
_, first = np.unique(addrs // 32, return_index=True)
cold = {int(u): int(n) for u, n in zip(*np.unique(uids[first], return_counts=True))}
runs = []
for spec, policy in (("33554432:32:1", None), ("33554432:32:4", None),
                     ("33554432:32:4", "fifo")):
    cache = parse_cache_spec(spec)
    assert int(addrs.max()) // 32 < cache.num_sets
    report = run_simulation(prep, cache, policy=policy)
    misses = {u: n for u, n in report.misses.items() if n}
    runs.append([spec, policy, misses == cold, report.total_misses])
print(json.dumps([sum(cold.values()), runs]))
"""


def test_huge_set_counts_cost_memory_of_the_trace_only():
    """The kernels allocate per touched set, never per cache set: a
    geometry the CLI and the daemon accept (2³⁰ sets) simulates within a
    2 GiB address space.  The run gets its own ``RLIMIT_AS`` in a
    subprocess, so a regression fails with ``MemoryError`` here instead
    of exhausting the machine."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", _HUGE_SETS_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    cold, runs = json.loads(result.stdout)
    assert cold > 0
    for spec, policy, equal, total in runs:
        assert equal and total == cold, (spec, policy, total, cold)
