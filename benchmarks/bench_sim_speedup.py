"""Vectorized simulator speedup on the Table 6 validation sweeps.

The paper validates FindMisses/EstimateMisses against trace-driven
simulation over a sweep of associativities per program (Table 6's
direct/2-way/4-way columns).  After PR 5 the scalar simulator dominated
that validation loop; the stack-distance kernel attacks exactly
this cost: the trace is *independent of associativity*, so one sweep
builds it once and re-runs only the per-associativity kernel, while the
scalar walker must re-walk the whole program per cache.

Measured here, per Table 6 program: the full 3-associativity validation
sweep through the walker simulator (the scalar oracle) versus
``simulate_sweep`` on the set kernels (one trace build + line
decomposition shared across the sweep, one kernel per cache).
The floor is a ≥10× sweep speedup on every program.  Counts are asserted
bit-identical before any timing (benchmark hygiene: a fast wrong kernel
must fail loudly, not set a record).

Results land in ``benchmarks/results/BENCH_sim.{txt,json}`` and are
mirrored to repo-root ``BENCH_sim.json`` — the perf trajectory file.
"""

import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, once, timed_once

from repro import CacheConfig, prepare
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.report import assoc_label, format_table
from repro.sim import batch
from repro.sim.simulator import _simulate_scalar

SCALED = [
    ("TOMCATV", lambda: build_tomcatv_like(40, 2)),
    ("SWIM", lambda: build_swim_like(40, 2)),
    ("APPLU", lambda: build_applu_like(20, 2)),
]

CACHE_KB = 4
ASSOCS = (1, 2, 4)
MIN_SPEEDUP = 10.0
REPS = 3


def scalar_sweep(prepared, caches):
    return [
        _simulate_scalar(prepared.nprog, prepared.layout, c, prepared.walker)
        for c in caches
    ]


def batch_sweep(prepared, caches):
    return batch.simulate_sweep(
        prepared.nprog, prepared.layout, caches, walker=prepared.walker
    )


def best_of(fn, reps=REPS):
    best, result = float("inf"), None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def check_identical(prepared, scalar_reports, batch_reports, name):
    """Benchmark hygiene: never time a kernel that diverges."""
    for s, b in zip(scalar_reports, batch_reports):
        assert b.accesses == s.accesses, f"{name}: access tallies diverged"
        assert b.misses == s.misses, f"{name}: miss tallies diverged"


def compute_rows():
    rows, info_rows = [], []
    for name, builder in SCALED:
        prepared = prepare(builder())
        caches = [CacheConfig.kb(CACHE_KB, 32, a) for a in ASSOCS]
        # Warm both paths once, asserting bit-identity before timing.
        scalar_reports = scalar_sweep(prepared, caches)
        batch_reports = batch_sweep(prepared, caches)
        check_identical(prepared, scalar_reports, batch_reports, name)
        scalar_t, scalar_reports = best_of(lambda: scalar_sweep(prepared, caches))
        batch_t, batch_reports = best_of(lambda: batch_sweep(prepared, caches))
        accesses = scalar_reports[0].total_accesses
        rows.append(
            {
                "program": name,
                "accesses": accesses,
                "caches": len(caches),
                "scalar_seconds": round(scalar_t, 4),
                "batch_seconds": round(batch_t, 4),
                "speedup": round(scalar_t / batch_t, 1),
                "identical": True,
            }
        )
        for cache, s, b in zip(caches, scalar_reports, batch_reports):
            info_rows.append(
                (
                    name,
                    assoc_label(cache.assoc),
                    f"{s.miss_ratio_percent:.2f}",
                    s.elapsed_seconds,
                    b.elapsed_seconds,
                    round(s.elapsed_seconds / b.elapsed_seconds, 1),
                )
            )
    return rows, info_rows


def test_sim_speedup(benchmark):
    (rows, info_rows), seconds = timed_once(benchmark, compute_rows)
    table = format_table(
        ["Program", "Accesses", "Scalar t(s)", "Batch t(s)", "Speedup"],
        [
            (
                r["program"],
                3 * r["accesses"],
                r["scalar_seconds"],
                r["batch_seconds"],
                f"{r['speedup']}x",
            )
            for r in rows
        ],
        title=(
            f"Table 6 validation sweep ({CACHE_KB}KB/32B, assoc 1/2/4): "
            f"scalar simulator vs stack-distance kernel"
        ),
    )
    per_assoc = format_table(
        ["Program", "Cache", "Miss %", "Scalar t(s)", "Batch t(s)", "Speedup"],
        info_rows,
        title="Per-associativity runs (informational; sweep is the claim)",
    )
    emit("BENCH_sim", table + "\n\n" + per_assoc)
    emit_json(
        "BENCH_sim",
        {
            "wall_seconds": seconds,
            "description": (
                "Whole-sweep FindMisses-validation speedup: 3-assoc Table 6 "
                "sweep via the scalar walker vs one trace build + 3 "
                "stack-distance kernels, best of "
                f"{REPS}, bit-identical tallies asserted before timing"
            ),
            "cache_kb": CACHE_KB,
            "line_bytes": 32,
            "associativities": list(ASSOCS),
            "min_speedup_required": MIN_SPEEDUP,
            "programs": rows,
        },
    )
    for r in rows:
        assert r["speedup"] >= MIN_SPEEDUP, (
            f"{r['program']}: sweep only {r['speedup']}x faster "
            f"(floor {MIN_SPEEDUP}x)"
        )
