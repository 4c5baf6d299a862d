"""Classifier speedup: vectorized NumPy batch classification vs pure Python.

The paper's pitch is analytical speed; the batch classifier evaluates the
cold/replacement equations over whole point batches and answers
replacement windows from a trace index.  This benchmark times exhaustive
``FindMisses`` on the Table 3 kernels against the scalar oracle (the same
per-reference unit on the pure-Python ``PointClassifier``), asserts the
per-reference results are **bit-identical**, and requires the vectorized
path to be at least ``MIN_SPEEDUP``× faster on every kernel.

The machine-readable summary lands in ``BENCH_backend.json`` at the repo
root (via the ``emit_json`` mirror) — the perf trajectory later PRs diff
against.
"""

import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, once, timed_once

from repro import CacheConfig, analyze, prepare
from repro.cme import solver_for
from repro.report import format_table

from repro.kernels import build_hydro, build_mgrid, build_mmt
from tests.harness.differential import scalar_results

#: Table 3 kernels at scaled sizes (same spirit as bench_table3_findmisses;
#: MGRID slightly larger so the scalar baseline dominates fixed overheads).
KERNELS = [
    ("Hydro", lambda: build_hydro(32, 32)),
    ("MGRID", lambda: build_mgrid(16)),
    ("MMT", lambda: build_mmt(24, 24, 12)),
]

CACHE = CacheConfig.kb(4, 32, 2)

#: Acceptance floor for the FindMisses speedup on every Table 3 kernel.
MIN_SPEEDUP = 10.0


def _timed_scalar_find(prepared):
    started = time.perf_counter()
    results = scalar_results(
        solver_for("find"),
        prepared.nprog,
        prepared.layout,
        CACHE,
        reuse=prepared.reuse_table(CACHE.line_bytes),
        walker=prepared.walker,
    )
    return results, time.perf_counter() - started


def compute_rows():
    # Warm NumPy's import machinery so the first timed run is not charged.
    analyze(prepare(build_mgrid(6)), CACHE, method="find")
    rows = []
    for name, builder in KERNELS:
        prepared = prepare(builder())
        scalar_results_, scalar_t = _timed_scalar_find(prepared)
        started = time.perf_counter()
        numpy_report = analyze(prepared, CACHE, method="find")
        numpy_t = time.perf_counter() - started
        assert numpy_report.results == scalar_results_, (
            f"{name}: batch classifier diverged from the scalar oracle"
        )
        speedup = scalar_t / numpy_t if numpy_t > 0 else float("inf")
        rows.append(
            {
                "kernel": name,
                "points": numpy_report.analysed_points,
                "miss_ratio_percent": numpy_report.miss_ratio_percent,
                "scalar_seconds": round(scalar_t, 4),
                "numpy_seconds": round(numpy_t, 4),
                "speedup": round(speedup, 2),
                "identical": True,
            }
        )
    return rows


def test_backend_speedup(benchmark):
    rows, seconds = timed_once(benchmark, compute_rows)
    emit(
        "backend_speedup",
        format_table(
            ["Kernel", "Points", "Miss %", "Scalar t(s)", "NumPy t(s)", "Speedup"],
            [
                (
                    r["kernel"],
                    r["points"],
                    f"{r['miss_ratio_percent']:.2f}",
                    f"{r['scalar_seconds']:.2f}",
                    f"{r['numpy_seconds']:.3f}",
                    f"{r['speedup']:.1f}x",
                )
                for r in rows
            ],
            title=(
                f"FindMisses speedup over the scalar oracle — Table 3 "
                f"kernels on {CACHE.describe()} (bit-identical results)"
            ),
        ),
    )
    emit_json(
        "backend",
        {
            "wall_seconds": seconds,
            "bench": "backend_speedup",
            "cache": CACHE.describe(),
            "method": "find",
            "min_speedup_required": MIN_SPEEDUP,
            "kernels": rows,
        },
    )
    for r in rows:
        assert r["speedup"] >= MIN_SPEEDUP, (
            f"{r['kernel']}: batch classifier only {r['speedup']:.1f}x faster "
            f"(required >= {MIN_SPEEDUP:.0f}x)"
        )
