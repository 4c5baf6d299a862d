"""Regional solver scaling: exact miss counts at cost flat in loop bounds.

The tentpole claim of the regional CME solver (ISSUE 10): on programs
fully covered by its closed-form certificates, ``RegionMisses`` produces
*exactly* the ``FindMisses`` classifications while its solve time stays
flat as the loop bounds — and hence the ``FindMisses`` enumeration cost —
grow by orders of magnitude.  The paper solves its equations "by
polyhedral theory" for precisely this reason; the enumeration solvers
re-introduced the trace-length dependence that this solver removes.

Two checks, one table each:

* **Flatness sweep** — stride-1 stencil kernels (fully certifiable by
  construction) swept over 100× loop bounds: regions time must stay
  within ``FLATNESS`` of its smallest-size time while the FindMisses time
  grows at least ``MIN_FIND_GROWTH``×, with the reports exactly equal at
  every size.  A certified stencil solves in a few milliseconds, so the
  regions time is the minimum of ``REGION_ROUNDS`` solves per size, taken
  in rounds over the whole sweep: a burst of host load then slows every
  size alike instead of deciding the ratio.
* **Coverage on the Table 3 kernels** — Hydro/MMT/MGRID at the paper's
  1KB/32B direct-mapped geometry: the aggregate fraction of regions
  counted exactly (``cme.regions.exact_regions`` vs
  ``cme.regions.fallback_regions``) must reach ``MIN_EXACT_RATIO``, again
  with regions == find everywhere.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, timed_once

import time

from repro import CacheConfig, obs, prepare
from repro.cme import find_misses, region_misses, regional_coverage
from repro.ir import Program, ProgramBuilder
from repro.report import format_table

#: Loop bounds of the flatness sweep (100× smallest to largest).
SIZES = [500, 5000, 50000]

#: The paper's Table 3 geometry: 1KB, 32-byte lines, direct mapped.
CACHE = CacheConfig.kb(1, 32, 1)

#: Regions time at the largest size may exceed the smallest-size time by
#: at most this factor.
FLATNESS = 1.5

#: FindMisses time must grow at least this much over the same sweep.
MIN_FIND_GROWTH = 20.0

#: Aggregate exact-region fraction required on the Table 3 kernels.
MIN_EXACT_RATIO = 0.90

#: FindMisses timing repetitions (the minimum is reported).
REPEATS = 3

#: Regions timing rounds; each round solves every size of one stencil
#: once, and the minimum per size is reported.
REGION_ROUNDS = 30


def build_stencil3(n: int) -> Program:
    """1-D 3-point stencil chain — stride-1, fully certifiable."""
    pb = ProgramBuilder("STENCIL3")
    a = pb.array("A", (n + 2,))
    b = pb.array("B", (n + 2,))
    c = pb.array("C", (n + 2,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 2, n) as i:
            pb.assign(a[i], b[i - 1], b[i], b[i + 1], label="S1")
            pb.assign(c[i], c[i], a[i - 1], a[i], label="S2")
    return pb.build()


def build_stencil5(n: int) -> Program:
    """1-D 5-point smoothing pass over two arrays."""
    pb = ProgramBuilder("STENCIL5")
    u = pb.array("U", (n + 4,))
    v = pb.array("V", (n + 4,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 3, n) as i:
            pb.assign(
                v[i], u[i - 2], u[i - 1], u[i], u[i + 1], u[i + 2], label="P1"
            )
    return pb.build()


STENCILS = [("stencil3", build_stencil3), ("stencil5", build_stencil5)]


def _min_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _regions_min_of(cases, rounds: int = REGION_ROUNDS):
    """The minimum regions solve time of each ``(prep, reuse)`` case, and
    its report, over ``rounds`` rounds that each solve every case once."""
    best = [float("inf")] * len(cases)
    results = [None] * len(cases)
    for _ in range(rounds):
        for i, (prep, reuse) in enumerate(cases):
            started = time.perf_counter()
            results[i] = region_misses(prep.nprog, prep.layout, CACHE, reuse)
            best[i] = min(best[i], time.perf_counter() - started)
    return best, results


def compute_flatness_rows():
    rows = []
    summary = []
    for name, builder in STENCILS:
        cases = []
        for n in SIZES:
            prep = prepare(builder(n))
            cases.append((prep, prep.reuse_table(CACHE.line_bytes)))
        times_regions, regions_reports = _regions_min_of(cases)
        times_find = []
        for n, (prep, reuse), t_regions, regions in zip(
            SIZES, cases, times_regions, regions_reports
        ):
            coverage = regional_coverage(
                prep.nprog, prep.layout, CACHE, reuse
            )
            t_find, find = _min_of(
                lambda: find_misses(
                    prep.nprog, prep.layout, CACHE, reuse, walker=prep.walker
                )
            )
            equal = regions.results == find.results
            times_find.append(t_find)
            rows.append(
                (
                    name,
                    n,
                    find.total_accesses,
                    f"{coverage:.3f}",
                    f"{t_find * 1e3:.1f}",
                    f"{t_regions * 1e3:.1f}",
                    "yes" if equal else "NO",
                )
            )
            summary.append(
                {
                    "kernel": name,
                    "n": n,
                    "accesses": find.total_accesses,
                    "coverage": coverage,
                    "find_seconds": t_find,
                    "regions_seconds": t_regions,
                    "equal": equal,
                }
            )
        summary.append(
            {
                "kernel": name,
                "regions_flatness": max(times_regions) / min(times_regions),
                "find_growth": times_find[-1] / times_find[0],
            }
        )
    return rows, summary


def compute_table3_ratio():
    from repro.kernels import build_hydro, build_mgrid, build_mmt

    kernels = [
        ("hydro", build_hydro(40, 40)),
        ("mmt", build_mmt(24, 24, 12)),
        ("mgrid", build_mgrid(30)),
    ]
    rows = []
    agg_exact = agg_fallback = 0
    obs.enable()
    try:
        for name, program in kernels:
            prep = prepare(program)
            reuse = prep.reuse_table(CACHE.line_bytes)
            find = find_misses(
                prep.nprog, prep.layout, CACHE, reuse, walker=prep.walker
            )
            obs.reset()
            regions = region_misses(prep.nprog, prep.layout, CACHE, reuse)
            exact = obs.counter("cme.regions.exact_regions").value
            fallback = obs.counter("cme.regions.fallback_regions").value
            agg_exact += exact
            agg_fallback += fallback
            rows.append(
                (
                    name,
                    exact,
                    fallback,
                    f"{exact / (exact + fallback):.3f}",
                    "yes" if regions.results == find.results else "NO",
                )
            )
    finally:
        obs.disable()
    ratio = agg_exact / (agg_exact + agg_fallback)
    return rows, ratio


def test_symbolic_flatness(benchmark):
    (rows, summary), seconds = timed_once(benchmark, compute_flatness_rows)
    text = format_table(
        ["Kernel", "N", "Accesses", "Coverage", "Find (ms)", "Regions (ms)",
         "Equal"],
        rows,
        title=(
            "Regional solver scaling — stride-1 stencils, 1KB/32B direct "
            f"(regions flat within {FLATNESS}x over "
            f"{SIZES[-1] // SIZES[0]}x bounds)"
        ),
    )
    emit("symbolic_flatness", text)
    per_kernel = [s for s in summary if "regions_flatness" in s]
    measurements = [s for s in summary if "n" in s]
    doc = {
        "schema": "repro.bench.symbolic/v1",
        "cache": "1KB/32B direct",
        "sizes": SIZES,
        "measurements": measurements,
        "scaling": per_kernel,
        "wall_seconds": seconds,
    }
    emit_json("BENCH_symbolic", doc, config={"sizes": SIZES})
    assert all(m["equal"] for m in measurements)
    assert all(m["coverage"] == 1.0 for m in measurements)
    for s in per_kernel:
        assert s["regions_flatness"] <= FLATNESS, (
            f"{s['kernel']}: regions time varied {s['regions_flatness']:.2f}x "
            f"over the sweep (limit {FLATNESS}x)"
        )
        assert s["find_growth"] >= MIN_FIND_GROWTH, (
            f"{s['kernel']}: FindMisses grew only {s['find_growth']:.1f}x — "
            "the sweep no longer stresses enumeration"
        )


def test_symbolic_table3_coverage(benchmark):
    (rows, ratio), _ = timed_once(benchmark, compute_table3_ratio)
    text = format_table(
        ["Kernel", "Exact regions", "Fallback regions", "Ratio", "Equal"],
        rows,
        title=(
            "Closed-form coverage — Table 3 kernels, 1KB/32B direct "
            f"(aggregate exact fraction {ratio:.3f})"
        ),
    )
    emit("symbolic_coverage", text)
    assert all(row[4] == "yes" for row in rows)
    assert ratio >= MIN_EXACT_RATIO, (
        f"aggregate exact-region ratio {ratio:.3f} below {MIN_EXACT_RATIO}"
    )
