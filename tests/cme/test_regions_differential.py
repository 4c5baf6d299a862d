"""Differential sweep for the regional solver (ISSUE 10).

``RegionMisses`` is an execution strategy, not an approximation: over the
full 210-case seeded pool of the differential harness — every program
family (regular and irregular) crossed with every cache geometry — its
per-reference classifications must equal ``FindMisses`` **exactly**.  The
solver guarantees this by construction (uncertified regions fall back to
the same per-point classifier), so any diff here is a soundness bug in the
regional decomposition or its closed-form counting.

The sweep also pins down the operational contracts around the solver:

* the fallback path really runs (and is observable) on irregular guarded
  programs,
* memoized solves reproduce the plain report,
* the static coverage probe brackets what the solver then actually does.
"""

from __future__ import annotations

from repro import obs, prepare
from repro.cme import find_misses, region_misses, regional_coverage
from repro.ir import ProgramBuilder
from repro.polyhedra import Affine
from repro.cme.regions import FALLBACK_REASONS
from repro.layout import CacheConfig
from repro.reuse import build_reuse_table
from tests.harness.differential import FAMILIES, generate_cases

#: 30 cases per family — the same 210-case pool as the classifier and memo
#: differential sweeps.
CASE_COUNT = 30 * len(FAMILIES)

_cases = None


def all_cases():
    global _cases
    if _cases is None:
        _cases = generate_cases(CASE_COUNT)
    return _cases


def test_regions_equals_find_on_every_case():
    failures = []
    for case in all_cases():
        nprog, layout = case.prepared()
        find = find_misses(nprog, layout, case.cache)
        regions = region_misses(nprog, layout, case.cache)
        if regions.results != find.results:
            diffs = [
                f"{find.results[uid].ref_name}: "
                f"find={find.results[uid]} regions={regions.results[uid]}"
                for uid in find.results
                if find.results[uid] != regions.results[uid]
            ]
            failures.append(f"{case.name}: {'; '.join(diffs[:3])}")
    assert not failures, "\n".join(failures[:20])


def _regions_counters() -> dict:
    return {
        name: value
        for name, value in obs.snapshot()["counters"].items()
        if name.startswith("cme.regions.")
    }


def _solve_counted(nprog, layout, cache, reuse=None):
    obs.reset()
    report = region_misses(nprog, layout, cache, reuse=reuse)
    return report.results, _regions_counters()


def test_reuse_table_shared_across_geometries_matches_fresh_solvers():
    # The decomposition facts cached on a reuse table (cold conditions,
    # certificates, static windows) depend on the line size alone: a
    # second geometry of the same line size must solve exactly as if
    # nothing had been cached.
    obs.enable()
    try:
        for case in all_cases():
            nprog, layout = case.prepared()
            line = case.cache.line_bytes
            other = CacheConfig(
                2 * case.cache.size_bytes, line, 2 if case.cache.assoc == 1 else 1
            )
            shared = build_reuse_table(nprog, line)
            for cache in (case.cache, other):
                got = _solve_counted(nprog, layout, cache, shared)
                want = _solve_counted(nprog, layout, cache)
                assert got == want, f"{case.name} at {cache}"
    finally:
        obs.disable()


def test_fallback_reasons_sum_to_fallback_points():
    obs.enable()
    try:
        reasons_seen = set()
        for case in all_cases():
            nprog, layout = case.prepared()
            _, counters = _solve_counted(nprog, layout, case.cache)
            by_reason = {
                name.rsplit(".", 1)[1]: value
                for name, value in counters.items()
                if name.startswith("cme.regions.fallback.")
            }
            assert set(by_reason) == set(FALLBACK_REASONS)
            assert sum(by_reason.values()) == counters["cme.regions.fallback_points"]
            reasons_seen |= {r for r, n in by_reason.items() if n}
    finally:
        obs.disable()
    assert {"uncertified", "window_budget"} <= reasons_seen, reasons_seen


def test_report_method_name():
    case = all_cases()[0]
    nprog, layout = case.prepared()
    assert region_misses(nprog, layout, case.cache).method == "RegionMisses"


def test_fallback_path_runs_on_irregular_guarded_family():
    # Guarded families produce non-convex interference: some decided cells
    # carry no closed-form certificate, so the solver must enumerate them
    # through the per-point classifier — and account for it.
    fallback_cases = 0
    obs.enable()
    for case in all_cases():
        if not case.name.startswith(("guarded", "guardednests")):
            continue
        nprog, layout = case.prepared()
        obs.reset()
        report = region_misses(nprog, layout, case.cache)
        fb = obs.counter("cme.regions.fallback_points").value
        if fb > 0:
            fallback_cases += 1
            assert obs.counter("cme.regions.fallback_regions").value > 0
            assert obs.counter("cme.regions.fallback_cells").value > 0
        assert report.results == find_misses(nprog, layout, case.cache).results
    obs.disable()
    assert fallback_cases > 0, (
        "no guarded case exercised the enumeration fallback — the "
        "irregular-region path is untested"
    )


def test_constant_false_guard_empties_the_producer():
    """A producer under a constant-false guard never supplies reuse: its
    RIS keeps the false conjunct, so the cold conditions find its vectors
    inapplicable and no cell is probed against them or enumerated."""
    pb = ProgramBuilder("FALSEGUARD")
    a = pb.array("A", (40,))
    b = pb.array("B", (40,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 2, 30) as i:
            with pb.if_(Affine.const(0).ge(1)):
                pb.assign(a[i], b[i])
            pb.assign(b[i], a[i - 1], a[i])
    prep = prepare(pb.build())
    cache = CacheConfig.kb(1, 32, 1)
    obs.enable()
    try:
        results, counters = _solve_counted(prep.nprog, prep.layout, cache)
    finally:
        obs.disable()
    assert results == find_misses(prep.nprog, prep.layout, cache).results
    assert counters["cme.regions.fallback_points"] == 0
    assert counters["cme.regions.exact_regions"] > 0


def test_exact_regions_counted_on_regular_families():
    # Regular scan cases must solve at least some regions in closed form.
    obs.enable()
    exact_total = 0
    for case in all_cases()[:14]:  # two rounds of the family cycle
        nprog, layout = case.prepared()
        obs.reset()
        region_misses(nprog, layout, case.cache)
        exact_total += obs.counter("cme.regions.exact_regions").value
    obs.disable()
    assert exact_total > 0


def test_memo_reproduces_serial():
    from repro.memo import Memoizer

    for case in all_cases()[: len(FAMILIES)]:
        nprog, layout = case.prepared()
        serial = region_misses(nprog, layout, case.cache)
        assert serial.method == "RegionMisses"
        memo = Memoizer()
        first = region_misses(nprog, layout, case.cache, memo=memo)
        replay = region_misses(nprog, layout, case.cache, memo=memo)
        assert first.results == serial.results
        assert replay.results == serial.results
        assert memo.hits > 0  # the second run replayed stored solutions


def test_coverage_probe_is_a_fraction():
    for case in all_cases()[: len(FAMILIES)]:
        nprog, layout = case.prepared()
        reuse = build_reuse_table(nprog, case.cache.line_bytes)
        cov = regional_coverage(nprog, layout, case.cache, reuse)
        assert 0.0 <= cov <= 1.0
