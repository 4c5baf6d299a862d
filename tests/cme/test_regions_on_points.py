"""Window carving on a cell's points equals symbolic carving.

Within the trace budget (:attr:`repro.sim.batch.TracePlan.materialisable`)
the regional solver enumerates a direct-mapped decided cell once and
answers every carve-time test, tally and representative probe of its
pieces on the rows of those points each piece keeps; beyond it, the same pieces
are counted and descended symbolically.  The choice must change speed
only: over the 210-case differential pool and the Fig. 8 kernels at
1KB/32B direct, both paths give identical results and identical
``cme.regions.*`` counters, ``probe_mismatch`` verdicts of the
representative budget included.  The symbolic path is forced by shrinking
the trace budget, as a trace too large to materialise would.
"""

from __future__ import annotations

import pytest

from repro import obs, prepare
from repro.cme import region_misses
from repro.cme import regions
from repro.cme.regions import RegionSolver
from repro.kernels import build_hydro, build_mgrid, build_mmt
from repro.layout import CacheConfig
from repro.polyhedra import BoundedSpace
from tests.harness.differential import force_walker_fallback
from tests.cme.test_regions_differential import all_cases

#: The Fig. 8 kernels at the sizes perfbench's kernels-exact solves.
KERNELS = {
    "hydro": lambda: build_hydro(32, 32),
    "mgrid": lambda: build_mgrid(10),
    "mmt": lambda: build_mmt(32, 16, 8),
}

TABLE3 = CacheConfig.kb(1, 32, 1)


def _prepared(program):
    prepared = prepare(program)
    return prepared.nprog, prepared.layout


def _solve(nprog, layout, cache):
    """Results and ``cme.regions.*`` counters of a fresh regional solve."""
    obs.enable()
    obs.reset()
    try:
        report = region_misses(nprog, layout, cache)
        counters = {
            name: value
            for name, value in obs.snapshot()["counters"].items()
            if name.startswith("cme.regions.")
        }
    finally:
        obs.disable()
    return report.results, counters


@pytest.fixture
def carvings(monkeypatch):
    """Record, per window carving, whether it ran on the cell's points."""
    seen: list[bool] = []
    carve = RegionSolver._classify_cell_window

    def spy(self, *args):
        seen.append(args[-1] is not None)
        return carve(self, *args)

    monkeypatch.setattr(RegionSolver, "_classify_cell_window", spy)
    return seen


def _both_paths(nprog, layout, cache, carvings, monkeypatch):
    carvings.clear()
    on_points = _solve(nprog, layout, cache)
    carved_on_points = list(carvings)
    with monkeypatch.context() as m:
        force_walker_fallback(m)
        carvings.clear()
        symbolic = _solve(nprog, layout, cache)
    assert not any(carvings), "the shrunk budget still enumerated a cell"
    assert len(carvings) == len(carved_on_points)
    return on_points, symbolic, carved_on_points


def test_pool_carving_on_points_equals_symbolic(carvings, monkeypatch):
    failures = []
    carved = 0
    for case in all_cases():
        nprog, layout = case.prepared()
        on_points, symbolic, seen = _both_paths(
            nprog, layout, case.cache, carvings, monkeypatch
        )
        carved += sum(seen)
        if on_points != symbolic:
            failures.append(case.name)
    assert not failures, failures[:20]
    assert carved, "no case carved a window on points"


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_fig8_carving_on_points_equals_symbolic(name, carvings, monkeypatch):
    nprog, layout = _prepared(KERNELS[name]())
    on_points, symbolic, seen = _both_paths(
        nprog, layout, TABLE3, carvings, monkeypatch
    )
    assert any(seen), f"{name}: no window carved on points"
    assert on_points[0] == symbolic[0]
    assert on_points[1] == symbolic[1]


@pytest.mark.parametrize(
    "name, budget", [("hydro", 4), ("mgrid", 10), ("mmt", 6)]
)
def test_exhausted_budget_gives_the_same_verdicts(
    name, budget, carvings, monkeypatch
):
    # Past its budget a representative search answers None, which sends the
    # cell to probe_mismatch.  The lexmin on points must say None for
    # exactly the pieces the symbolic descent gives up on; these budgets
    # are small enough that some of each kernel's pieces exhaust them.
    descend = BoundedSpace.representative
    lexmin = regions.lexmin_array
    monkeypatch.setattr(
        BoundedSpace,
        "representative",
        lambda self, budget=budget: descend(self, budget),
    )
    monkeypatch.setattr(
        regions,
        "lexmin_array",
        lambda space, points, rows, budget=budget: lexmin(
            space, points, rows, budget
        ),
    )
    nprog, layout = _prepared(KERNELS[name]())
    on_points, symbolic, seen = _both_paths(
        nprog, layout, TABLE3, carvings, monkeypatch
    )
    assert any(seen)
    assert on_points[1]["cme.regions.fallback.probe_mismatch"] > 0
    assert on_points == symbolic
