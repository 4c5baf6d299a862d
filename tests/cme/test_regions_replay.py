"""The regional decomposition runs once per (reuse table, layout, line size).

:meth:`RegionSolver.decompose` reads the line size but not the number of
sets or the associativity, so its ``(cold, decided, irregular)`` cells are
kept in the reuse table's shared facts: after one solve, a second geometry
with the same line size replays them and decomposes nothing, while a new
line size decomposes afresh.  Replaying must change speed only — each solve
equals a fresh ``prepare`` of that geometry alone in results and in every
``cme.regions.*`` counter, the cell-cap counter that decomposition
reports included.
"""

from __future__ import annotations

import pytest

from repro import CacheConfig, analyze, obs, prepare
from repro.cme import regions
from repro.cme.regions import RegionSolver
from repro.kernels import build_hydro, build_mgrid, build_mmt

PROGRAMS = {
    "hydro": lambda: build_hydro(12, 12),
    "mgrid": lambda: build_mgrid(8),
    "mmt": lambda: build_mmt(16, 8, 4),
}

#: A first geometry, a second with its line size, then a new line size.
SWEEP = [((1, 32, 1), True), ((2, 32, 2), False), ((1, 64, 1), True)]


def _solve(prepared, spec):
    obs.enable()
    obs.reset()
    try:
        report = analyze(prepared, CacheConfig.kb(*spec), method="regions")
        counters = {
            name: value
            for name, value in obs.snapshot()["counters"].items()
            if name.startswith("cme.regions.")
        }
    finally:
        obs.disable()
    return report.results, counters


@pytest.fixture
def decompositions(monkeypatch):
    """Count :meth:`RegionSolver.decompose` calls."""
    calls: list[int] = []
    decompose = RegionSolver.decompose

    def spy(self, ref):
        calls.append(ref.uid)
        return decompose(self, ref)

    monkeypatch.setattr(RegionSolver, "decompose", spy)
    return calls


def _check_sweep(name, decompositions):
    prepared = prepare(PROGRAMS[name]())
    for spec, decomposes in SWEEP:
        decompositions.clear()
        got = _solve(prepared, spec)
        expected = len(prepared.nprog.refs) if decomposes else 0
        assert len(decompositions) == expected, (name, spec)
        want = _solve(prepare(PROGRAMS[name]()), spec)
        assert got == want, (name, spec)
    return got


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_decompose_once_per_line_size(name, decompositions):
    _check_sweep(name, decompositions)


def test_replayed_cell_cap_is_counted(decompositions, monkeypatch):
    # Few enough cells that decomposition caps some references: the cap's
    # counter must read the same when the cells are replayed.
    monkeypatch.setattr(regions, "MAX_CELLS", 4)
    _, counters = _check_sweep("hydro", decompositions)
    assert counters["cme.regions.cell_cap"] > 0
