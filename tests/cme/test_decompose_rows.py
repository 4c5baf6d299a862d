"""The regional decomposition on integer rows equals it on ``Affine``s.

:meth:`~repro.cme.regions.RegionSolver.decompose` grows every cell from
conjuncts compiled once per (reference, line size) into integer rows.
:mod:`tests.cme.decompose_oracle` grows them from symbolic constraints, as
the solver did before.  Over the 210-case differential pool (each case at
its own line size), the Fig. 8 kernels at the sizes ``kernels-exact``
solves and the serve-scale kernels of ``serve-mixed``, both at 32 B and
64 B lines, the two must produce the same cells in the same order: same
kind, same deciding vector or fallback reason, same signature, count,
rows and ``repr``.
"""

from __future__ import annotations

import pytest

from repro import prepare
from repro.cme.regions import RegionSolver
from repro.kernels import build_hydro, build_mgrid, build_mmt
from repro.layout import CacheConfig
from repro.reuse import build_reuse_table
from repro.serve.engine import load_kernel
from tests.cme import decompose_oracle
from tests.cme.test_regions_differential import all_cases


def _describe(cells):
    """Each cell of a ``(cold, decided, irregular)`` triple as comparable
    data, in order."""
    cold, decided, irregular = cells
    out = [("cold", None, c) for c in cold]
    out += [("decided", t, c) for c, t in decided]
    out += [("irregular", why, c) for c, why in irregular]
    return [
        (kind, tag, c.signature(), c.count(), c.rows(), repr(c))
        for kind, tag, c in out
    ]


def _diff(nprog, layout, cache) -> list[str]:
    reuse = build_reuse_table(nprog, cache.line_bytes)
    solver = RegionSolver(nprog, layout, cache, reuse)
    failures = []
    for ref in nprog.refs:
        got = _describe(solver.decompose(ref))
        want = _describe(decompose_oracle.decompose(solver, ref))
        if got != want:
            failures.append(f"{ref.name()}: {len(got)} vs {len(want)} cells")
    return failures


def test_rows_equal_affine_cells_on_the_pool():
    failures = []
    cells = 0
    for case in all_cases():
        nprog, layout = case.prepared()
        failures += [f"{case.name} {f}" for f in _diff(nprog, layout, case.cache)]
        cells += len(nprog.refs)
    assert not failures, "\n".join(failures[:20])
    assert cells > 500


PROGRAMS = {
    "hydro-fig8": lambda: build_hydro(32, 32),
    "mgrid-fig8": lambda: build_mgrid(10),
    "mmt-fig8": lambda: build_mmt(32, 16, 8),
    "hydro-serve": lambda: load_kernel("hydro", 16),
    "mgrid-serve": lambda: load_kernel("mgrid", 8),
    "mmt-serve": lambda: load_kernel("mmt", 16),
}


@pytest.mark.parametrize("line", [32, 64])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_equal_affine_cells_on_kernels(name, line):
    prepared = prepare(PROGRAMS[name]())
    cache = CacheConfig.kb(1, line, 1)
    assert not _diff(prepared.nprog, prepared.layout, cache)


def test_pool_exercises_every_condition_the_generator_makes():
    """The pool has cold and decided cells, and vectors whose conditions
    are ``never`` as well as ``regular``, so the comparison above is not
    vacuous.  (The reuse generator pairs references of one uniformly
    generated set only, so no generated vector is ``irregular``.)"""
    kinds = set()
    for case in all_cases()[:70]:
        nprog, layout = case.prepared()
        reuse = build_reuse_table(nprog, case.cache.line_bytes)
        solver = RegionSolver(nprog, layout, case.cache, reuse)
        for ref in nprog.refs:
            for rv in reuse.vectors_for(ref):
                kinds.add(decompose_oracle.cold_condition(solver, ref, rv)[0])
            cold, decided, irregular = solver.decompose(ref)
            kinds |= {"cold"} if cold else set()
            kinds |= {"decided"} if decided else set()
            kinds |= {why for _, why in irregular}
    assert {"never", "regular", "cold", "decided"} <= kinds
