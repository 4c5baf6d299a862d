"""The regional solver's cold conditions as arrays, and the interval tests
that rule cells out before they are built.

:meth:`~repro.cme.regions.RegionSolver._condition_rows` derives every reuse
vector's cold condition in one array pass over the reuse table, and
:meth:`~repro.cme.regions.RegionSolver._condition` compiles one vector's
conjuncts only when decomposition needs them.  Both must equal the two
oracles of :mod:`tests.cme.decompose_oracle`: the symbolic
:func:`~tests.cme.decompose_oracle.cold_condition` and the vector-at-a-time
row derivation :func:`~tests.cme.decompose_oracle.row_cold_condition`.

:meth:`~repro.cme.regions.RegionSolver._vacuous` rules (cell, vector)
pairs out by interval arithmetic over the cell's box and by disjoint
residue intervals.  The cells must be the same with those tests and
without them, and every pair they rule out must hold no point.

Inputs: the 210-case differential pool (each case at its own line size),
the Table 6 programs at 32 B lines, and the Fig. 8 kernels at the sizes
``kernels-exact`` and ``serve-mixed`` solve, at 32 B and 64 B lines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import prepare
from repro.cme.regions import RegionSolver
from repro.ir import ProgramBuilder
from repro.layout import CacheConfig
from repro.polyhedra.constraints import EQ, GE
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.reuse import build_reuse_table
from tests.cme import decompose_oracle
from tests.cme.test_decompose_rows import PROGRAMS, _describe
from tests.cme.test_regions_differential import all_cases

TABLE6 = {
    "TOMCATV": lambda: build_tomcatv_like(40, 2),
    "SWIM": lambda: build_swim_like(40, 2),
    "APPLU": lambda: build_applu_like(20, 2),
}


def build_diagonal(n: int):
    """Equality guards, which no generator family of the pool makes: their
    translated conjuncts stay equalities, two-sided when negated."""
    pb = ProgramBuilder("DIAGONAL")
    a = pb.array("A", (n + 2, n + 2))
    b = pb.array("B", (n + 2,))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, n) as j:
            with pb.do("I", 1, n) as i:
                with pb.if_(i.eq(j)):
                    pb.assign(a[i, j], a[i, j - 1], b[i])
                with pb.if_(i.eq(3)):
                    pb.read(a[i + 1, j], b[j])
                pb.read(a[j, i], b[i - 1])
    return pb.build()


PROGRAMS = {**PROGRAMS, "diagonal": lambda: build_diagonal(12)}

KERNELS = [(name, line) for name in sorted(PROGRAMS) for line in (32, 64)]


def _solver(nprog, layout, cache) -> RegionSolver:
    return RegionSolver(
        nprog, layout, cache, build_reuse_table(nprog, cache.line_bytes)
    )


def _prepared(build, line):
    prepared = prepare(build())
    return prepared.nprog, prepared.layout, CacheConfig.kb(4, line, 1)


def _pool():
    """The differential pool, then the equality-guarded program."""
    for case in all_cases():
        nprog, layout = case.prepared()
        yield case.name, nprog, layout, case.cache
    for line in (32, 64):
        yield ("diagonal", *_prepared(PROGRAMS["diagonal"], line))


def _symbolic_rows(solver, kept):
    """The oracle's ``(constraint, negations)`` pairs as ``(row, const,
    kind)`` triples."""
    def triple(c):
        row, const = solver._row(c.expr)
        return row, const, c.kind

    return [(triple(c), [triple(n) for n in negs]) for c, negs in kept]


def _condition_diffs(solver) -> list[str]:
    """Where the array conditions differ from either oracle."""
    table = solver._condition_table()
    line_bytes = solver.cache.line_bytes
    diffs = []
    for ref in solver.nprog.refs:
        spans, residues = {}, {}
        never = table.never[solver.reuse.rows(ref)].tolist()
        row0 = solver.reuse.rows(ref).start
        for t, rv in enumerate(solver.reuse.vectors_for(ref)):
            where = f"{ref.name()} vector {t}"
            kind, cons = decompose_oracle.row_cold_condition(
                solver, ref, rv, spans, residues
            )
            s_kind, s_kept, s_res = decompose_oracle.cold_condition(
                solver, ref, rv
            )
            if kind != s_kind:
                diffs.append(f"{where}: oracles disagree ({kind}, {s_kind})")
            if (kind == "never") != never[t] or kind == "irregular":
                diffs.append(f"{where}: {kind} but never={never[t]}")
                continue
            if never[t]:
                continue
            got = solver._condition(ref, t)
            if got != cons:
                diffs.append(f"{where}: compiled conjuncts differ")
            res = tuple(table.residues[row0 + t].tolist())
            want_res = (0, line_bytes - 1) if s_res is None else s_res
            if res != want_res:
                diffs.append(f"{where}: residue {res} vs {want_res}")
            affine = [
                ((c.row, c.const, c.kind), [n[:3] for n in negs])
                for c, negs in got[: len(s_kept)]
            ]
            if affine != _symbolic_rows(solver, s_kept):
                diffs.append(f"{where}: affine conjuncts differ")
            if len(got) != len(s_kept) + (s_res is not None):
                diffs.append(f"{where}: {len(got)} conjuncts")
    return diffs


def test_conditions_equal_the_oracles_on_the_pool():
    failures = []
    vectors = 0
    for name, nprog, layout, cache in _pool():
        solver = _solver(nprog, layout, cache)
        failures += [f"{name} {d}" for d in _condition_diffs(solver)]
        vectors += len(solver.reuse.producers)
    assert not failures, "\n".join(failures[:20])
    assert vectors > 5000


@pytest.mark.parametrize("name", sorted(TABLE6))
def test_conditions_equal_the_oracles_on_table6(name):
    assert not _condition_diffs(_solver(*_prepared(TABLE6[name], 32)))


@pytest.mark.parametrize("name,line", KERNELS)
def test_conditions_equal_the_oracles_on_kernels(name, line):
    assert not _condition_diffs(_solver(*_prepared(PROGRAMS[name], line)))


def test_condition_table_holds_both_verdicts_and_both_kinds():
    """The comparisons here are not vacuous: the inputs have ``never`` and
    regular vectors, kept equalities and inequalities, and vectors with and
    without a residue conjunct."""
    seen = set()
    for _, nprog, layout, cache in list(_pool())[-72:]:
        table = _solver(nprog, layout, cache)._condition_table()
        live = ~table.never
        seen |= {"never"} if table.never.any() else set()
        seen |= {"regular"} if live.any() else set()
        kept = np.arange(table.eq.shape[1]) < table.nkept[:, None]
        seen |= {EQ} if (table.eq & kept).any() else set()
        seen |= {GE} if (~table.eq & kept).any() else set()
        whole = (table.residues == [0, cache.line_bytes - 1]).all(axis=1)
        seen |= {"line"} if (whole & live).any() else set()
        seen |= {"residue"} if (~whole & live).any() else set()
    assert {"never", "regular", EQ, GE, "line", "residue"} <= seen


def _without_pretests(monkeypatch):
    monkeypatch.setattr(RegionSolver, "_vacuous", lambda self, ref, cell, t: False)


def _cells(nprog, layout, cache) -> list:
    solver = _solver(nprog, layout, cache)
    return [_describe(solver.decompose(ref)) for ref in nprog.refs]


def _cells_both_ways(monkeypatch, nprog, layout, cache):
    with_tests = _cells(nprog, layout, cache)
    with monkeypatch.context() as m:
        _without_pretests(m)
        without = _cells(nprog, layout, cache)
    return with_tests, without


def test_pretests_change_no_cell_on_the_pool(monkeypatch):
    """The pool, and the equality-guarded program."""
    failures = []
    for name, nprog, layout, cache in _pool():
        got, want = _cells_both_ways(monkeypatch, nprog, layout, cache)
        if got != want:
            failures.append(name)
    assert not failures, failures[:20]


@pytest.mark.parametrize("name", sorted(TABLE6))
def test_pretests_change_no_cell_on_table6(monkeypatch, name):
    got, want = _cells_both_ways(monkeypatch, *_prepared(TABLE6[name], 32))
    assert got == want


@pytest.mark.parametrize("name,line", KERNELS)
def test_pretests_change_no_cell_on_kernels(monkeypatch, name, line):
    got, want = _cells_both_ways(monkeypatch, *_prepared(PROGRAMS[name], line))
    assert got == want


def test_pairs_ruled_out_hold_no_point(monkeypatch):
    """Soundness: every (cell, vector) pair an interval test rules out in
    the decompositions of the pool and of the equality-guarded program has
    an exact count of 0 for the cell and the vector's whole cold
    condition."""
    vacuous = RegionSolver._vacuous
    popped = []

    def recording(self, ref, cell, t):
        ruled = vacuous(self, ref, cell, t)
        popped.append((self, ref, cell, t, ruled))
        return ruled

    monkeypatch.setattr(RegionSolver, "_vacuous", recording)
    unsound = []
    ruled_out = 0
    for name, nprog, layout, cache in _pool():
        solver = _solver(nprog, layout, cache)
        popped.clear()
        for ref in nprog.refs:
            solver.decompose(ref)
        for solver, ref, cell, t, ruled in popped:
            rows = solver.reuse.rows(ref)
            never = solver._condition_table().never[rows][t:]
            for j in np.flatnonzero(ruled & ~never).tolist():
                ruled_out += 1
                piece = cell
                for c, _ in solver._condition(ref, t + j):
                    piece = piece.conjoin(c)
                if piece.count():
                    unsound.append(f"{name} {ref.name()} vector {t + j}")
    assert not unsound, unsound[:20]
    assert ruled_out > 1000
