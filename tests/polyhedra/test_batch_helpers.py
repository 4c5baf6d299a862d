"""Parity of the vectorized helpers with the scalar Space API.

:func:`~repro.polyhedra.batch.enumerate_points_array` must reproduce
:meth:`BoundedSpace.enumerate_points` exactly — same points, same
lexicographic order (the trace index depends on the order, not just the
set), guards included.  A membership mask built from
:func:`~repro.polyhedra.batch.satisfied_array` must agree with
:meth:`BoundedSpace.contains` row by row (so its sum is
:meth:`BoundedSpace.count`), and :func:`~repro.polyhedra.batch.lexmin_array`
must return what :meth:`BoundedSpace.representative` returns at every
budget, ``None`` verdicts included: the regional solver's window carving
counts and probes its pieces through them.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import ProgramBuilder
from repro.normalize import normalize
from repro.polyhedra import Affine, BoundedSpace, Constraint, ResidueConstraint
from repro.polyhedra.batch import (
    enumerate_points_array,
    lexmin_array,
    satisfied_array,
)
from repro.polyhedra.space import REPRESENTATIVE_BUDGET


def eval_affine(
    expr: Affine, points: np.ndarray, dim_index: dict[str, int]
) -> np.ndarray:
    """Evaluate an affine expression at every row of ``points``."""
    row = np.zeros(points.shape[1], dtype=np.int64)
    for name, coeff in expr.coeffs.items():
        row[dim_index[name]] = coeff
    return points @ row + expr.constant


def _spaces():
    """RIS spaces covering rectangular, triangular, guarded and 1-point."""
    pb = ProgramBuilder("BATCH")
    a = pb.array("A", (20, 20))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, 6) as j:  # rectangular
            with pb.do("I", 1, 5) as i:
                pb.assign(a[i, j])
        with pb.do("J", 1, 7) as j:  # triangular (I >= J)
            with pb.do("I", j, 7) as i:
                pb.assign(a[i, j])
        with pb.do("J", 1, 6) as j:  # guarded (EQ and GEQ mix)
            with pb.do("I", 1, 6) as i:
                with pb.if_(i.le(j)):
                    pb.assign(a[i, j])
        with pb.do("J", 4, 4) as j:  # degenerate single point
            with pb.do("I", 2, 2) as i:
                pb.assign(a[i, j])
    nprog = normalize(pb.build().main)
    return [(leaf, nprog.ris(leaf)) for leaf in nprog.leaves]


@pytest.mark.parametrize(
    "index", range(4), ids=["rect", "tri", "guarded", "point"]
)
def test_enumerate_points_array_matches_scalar_order(index):
    _, space = _spaces()[index]
    batch = enumerate_points_array(space)
    scalar = list(space.enumerate_points())
    assert batch.shape == (len(scalar), space.ndim)
    assert [tuple(row) for row in batch.tolist()] == scalar


# -- membership mask and budgeted lexmin ------------------------------------------

DIMS = ("v0", "v1", "v2")


@st.composite
def _spaces_with_conjuncts(draw):
    """A random 1–3-dim space: rectangular or triangular bounds, with
    affine guards and residue conjuncts."""
    ndim = draw(st.integers(1, 3))
    dims = DIMS[:ndim]
    small = st.integers(-2, 2)
    bounds = []
    for k in range(ndim):
        lo = draw(st.integers(-3, 3))
        hi = Affine.const(lo + draw(st.integers(0, 6)))
        if k and draw(st.booleans()):  # triangular: couple to an outer dim
            hi = hi + Affine.var(dims[draw(st.integers(0, k - 1))])
        bounds.append((Affine.const(lo), hi))
    constraints = []
    for _ in range(draw(st.integers(0, 2))):
        expr = Affine({v: draw(small) for v in dims}, draw(st.integers(-5, 5)))
        eq = draw(st.integers(0, 3)) == 0
        constraints.append(
            Constraint.equality(expr) if eq else Constraint.inequality(expr)
        )
    residues = []
    for _ in range(draw(st.integers(0, 2))):
        modulus = draw(st.sampled_from([2, 3, 4, 8]))
        lo_r = draw(st.integers(0, modulus - 1))
        hi_r = draw(st.integers(lo_r, modulus - 1))
        expr = Affine(
            {v: draw(st.integers(0, modulus - 1)) for v in dims},
            draw(st.integers(0, modulus - 1)),
        )
        residues.append(ResidueConstraint(expr, modulus, lo_r, hi_r))
    return BoundedSpace(dims, bounds, constraints, residues)


def contains_array(space: BoundedSpace, points: np.ndarray) -> np.ndarray:
    """:meth:`BoundedSpace.contains` of every row of an ``(N, n)`` array,
    as a boolean mask: the bounds, then every compiled affine and residue
    conjunct through :func:`satisfied_array`."""
    mask = np.full(len(points), not space.is_trivially_empty())
    dim_index = {name: k for k, name in enumerate(space.dims)}
    for d, (lo, hi) in enumerate(space.bounds):
        value = points[:, d]
        mask &= eval_affine(lo, points, dim_index) <= value
        mask &= value <= eval_affine(hi, points, dim_index)
    for d in range(space.ndim):
        for conjunct in space.constraints_at(d) + space.residues_at(d):
            mask &= satisfied_array(conjunct, points)
    return mask


def _box_points(space: BoundedSpace) -> np.ndarray:
    """Every point of the space's bounding box, in lexicographic order."""
    box = space.var_ranges()
    axes = [range(lo, hi + 1) for lo, hi in (box[v] for v in space.dims)]
    rows = list(itertools.product(*axes))
    return np.array(rows, dtype=np.int64).reshape(len(rows), space.ndim)


@settings(max_examples=150, deadline=None)
@given(_spaces_with_conjuncts())
def test_contains_array_counts_and_agrees_with_contains(space):
    points = _box_points(space)
    mask = contains_array(space, points)
    assert mask.dtype == bool and mask.shape == (len(points),)
    assert int(mask.sum()) == space.count()
    assert mask.tolist() == [space.contains(tuple(p)) for p in points.tolist()]


@settings(max_examples=150, deadline=None)
@given(_spaces_with_conjuncts())
def test_lexmin_array_matches_representative_at_every_budget(space):
    # Budgets from 0 up: the small ones exhaust the descent, so both sides
    # must say None at exactly the same budgets.
    points = _box_points(space)
    rows = np.flatnonzero(contains_array(space, points))
    for budget in [*range(0, 30), REPRESENTATIVE_BUDGET]:
        assert lexmin_array(space, points, rows, budget) == (
            space.representative(budget)
        ), budget


def test_lexmin_array_on_cell_points_of_a_subspace():
    # The regional solver's use: the points are a cell's and the rows
    # mark a piece carved out of it.
    cell = BoundedSpace(
        ("i", "j"), [(Affine.const(0), Affine.const(9))] * 2
    )
    piece = cell.conjoin(
        Constraint.inequality(Affine.var("i") + Affine.var("j") - 11)
    ).with_residue(Affine.var("j"), 4, 3, 3)
    points = enumerate_points_array(cell)
    rows = np.flatnonzero(contains_array(piece, points))
    assert len(rows) == piece.count()
    # i = 4 is the first row with a j in {3, 7} at or above 11 − i; the
    # descent probes i = 0..4, then j = 7 alone (its tightened lower bound).
    assert piece.representative() == (4, 7)
    assert lexmin_array(piece, points, rows) == (4, 7)
    assert piece.descent_probes((4, 7)) == 6
    assert lexmin_array(piece, points, rows, budget=6) == (4, 7)
    assert lexmin_array(piece, points, rows, budget=5) is None
    assert piece.representative(5) is None
    assert lexmin_array(piece, points, rows[:0]) is None
