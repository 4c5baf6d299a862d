"""A space grown by row conjuncts equals one grown by ``Constraint``s.

:class:`~repro.polyhedra.space.BoundedSpace` keeps its conjuncts as
integer rows.  :meth:`~repro.polyhedra.space.BoundedSpace.conjoin` takes a
conjunct either as a :class:`Constraint` (compiled on the way in) or
already compiled (:class:`RowConstraint`, :class:`RowResidue`), and a
derived space updates its memo-key layout only where the new conjunct
changes a depth's relevance.  Random chains of conjuncts — trivially true
and false ones and residues that are constant once reduced included — are
applied three ways: as symbolic objects, as rows, and to the constructor
at once.  The three spaces must agree on everything a reader can see.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.polyhedra import Affine, BoundedSpace, Constraint, ResidueConstraint
from repro.polyhedra.batch import enumerate_points_array
from repro.polyhedra.constraints import EQ, GE
from repro.polyhedra.space import RowConstraint, RowResidue

DIMS = ("a", "b", "c")


def _base(rng: random.Random) -> BoundedSpace:
    ndim = rng.randrange(1, 4)
    dims = DIMS[:ndim]
    bounds = []
    for k in range(ndim):
        lo = Affine.const(rng.randrange(-3, 3))
        hi = Affine.const(rng.randrange(2, 8))
        if k and rng.random() < 0.5:  # triangular
            hi = hi + Affine.var(dims[rng.randrange(k)])
        bounds.append((lo, hi))
    return BoundedSpace(dims, bounds)


def _chain(rng: random.Random, dims) -> list[tuple]:
    """Conjunct specs: ``("con", kind, coeffs, const)`` or ``("res",
    coeffs, const, modulus, lo, hi)``, coefficients one per dimension."""
    specs = []
    for _ in range(rng.randrange(1, 7)):
        roll = rng.random()
        zero = [0] * len(dims)
        if roll < 0.1:  # trivially true or false
            specs.append(
                ("con", rng.choice([EQ, GE]), zero, rng.randrange(-1, 2))
            )
        elif roll < 0.55:
            coeffs = [rng.randrange(-2, 3) for _ in dims]
            kind = EQ if rng.random() < 0.2 else GE
            specs.append(("con", kind, coeffs, rng.randrange(-6, 7)))
        else:
            m = rng.choice([2, 3, 4, 8])
            lo = rng.randrange(m)
            hi = rng.randrange(lo, m)
            if roll < 0.65:  # constant once reduced mod m
                coeffs = [m * rng.randrange(-2, 3) for _ in dims]
            else:
                coeffs = [rng.randrange(-m, 2 * m) for _ in dims]
            specs.append(("res", coeffs, rng.randrange(-m, 2 * m), m, lo, hi))
    return specs


def _affine(dims, coeffs, const) -> Affine:
    return Affine(dict(zip(dims, coeffs)), const)


def _three_ways(base: BoundedSpace, specs) -> tuple:
    dims = base.dims
    by_object = by_row = base
    constraints, residues = [], []
    for spec in specs:
        if spec[0] == "con":
            _, kind, coeffs, const = spec
            con = Constraint(_affine(dims, coeffs, const), kind)
            by_object = by_object.conjoin(con)
            by_row = by_row.conjoin(
                RowConstraint.make(tuple(coeffs), const, kind)
            )
            constraints.append(con)
        else:
            _, coeffs, const, m, lo, hi = spec
            expr = _affine(dims, coeffs, const)
            by_object = by_object.with_residue(expr, m, lo, hi)
            by_row = by_row.conjoin(
                RowResidue.make(tuple(coeffs), const, m, lo, hi)
            )
            residues.append(ResidueConstraint(expr, m, lo, hi))
    fresh = BoundedSpace(dims, base.bounds, constraints, residues)
    return by_object, by_row, fresh


CHAINS = 250


@pytest.mark.parametrize("seed", range(5))
def test_row_conjoins_equal_object_conjoins_and_construction(seed):
    rng = random.Random(9100 + seed)
    empties = constant_residues = 0
    for _ in range(CHAINS // 5):
        base = _base(rng)
        specs = _chain(rng, base.dims)
        spaces = _three_ways(base, specs)
        reference = spaces[0]
        points = list(base.enumerate_points())
        for space in spaces[1:]:
            assert space.signature() == reference.signature()
            assert space.is_trivially_empty() == reference.is_trivially_empty()
            assert space.count() == reference.count()
            assert list(space.enumerate_points()) == list(
                reference.enumerate_points()
            )
            assert space.constraints == reference.constraints
            assert space.residues == reference.residues
            assert space.rows() == reference.rows()
            assert repr(space) == repr(reference)
            assert space.representative() == reference.representative()
            for point in points:
                assert space.contains(point) == reference.contains(point)
        # The incremental memo-key layout is the one a fresh build derives.
        for space in spaces[:2]:
            assert space._raw == spaces[2]._raw
            assert space._raw_idx == spaces[2]._raw_idx
        assert reference.count() == sum(map(reference.contains, points))
        assert np.array_equal(
            enumerate_points_array(reference),
            np.array(list(reference.enumerate_points()), dtype=np.int64).reshape(
                -1, reference.ndim
            ),
        )
        empties += reference.is_trivially_empty()
        constant_residues += any(
            s[0] == "res" and all(c % s[3] == 0 for c in s[1]) for s in specs
        )
    assert empties and constant_residues  # the corner cases were exercised


def test_constant_conjuncts_resolve_at_once():
    space = BoundedSpace(("x",), [(Affine.const(0), Affine.const(9))])
    # Trivially true: dropped.
    assert space.conjoin(RowConstraint.make((0,), 0, EQ)).rows()[1] == ()
    assert space.conjoin(RowConstraint.make((0,), 3, GE)).count() == 10
    # Trivially false: empties the space and stays listed.
    false = space.conjoin(RowConstraint.make((0,), -1, GE))
    assert false.is_trivially_empty() and false.count() == 0
    assert false.constraints == (Constraint.inequality(Affine.const(-1)),)
    # A residue whose row reduces to zero resolves by its constant.
    kept = space.conjoin(RowResidue.make((4,), 5, 4, 1, 1))  # 5 mod 4 = 1
    assert kept.residues == () and kept.count() == 10
    dropped = space.conjoin(RowResidue.make((8,), 6, 4, 1, 1))  # 2
    assert dropped.is_trivially_empty() and dropped.count() == 0


def test_negated_rows_partition_the_space():
    rng = random.Random(9200)
    for _ in range(100):
        base = _base(rng)
        coeffs = tuple(rng.randrange(-2, 3) for _ in base.dims)
        kind = EQ if rng.random() < 0.3 else GE
        con = RowConstraint.make(coeffs, rng.randrange(-4, 5), kind)
        keep = base.conjoin(con)
        drops = [base.conjoin(neg) for neg in con.negated()]
        assert len(drops) == (2 if kind == EQ else 1)
        assert keep.count() + sum(d.count() for d in drops) == base.count()


def test_residue_rows_validate_and_reduce():
    assert RowResidue.make((-1, 9), -3, 4, 0, 2) == RowResidue(
        (3, 1), 1, 4, 0, 2, 1
    )
    with pytest.raises(ValueError):
        RowResidue.make((1,), 0, 0, 0, 0)
    with pytest.raises(ValueError):
        RowResidue.make((1,), 0, 4, 2, 4)
