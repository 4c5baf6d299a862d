"""Property tests for the regional counting machinery (ISSUE 10).

Randomized (seeded) systems are checked against brute force:

* the closed-form residue helpers of :mod:`repro.polyhedra.intsolve`
  (``residue_period`` / ``count_range_residue`` / ``first_range_residue``)
  against explicit enumeration of the range,
* :meth:`RegionSpace.count` — periodic counting with residue constraints —
  against :meth:`RegionSpace.enumerate_points` and a raw triple loop,
* :meth:`RegionSpace.tight_ranges` — the interval-arithmetic box the
  crossing-window certificate bounds its unroll with — must contain every
  point of the space (conservativeness is what the solver relies on),
* cells derived by ``conjoin``/``with_residue`` chains against a fresh
  construction of the same region, and the vectorised enumerator
  (:func:`~repro.polyhedra.batch.enumerate_points_array`) against
  :meth:`RegionSpace.enumerate_points`.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.polyhedra.batch import enumerate_points_array
from repro.polyhedra import (
    Affine,
    Constraint,
    RegionSpace,
    ResidueConstraint,
    count_range_residue,
    first_range_residue,
    negate_constraint,
    residue_period,
)


def test_residue_period_matches_orbit_length():
    rng = random.Random(101)
    for _ in range(200):
        modulus = rng.choice([1, 2, 3, 4, 8, 12, 16, 32, 1024])
        coeff = rng.randrange(-3 * modulus, 3 * modulus + 1)
        period = residue_period(coeff, modulus)
        # The orbit of v -> (coeff*v) mod modulus over consecutive v.
        seen = {(coeff * v) % modulus for v in range(4 * modulus)}
        assert period == modulus // math.gcd(coeff, modulus)
        assert len(seen) == period


def test_count_range_residue_vs_bruteforce():
    rng = random.Random(202)
    for _ in range(500):
        period = rng.randrange(1, 20)
        residue = rng.randrange(-2 * period, 2 * period)
        lo = rng.randrange(-50, 50)
        hi = lo + rng.randrange(-5, 60)
        want = sum(1 for v in range(lo, hi + 1) if (v - residue) % period == 0)
        assert count_range_residue(lo, hi, period, residue) == want


def test_first_range_residue_vs_bruteforce():
    rng = random.Random(303)
    for _ in range(500):
        period = rng.randrange(1, 20)
        residue = rng.randrange(-2 * period, 2 * period)
        lo = rng.randrange(-50, 50)
        hi = lo + rng.randrange(-5, 60)
        want = next(
            (v for v in range(lo, hi + 1) if (v - residue) % period == 0),
            None,
        )
        assert first_range_residue(lo, hi, period, residue) == want


def _random_region(rng: random.Random) -> RegionSpace:
    """A random 1–3-dim region with affine and residue constraints."""
    ndim = rng.randrange(1, 4)
    dims = tuple(f"v{k}" for k in range(ndim))
    bounds = []
    for k, var in enumerate(dims):
        lo = rng.randrange(-4, 5)
        span = rng.randrange(0, 9)
        lo_e = Affine.const(lo)
        hi_e = Affine.const(lo + span)
        if k > 0 and rng.random() < 0.4:
            # Triangular: couple this bound to an outer variable.
            hi_e = hi_e + Affine.var(dims[rng.randrange(k)])
        bounds.append((lo_e, hi_e))
    constraints = []
    for _ in range(rng.randrange(0, 3)):
        expr = Affine(
            {v: rng.randrange(-2, 3) for v in dims}, rng.randrange(-6, 7)
        )
        constraints.append(
            Constraint.equality(expr)
            if rng.random() < 0.25
            else Constraint.inequality(expr)
        )
    residues = []
    for _ in range(rng.randrange(0, 3)):
        modulus = rng.choice([2, 3, 4, 8, 16])
        lo_r = rng.randrange(modulus)
        hi_r = rng.randrange(lo_r, modulus)
        expr = Affine(
            {v: rng.randrange(0, modulus) for v in dims}, rng.randrange(modulus)
        )
        residues.append(ResidueConstraint.make(expr, modulus, lo_r, hi_r))
    return RegionSpace(dims, bounds, tuple(constraints), tuple(residues))


def _bruteforce_count(space: RegionSpace) -> int:
    box = space.tight_ranges()
    # Enumerate the raw bounding box (ignoring all structure) and test
    # membership — fully independent of the counting code paths.
    def rec(k, point):
        if k == len(space.dims):
            return 1 if space.contains(point) else 0
        lo, hi = box[space.dims[k]]
        return sum(rec(k + 1, point + [v]) for v in range(lo, hi + 1))

    return rec(0, [])


def test_region_count_vs_enumeration_and_bruteforce():
    rng = random.Random(404)
    for _ in range(150):
        space = _random_region(rng)
        points = list(space.enumerate_points())
        assert space.count() == len(points)
        assert space.count() == _bruteforce_count(space)
        assert all(space.contains(p) for p in points)


def test_tight_ranges_contains_every_point():
    rng = random.Random(505)
    checked = 0
    for _ in range(150):
        space = _random_region(rng)
        box = space.tight_ranges()
        for point in space.enumerate_points():
            checked += 1
            for var, value in zip(space.dims, point):
                lo, hi = box[var]
                assert lo <= value <= hi, (
                    f"{var}={value} outside tightened range [{lo}, {hi}] "
                    f"of {space!r}"
                )
    assert checked > 100  # the generator produced non-trivial spaces


def test_negate_constraint_partitions_the_space():
    rng = random.Random(606)
    for _ in range(150):
        space = _random_region(rng)
        expr = Affine(
            {v: rng.randrange(-2, 3) for v in space.dims}, rng.randrange(-4, 5)
        )
        con = (
            Constraint.equality(expr)
            if rng.random() < 0.3
            else Constraint.inequality(expr)
        )
        keep = space.conjoin(con)
        drops = [space.conjoin(neg) for neg in negate_constraint(con)]
        total = keep.count() + sum(d.count() for d in drops)
        assert total == space.count(), (
            f"negation of {con!r} does not partition {space!r}: "
            f"{keep.count()} + {[d.count() for d in drops]} != {space.count()}"
        )


def _random_chain(rng: random.Random):
    """A random region built by ``conjoin``/``with_residue`` steps, and the
    ``(constraints, residues)`` a fresh construction of it takes.

    Some chains take a constant-false constraint or a constant residue
    (satisfied or not) mid-way: derivation must keep such a region empty
    however many conjuncts follow.
    """
    start = _random_region(rng)
    base = RegionSpace(start.dims, start.bounds)
    dims = base.dims
    region = base
    constraints: list[Constraint] = []
    residues: list[ResidueConstraint] = []
    for _ in range(rng.randrange(1, 6)):
        roll = rng.random()
        if roll < 0.08:
            con = Constraint.inequality(Affine.const(-1))
        elif roll < 0.5:
            expr = Affine(
                {v: rng.randrange(-2, 3) for v in dims}, rng.randrange(-6, 7)
            )
            con = (
                Constraint.equality(expr)
                if rng.random() < 0.25
                else Constraint.inequality(expr)
            )
        else:
            con = None
        if con is not None:
            region = region.conjoin(con)
            constraints.append(con)
            continue
        modulus = rng.choice([2, 3, 4, 8, 16])
        lo_r = rng.randrange(modulus)
        hi_r = rng.randrange(lo_r, modulus)
        if roll < 0.58:  # constant once reduced mod the modulus
            expr = Affine(
                {v: modulus * rng.randrange(0, 3) for v in dims},
                rng.randrange(2 * modulus),
            )
        else:
            expr = Affine(
                {v: rng.randrange(0, modulus) for v in dims},
                rng.randrange(modulus),
            )
        region = region.with_residue(expr, modulus, lo_r, hi_r)
        residues.append(ResidueConstraint.make(expr, modulus, lo_r, hi_r))
    return region, base, constraints, residues


def test_derived_cells_equal_fresh_construction():
    rng = random.Random(707)
    empties = 0
    for _ in range(300):
        derived, base, constraints, residues = _random_chain(rng)
        fresh = RegionSpace(base.dims, base.bounds, constraints, residues)
        assert derived.signature() == fresh.signature()
        assert derived.is_trivially_empty() == fresh.is_trivially_empty()
        assert derived.count() == fresh.count()
        assert list(derived.enumerate_points()) == list(fresh.enumerate_points())
        assert derived.representative() == fresh.representative()
        for point in base.enumerate_points():
            assert derived.contains(point) == fresh.contains(point)
        empties += derived.is_trivially_empty()
        # Derivation never touches the parent.
        assert base.count() == len(list(base.enumerate_points()))
    assert empties > 0  # constant-false conjuncts were exercised


def test_derivation_keeps_an_emptied_region_empty():
    space = RegionSpace(("x",), [(Affine.const(0), Affine.const(9))])
    emptied = space.with_residue(Affine.const(5), 4, 0, 0)  # 5 mod 4 = 1
    assert emptied.is_trivially_empty()
    grown = emptied.conjoin(Constraint.inequality(Affine.var("x"))).with_residue(
        Affine.var("x"), 2, 0, 0
    )
    assert grown.count() == 0
    assert list(grown.enumerate_points()) == []
    assert len(enumerate_points_array(grown)) == 0
    assert grown.representative() is None
    assert space.count() == 10


def test_array_enumeration_equals_the_scalar_oracle():
    rng = random.Random(808)
    for _ in range(300):
        space = _random_region(rng) if rng.random() < 0.5 else _random_chain(rng)[0]
        want = list(space.enumerate_points())
        got = enumerate_points_array(space)
        assert got.dtype == np.int64
        assert got.shape == (len(want), space.ndim)
        assert got.tolist() == [list(p) for p in want]
