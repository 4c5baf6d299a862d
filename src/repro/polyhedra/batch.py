"""Vectorized counterparts of the :class:`~repro.polyhedra.space.BoundedSpace`
point operations (enumeration and membership) used by the batch
classifier (:mod:`repro.cme.batch`).

Everything here is exact integer arithmetic on ``int64`` arrays: the batch
enumeration yields precisely the points of
:meth:`~repro.polyhedra.space.BoundedSpace.enumerate_points` in the same
lexicographic order, and the batch membership test agrees point-for-point
with :meth:`~repro.polyhedra.space.BoundedSpace.contains` — properties the
bit-identity contract of the batch classifier rests on (and the tests assert).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.polyhedra.affine import Affine
from repro.polyhedra.constraints import EQ, Constraint
from repro.polyhedra.space import BoundedSpace


def affine_row(
    expr: Affine, dim_index: dict[str, int], width: int
) -> tuple["np.ndarray", int]:
    """``expr`` as a dense coefficient row over ``width`` ordered dimensions."""
    row = np.zeros(width, dtype=np.int64)
    for name, coeff in expr.coeffs.items():
        row[dim_index[name]] = coeff
    return row, int(expr.constant)


def eval_affine(
    expr: Affine, points: "np.ndarray", dim_index: dict[str, int]
) -> "np.ndarray":
    """Evaluate an affine expression at every row of ``points``."""
    row, const = affine_row(expr, dim_index, points.shape[1])
    return points @ row + const


def _guard_mask(
    constraints: Sequence[Constraint],
    points: "np.ndarray",
    dim_index: dict[str, int],
) -> "np.ndarray":
    """Conjunction of affine guard constraints over a batch of points."""
    mask = np.ones(len(points), dtype=bool)
    for c in constraints:
        value = eval_affine(c.expr, points, dim_index)
        mask &= (value == 0) if c.kind == EQ else (value >= 0)
    return mask


def enumerate_points_array(space: BoundedSpace) -> "np.ndarray":
    """Every integer point of ``space`` as an ``(N, n)`` int64 array.

    Rows appear in lexicographic order — exactly the order (and set) of
    :meth:`BoundedSpace.enumerate_points`.  The expansion is dimension by
    dimension: evaluate the affine bounds over the current prefixes, repeat
    each prefix once per value in its range, then drop the rows that
    violate the guard constraints anchored at this depth.
    """
    n = space.ndim
    if space.is_trivially_empty():
        return np.empty((0, n), dtype=np.int64)
    dim_index = {name: k for k, name in enumerate(space.dims)}
    points = np.empty((1, 0), dtype=np.int64)
    for d in range(n):
        lo = eval_affine(space.bounds[d][0], points, dim_index)
        hi = eval_affine(space.bounds[d][1], points, dim_index)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if total == 0:
            return np.empty((0, n), dtype=np.int64)
        rows = np.repeat(np.arange(len(points)), counts)
        ends = np.cumsum(counts)
        starts = np.repeat(ends - counts, counts)
        values = np.arange(total, dtype=np.int64) - starts + lo[rows]
        points = np.column_stack([points[rows], values])
        guards = space.constraints_at(d)
        if guards:
            points = points[_guard_mask(guards, points, dim_index)]
            if len(points) == 0:
                return np.empty((0, n), dtype=np.int64)
    return points


def contains_batch(space: BoundedSpace, points: "np.ndarray") -> "np.ndarray":
    """Boolean membership mask for a batch of candidate points.

    Agrees entry-for-entry with :meth:`BoundedSpace.contains`: a point is a
    member iff it satisfies every per-dimension bound pair and every guard
    constraint.  (Bounds of dimension ``k`` only reference outer dimensions,
    so evaluating them on the full point rows is sound.)
    """
    points = np.asarray(points, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != space.ndim:
        raise ValueError(
            f"expected an (N, {space.ndim}) point array, got {points.shape}"
        )
    if space.is_trivially_empty():
        return np.zeros(len(points), dtype=bool)
    dim_index = {name: k for k, name in enumerate(space.dims)}
    mask = np.ones(len(points), dtype=bool)
    for d in range(space.ndim):
        lo = eval_affine(space.bounds[d][0], points, dim_index)
        hi = eval_affine(space.bounds[d][1], points, dim_index)
        mask &= (points[:, d] >= lo) & (points[:, d] <= hi)
        for c in space.constraints_at(d):
            value = eval_affine(c.expr, points, dim_index)
            mask &= (value == 0) if c.kind == EQ else (value >= 0)
    return mask
