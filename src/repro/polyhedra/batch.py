"""Vectorized counterparts of the :class:`~repro.polyhedra.space.BoundedSpace`
point operations (enumeration, membership and sampling) used by the batch
classifier (:mod:`repro.cme.batch`), ``EstimateMisses`` and the
``RegionMisses`` fallback.

Everything here is exact integer arithmetic on ``int64`` arrays: the batch
enumeration yields precisely the points of
:meth:`~repro.polyhedra.space.BoundedSpace.enumerate_points` (and of
:meth:`~repro.polyhedra.regions.RegionSpace.enumerate_points`) in the same
lexicographic order, the batch membership test agrees point-for-point
with :meth:`~repro.polyhedra.space.BoundedSpace.contains`, and the batch
sampler draws the descent's points from the same generator words —
properties the bit-identity contract of the batch classifier and of
``EstimateMisses`` rests on (and the tests assert).
"""

from __future__ import annotations

import random
from math import prod

import numpy as np

from repro.polyhedra.affine import Affine
from repro.polyhedra.constraints import EQ
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


def enumerate_points_array(space) -> "np.ndarray":
    """Every integer point of ``space`` as an ``(N, n)`` int64 array.

    ``space`` is a :class:`BoundedSpace` or a
    :class:`~repro.polyhedra.regions.RegionSpace`.  Rows appear in
    lexicographic order — exactly the order (and set) of the space's
    ``enumerate_points``, its scalar oracle.  The expansion is dimension by
    dimension: evaluate the affine bounds over the current prefixes,
    tighten them by the affine constraints anchored at this depth (each
    reduces to an interval once the outer dimensions are fixed), repeat
    each prefix once per value in its range, then drop the rows that
    violate a residue constraint anchored at this depth.
    """
    n = space.ndim
    empty = np.empty((0, n), dtype=np.int64)
    if space.is_trivially_empty():
        return empty
    residues_at = getattr(space, "residues_at", None)
    dim_index = {name: k for k, name in enumerate(space.dims)}
    points = np.empty((1, 0), dtype=np.int64)
    for d in range(n):
        lo = eval_affine(space.bounds[d][0], points, dim_index)
        hi = eval_affine(space.bounds[d][1], points, dim_index)
        for c in space.constraints_at(d):
            row, const = affine_row(c.expr, dim_index, n)
            coeff = int(row[d])
            rest = points @ row[:d] + const  # coeff·v + rest ⋈ 0
            if c.kind == EQ:
                pinned = -rest // coeff
                lo = np.maximum(lo, pinned)
                hi = np.where(rest % coeff == 0, np.minimum(hi, pinned), lo - 1)
            elif coeff > 0:
                lo = np.maximum(lo, -(rest // coeff))
            else:
                hi = np.minimum(hi, rest // -coeff)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if total == 0:
            return empty
        rows = np.repeat(np.arange(len(points)), counts)
        ends = np.cumsum(counts)
        starts = np.repeat(ends - counts, counts)
        values = np.arange(total, dtype=np.int64) - starts + lo[rows]
        points = np.column_stack([points[rows], values])
        if residues_at is not None:
            for r in residues_at(d):
                value = eval_affine(r.expr, points, dim_index) % r.modulus
                points = points[(value >= r.lo) & (value <= r.hi)]
            if len(points) == 0:
                return empty
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


#: Words drawn per expected word; a draw that runs short retries with
#: twice as many (the count of rejected words varies from draw to draw).
_WORD_SLACK = 1.25


def sample_points_array(
    space: BoundedSpace, n: int, rng: random.Random
) -> "np.ndarray":
    """``n`` uniform points of a constant-extent ``space``, in one pass.

    Bit-identical to ``n`` calls of the descent
    (:meth:`BoundedSpace.sample`), generator end state included.  Level
    ``d`` of a draw is ``rng.randrange(n_d)`` with the constant
    ``n_d = extent_d · inner_d`` (``inner_d`` the product of the extents
    inside it), and CPython's ``randrange`` takes one 32-bit Mersenne
    Twister word per try, keeping the first whose top
    ``n_d.bit_length()`` bits fall below ``n_d``.  So the words are drawn
    up front, from a copy of ``rng``; per level, a reversed running
    minimum gives the next word that level accepts; each draw's first word
    comes from pointer doubling over the per-draw step; and
    ``lo_d(outer coordinates) + pick // inner_d`` is the coordinate.
    ``rng`` then advances by exactly the words used.

    Requires :meth:`BoundedSpace.constant_extents`, ``type(rng) is
    random.Random`` and fewer than ``2**32`` points, as
    :meth:`BoundedSpace.sample` checks before calling.
    """
    extents = space.constant_extents()
    ndim = space.ndim
    points = np.empty((n, ndim), dtype=np.int64)
    if n == 0 or ndim == 0:
        return points
    inner = [prod(extents[d + 1:]) for d in range(ndim)]
    sizes = [c * i for c, i in zip(extents, inner)]
    shifts = [32 - size.bit_length() for size in sizes]
    per_draw = sum((1 << size.bit_length()) / size for size in sizes)
    state = rng.getstate()
    m = int(n * per_draw * _WORD_SLACK) + 64
    while True:
        copy = random.Random()
        copy.setstate(state)
        raw = copy.getrandbits(32 * m).to_bytes(4 * m, "little")
        words = np.frombuffer(raw, dtype="<u4").astype(np.int64)
        advance = [
            _next_accepted(words, size, shift)
            for size, shift in zip(sizes, shifts)
        ]
        starts = _draw_starts(advance, n)
        used = int(starts[n])
        if used <= m:
            break
        m *= 2
    dim_index = {name: k for k, name in enumerate(space.dims)}
    position = starts[:n]
    for d in range(ndim):
        position_after = advance[d][position]
        pick = words[position_after - 1] >> shifts[d]
        row, const = affine_row(space.bounds[d][0], dim_index, ndim)
        points[:, d] = points[:, :d] @ row[:d] + const + pick // inner[d]
        position = position_after
    rng.getrandbits(32 * used)
    return points


def _next_accepted(words: "np.ndarray", size: int, shift: int) -> "np.ndarray":
    """Per start position ``i`` in ``0..m+1``: one past the first word at or
    after ``i`` that ``randrange(size)`` accepts, or ``m + 1`` (exhausted)
    when none is left."""
    m = len(words)
    after = np.full(m + 2, m + 1, dtype=np.int64)
    accepted = np.flatnonzero((words >> shift) < size)
    after[accepted] = accepted + 1
    return np.minimum.accumulate(after[::-1])[::-1]


def _draw_starts(advance: list, n: int) -> "np.ndarray":
    """The first word of draws ``0..n`` (the last: one past the sample).

    One draw maps a start position through every level's
    :func:`_next_accepted` table, and draw ``k`` starts at that map's
    ``k``-th power of ``0``: pointer doubling extends the known starts
    ``0..2^b − 1`` by their images under the ``2^b``-th power, then squares
    the power.  Position ``m + 1`` (words exhausted) maps to itself.
    """
    step = advance[0]
    for table in advance[1:]:
        step = table[step]
    starts = np.zeros(1, dtype=np.int64)
    while len(starts) <= n:
        starts = np.concatenate((starts, step[starts]))
        step = step[step]
    return starts[: n + 1]
