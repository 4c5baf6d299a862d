"""Vectorized counterparts of the :class:`~repro.polyhedra.space.BoundedSpace`
point operations (enumeration, membership, lexmin and sampling) used by the
batch classifier (:mod:`repro.cme.batch`), ``EstimateMisses`` and
``RegionMisses`` (its fallback, and the window carving it counts on a
cell's points).

Everything here is exact integer arithmetic on ``int64`` arrays: the batch
enumeration yields precisely the points of
:meth:`~repro.polyhedra.space.BoundedSpace.enumerate_points` in the same
lexicographic order, a conjunct's mask marks exactly the rows that
satisfy it (so narrowing a superset's points conjunct by conjunct leaves
the rows :meth:`~repro.polyhedra.space.BoundedSpace.contains` accepts), the
budgeted lexmin returns what
:meth:`~repro.polyhedra.space.BoundedSpace.representative` returns, and the
batch sampler draws the descent's points from the same generator words —
properties the bit-identity contracts of the batch classifier, of
``EstimateMisses`` and of ``RegionMisses`` rest on (and the tests assert).
"""

from __future__ import annotations

import random
from math import prod
from typing import Optional, Union

import numpy as np

from repro.errors import TraceTooLargeError
from repro.polyhedra.constraints import EQ
from repro.polyhedra.space import (
    BoundedSpace,
    REPRESENTATIVE_BUDGET,
    RowConstraint,
    RowResidue,
)


#: The most rows :func:`enumerate_points_array` materialises at any level:
#: the int32 ceiling that the trace budget
#: (:data:`repro.sim.batch.MAX_TRACE_ACCESSES`) already keeps every trace
#: position under.
MAX_POINTS = 2**31 - 1


def _eval_row(
    row: tuple[int, ...], const: int, points: "np.ndarray"
) -> "np.ndarray":
    """``row·p + const`` at every row ``p`` of ``points`` (``row`` may be
    longer than a row of ``points``: bounds read only the outer
    dimensions)."""
    return points @ np.array(row[: points.shape[1]], dtype=np.int64) + const


def enumerate_points_array(space: BoundedSpace) -> "np.ndarray":
    """Every integer point of ``space`` as an ``(N, n)`` int64 array.

    Rows appear in lexicographic order — exactly the order (and set) of
    :meth:`BoundedSpace.enumerate_points`, its scalar oracle.  The
    expansion is dimension by dimension: evaluate the affine bounds over
    the current prefixes,
    tighten them by the affine constraints anchored at this depth (each
    reduces to an interval once the outer dimensions are fixed), repeat
    each prefix once per value in its range, then drop the rows that
    violate a residue constraint anchored at this depth.

    Raises :class:`~repro.errors.TraceTooLargeError`, before allocating,
    once a level would hold more than :data:`MAX_POINTS` rows.
    """
    n = space.ndim
    empty = np.empty((0, n), dtype=np.int64)
    if space.is_trivially_empty():
        return empty
    bounds, _ = space.rows()
    points = np.empty((1, 0), dtype=np.int64)
    for d, (lo_bound, hi_bound) in enumerate(bounds):
        lo = _eval_row(*lo_bound, points)
        hi = _eval_row(*hi_bound, points)
        for c in space.constraints_at(d):
            coeff = c.row[d]
            rest = _eval_row(c.row, c.const, points)  # coeff·v + rest ⋈ 0
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
        if total > MAX_POINTS:
            raise TraceTooLargeError(
                f"an iteration space over {', '.join(space.dims)} is too "
                f"large to enumerate: {total} points over its first "
                f"{d + 1} dimension(s), more than {MAX_POINTS}"
            )
        rows = np.repeat(np.arange(len(points)), counts)
        ends = np.cumsum(counts)
        starts = np.repeat(ends - counts, counts)
        values = np.arange(total, dtype=np.int64) - starts + lo[rows]
        points = np.column_stack([points[rows], values])
        for r in space.residues_at(d):
            points = points[satisfied_array(r, points)]
        if len(points) == 0:
            return empty
    return points


def satisfied_array(
    conjunct: Union[RowConstraint, RowResidue], points: "np.ndarray"
) -> "np.ndarray":
    """Whether each row of ``points`` satisfies one affine or residue
    conjunct compiled over the points' dimensions, as a boolean mask."""
    value = _eval_row(conjunct.row, conjunct.const, points)
    if isinstance(conjunct, RowResidue):
        value %= conjunct.modulus
        return (value >= conjunct.lo) & (value <= conjunct.hi)
    return value == 0 if conjunct.kind == EQ else value >= 0


def lexmin_array(
    space: BoundedSpace,
    points: "np.ndarray",
    rows: "np.ndarray",
    budget: int = REPRESENTATIVE_BUDGET,
) -> Optional[tuple[int, ...]]:
    """:meth:`BoundedSpace.representative` read off the space's points.

    ``points`` is an ``(N, n)`` array in lexicographic order (as
    :func:`enumerate_points_array` of a superset returns it) and ``rows``
    the ascending indices of exactly the space's points in it, so the
    first is the space's lexmin.  It is returned when the descent would
    reach it within ``budget`` probes
    (:meth:`BoundedSpace.descent_probes`), and ``None`` when ``rows`` is
    empty or the descent would run out: the same verdict as
    ``space.representative(budget)``.
    """
    if not len(rows):
        return None
    point = tuple(int(v) for v in points[rows[0]])
    return point if space.descent_probes(point) <= budget else None


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
    bounds, _ = space.rows()
    position = starts[:n]
    for d in range(ndim):
        position_after = advance[d][position]
        pick = words[position_after - 1] >> shifts[d]
        points[:, d] = _eval_row(*bounds[d][0], points[:, :d]) + pick // inner[d]
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
