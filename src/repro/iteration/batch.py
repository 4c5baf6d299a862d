"""Vectorized access-order machinery for the batch classifier.

Three pieces live here:

* :class:`BatchAffine` — a stack of
  :class:`~repro.iteration.walker.CompiledAffine` expressions compiled to one
  ``(m, n)`` coefficient matrix, so bounds, guards and address polynomials
  evaluate over whole ``(N, n)`` point batches as a single matrix product;
* :class:`LineTrace` — the whole-program access trace materialised as flat
  NumPy arrays by the simulator's builder (:mod:`repro.sim.batch`), as
  memory lines: it depends on the line size only, so every cache geometry
  with that line size shares it;
* :class:`TraceIndex` — the line trace sorted by cache set, after
  which the interference window of the replacement equations — all
  accesses strictly between a producer and a consumer position — becomes a
  contiguous slice of per-cache-set position arrays, and the ``k``
  distinct-line test of Section 4.1.2 a vectorized distinct-count over that
  slice.  Positions come from the builder's :class:`~repro.sim.batch.TracePlan`:
  the affine time plan itself on rectangular programs, the rank of a box
  time among the builder's sorted keys elsewhere.

The index answers exactly the query
:meth:`repro.iteration.walker.Walker.distinct_conflicts_reach` answers, so
the batch classifier stays bit-identical to the scalar classifier.  Building
the line trace costs ``O(T log T)`` in the trace length ``T`` (``O(T)`` on
rectangular programs), the per-set sort ``O(T)``; the batch classifier
builds them only when a reference's windows would cost more to walk than
that reference's share of the build (``repro.cme.batch``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.iteration.walker import CompiledAffine, Walker
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.sim.batch import TracePlan, build_trace, lines_of

#: Length of the vectorized probe prefix of each interference window; only
#: windows longer than this whose probe stays below ``k`` distinct lines
#: (rare) fall back to a per-window ``np.unique``.
_SMALL_WINDOW = 64

#: Rows of the probe matrix processed per chunk (bounds peak memory).
_CHUNK = 1 << 15


class BatchAffine:
    """A stack of compiled affine expressions as one coefficient matrix."""

    __slots__ = ("matrix", "const")

    def __init__(self, affines: Sequence[CompiledAffine], depth: int):
        self.matrix = np.zeros((len(affines), depth), dtype=np.int64)
        self.const = np.zeros(len(affines), dtype=np.int64)
        for i, ca in enumerate(affines):
            self.const[i] = ca.const
            for d, coeff in ca.terms:
                self.matrix[i, d] = coeff

    def eval(self, points: "np.ndarray") -> "np.ndarray":
        """Evaluate every expression at every point: ``(N, n) -> (N, m)``."""
        return points @ self.matrix.T + self.const

    def eval_single(self, points: "np.ndarray") -> "np.ndarray":
        """Evaluate a single-expression stack to a flat ``(N,)`` array."""
        return points @ self.matrix[0] + self.const[0]


class LineTrace:
    """The whole-program access trace as memory lines, for one line size.

    Everything of :class:`TraceIndex` that does not read the number of
    sets: the builder's :class:`~repro.sim.batch.TracePlan`, its sorted
    box times and the line of every access.  Built once per line size and
    shared by every set count.  Raises
    :class:`~repro.sim.batch.TraceTooLargeError` past the budget.
    """

    __slots__ = ("plan", "keys", "lines")

    def __init__(
        self,
        nprog: NormalizedProgram,
        walker: Walker,
        line_bytes: int,
        plan: Optional[TracePlan] = None,
    ):
        self.plan = plan if plan is not None else TracePlan(nprog)
        _, addrs, self.keys = build_trace(nprog, walker, self.plan)
        self.lines = lines_of(addrs, line_bytes)

    @property
    def nbytes(self) -> int:
        """Bytes of the line and sorted-key arrays."""
        keys = 0 if self.keys is None else self.keys.nbytes
        return self.lines.nbytes + keys

    def times(self, box_times: "np.ndarray") -> "np.ndarray":
        """Trace times of the given :meth:`TracePlan.times` box times."""
        if self.keys is None:
            return box_times
        return np.searchsorted(self.keys, box_times)


class TraceIndex:
    """The full access trace, indexed for vectorized window queries.

    ``trace`` is the :class:`LineTrace` of ``line_bytes`` when the caller
    already has it; only the per-set sort is built here.  Raises
    :class:`~repro.sim.batch.TraceTooLargeError` past the budget.
    """

    def __init__(
        self,
        nprog: NormalizedProgram,
        walker: Walker,
        line_bytes: int,
        num_sets: int,
        trace: Optional[LineTrace] = None,
    ):
        if trace is None:
            trace = LineTrace(nprog, walker, line_bytes)
        self.num_sets = num_sets
        self._plan, self._keys = trace.plan, trace.keys
        line_at_t = trace.lines
        self.total = len(line_at_t)
        set_at_t = line_at_t % num_sets
        # A stable sort of 16-bit keys is a radix sort: same order, O(T).
        narrow = set_at_t.astype(np.uint16) if num_sets <= 1 << 16 else set_at_t
        by_set = np.argsort(narrow, kind="stable")  # (set, t) ascending
        # One sorted key ``set·(T+1) + t`` per access: window boundaries in
        # any set become a single vectorized searchsorted over all queries
        # (keys of other sets land outside the query's [base, base+T] band).
        self._set_keys = set_at_t[by_set] * np.int64(self.total + 1) + by_set
        self._lines_by_set = line_at_t[by_set]

    @property
    def nbytes(self) -> int:
        """Bytes of the per-set arrays and the sorted box times it keeps."""
        keys = 0 if self._keys is None else self._keys.nbytes
        return self._set_keys.nbytes + self._lines_by_set.nbytes + keys

    # -- position lookup ---------------------------------------------------------

    def t_of(self, ref: NRef, points: "np.ndarray") -> "np.ndarray":
        """Trace times of ``ref``'s accesses at the given iteration points.

        Every row must lie inside the reference's RIS (the cold equations
        guarantee that for producer points; consumers enumerate their RIS).
        """
        times = self._plan.times(ref, points)
        if self._keys is None:
            return times
        return np.searchsorted(self._keys, times)

    # -- the replacement-equation window query -------------------------------------

    def conflicts_reach(
        self,
        t_lo: "np.ndarray",
        t_hi: "np.ndarray",
        reused_lines: "np.ndarray",
        k: int,
    ) -> "np.ndarray":
        """Vectorized :meth:`Walker.distinct_conflicts_reach` over queries.

        For each query ``q``: True iff at least ``k`` *distinct* memory
        lines other than ``reused_lines[q]`` map to the reused line's cache
        set among the accesses with trace time strictly between
        ``t_lo[q]`` and ``t_hi[q]``.
        """
        count = len(t_lo)
        result = np.zeros(count, dtype=bool)
        if count == 0:
            return result
        base = (reused_lines % self.num_sets) * np.int64(self.total + 1)
        lo = np.searchsorted(self._set_keys, base + t_lo, side="right")
        hi = np.searchsorted(self._set_keys, base + t_hi, side="left")
        lengths = hi - lo
        # < k accesses cannot hold k distinct lines.
        queries = np.flatnonzero(lengths >= k)
        for chunk_at in range(0, len(queries), _CHUNK):
            chunk = queries[chunk_at : chunk_at + _CHUNK]
            # Probe pass: the distinct count over the first
            # min(length, _SMALL_WINDOW) accesses of every window at once.
            # Reaching k inside the prefix settles the query (distinct
            # counts only grow with the window); a short window is its own
            # prefix, so staying below k settles it too.  Only long windows
            # whose probe stayed below k need an exact per-window count —
            # in practice a handful, because k is the associativity (2–8)
            # and prefixes of long reuse windows reach it almost always.
            width = min(int(lengths[chunk].max()), _SMALL_WINDOW)
            distinct = self._distinct_prefix(
                lo[chunk],
                np.minimum(lengths[chunk], width),
                reused_lines[chunk],
                width,
            )
            settled = distinct >= k
            result[chunk] = settled
            for q in chunk[~settled & (lengths[chunk] > width)]:
                window = self._lines_by_set[lo[q] : hi[q]]
                unique = np.unique(window)
                conflicts = len(unique) - int(
                    np.searchsorted(unique, reused_lines[q], side="right")
                    > np.searchsorted(unique, reused_lines[q], side="left")
                )
                result[q] = conflicts >= k
        return result

    def _distinct_prefix(
        self,
        lo: "np.ndarray",
        lengths: "np.ndarray",
        reused_lines: "np.ndarray",
        width: int,
    ) -> "np.ndarray":
        """Distinct lines (excluding the reused one) per window prefix.

        Window prefixes (``lengths`` ≤ ``width``) are gathered into one
        padded ``(Q, width)`` matrix; the reused line and the padding become
        a sentinel, rows are sorted, and the distinct count is the number of
        value transitions — one ``np.unique`` semantics pass for the whole
        batch.
        """
        offsets = np.arange(width, dtype=np.int64)
        index = lo[:, None] + offsets[None, :]
        valid = offsets[None, :] < lengths[:, None]
        index = np.minimum(index, max(self.total - 1, 0))
        values = self._lines_by_set[index]
        sentinel = np.iinfo(np.int64).max
        values = np.where(valid, values, sentinel)
        values = np.where(values == reused_lines[:, None], sentinel, values)
        values.sort(axis=1)
        real = values != sentinel
        distinct = real[:, 0].astype(np.int64)
        if width > 1:
            distinct += (
                (values[:, 1:] != values[:, :-1]) & real[:, 1:]
            ).sum(axis=1)
        return distinct
