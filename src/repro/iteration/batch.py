"""Vectorized access-order machinery for the batch classifier.

Two pieces live here:

* :class:`LineTrace` — the whole-program access trace materialised as flat
  NumPy arrays by the simulator's builder (:mod:`repro.sim.batch`), as
  memory lines: it depends on the line size only, so every cache geometry
  with that line size shares it;
* :class:`TraceIndex` — the line trace sorted by cache set, after
  which the interference window of the replacement equations — all
  accesses strictly between a producer and a consumer position — becomes a
  contiguous slice of the set-sorted lines, found by two gathers from each
  access's set-sorted rank, and the ``k`` distinct-line test of Section
  4.1.2 a comparison (``k = 1``) or a few hops over runs of equal lines
  (``k ≥ 2``).  Positions come from the builder's :class:`~repro.sim.batch.TracePlan`:
  the affine time plan itself on rectangular programs, the rank of a box
  time among the builder's sorted keys elsewhere.

The index answers exactly the query
:meth:`repro.iteration.walker.Walker.distinct_conflicts_reach` answers, so
either oracle gives the classifier the same outcomes.  Building
the line trace costs ``O(T log T)`` in the trace length ``T`` (``O(T)`` on
rectangular programs), the per-set sort ``O(T)``; a query costs ``O(1)``
at ``k = 1`` and at most :data:`_PROBE_HOPS` hops at ``k ≥ 2``, past which
the rare unsettled window is counted exactly.  The batch classifier
builds them only when a reference's windows would cost more to walk than
that reference's share of the build (``repro.cme.batch``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.iteration.walker import Walker
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.sim.batch import TracePlan, build_trace, lines_of

#: Runs of equal lines each window advances over in the vectorized probe;
#: only windows still below ``k`` distinct lines after this many (rare)
#: fall back to an exact per-window count.
_PROBE_HOPS = 64


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

    Three arrays of ``T`` entries each: ``lines_by_set``, the lines in
    ``(set, t)`` order; ``rank``, the position of every access in that
    order (the inverse permutation of the sort); and ``run_end``, per
    set-sorted position the first later one holding another line.  The
    last two are int32, since the trace budget keeps ``T`` below 2³¹, so
    the index takes 16 bytes per access.
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
        self.total = total = len(line_at_t)
        set_at_t = line_at_t % num_sets
        # A stable sort of 16-bit keys is a radix sort: same order, O(T).
        narrow = set_at_t.astype(np.uint16) if num_sets <= 1 << 16 else set_at_t
        by_set = np.argsort(narrow, kind="stable")  # (set, t) ascending
        del set_at_t, narrow
        self.lines_by_set = lines = line_at_t[by_set]
        self.rank = np.empty(total, dtype=np.int32)
        self.rank[by_set] = np.arange(total, dtype=np.int32)
        del by_set
        # A run of equal lines never crosses into the next set: another
        # set means another line.
        ends = np.append(
            np.flatnonzero(lines[1:] != lines[:-1]).astype(np.int32) + 1,
            np.int32(total),
        )
        self.run_end = np.repeat(ends, np.diff(ends, prepend=0))

    @property
    def nbytes(self) -> int:
        """Bytes of the per-set arrays and the sorted box times it keeps."""
        keys = 0 if self._keys is None else self._keys.nbytes
        return (
            self.lines_by_set.nbytes + self.rank.nbytes + self.run_end.nbytes
            + keys
        )

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

    def bounds(
        self, t_lo: "np.ndarray", t_hi: "np.ndarray"
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Set-sorted slices ``[lo, hi)`` of the accesses strictly between
        trace times ``t_lo`` and ``t_hi`` in their cache set.

        Both ends must touch the same line — a reuse window's producer and
        consumer do, by the cold equations — so both sit in that line's
        set, and each bound is one gather.
        """
        return self.rank[t_lo] + 1, self.rank[t_hi]

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
        ``t_lo[q]`` and ``t_hi[q]``; both ends must access
        ``reused_lines[q]`` (see :meth:`bounds`).
        """
        result = np.zeros(len(t_lo), dtype=bool)
        lo, hi = self.bounds(t_lo, t_hi)
        # < k accesses cannot hold k distinct lines.
        live = np.flatnonzero(hi - lo >= k)
        lo, hi, reused = lo[live], hi[live], reused_lines[live]
        if k == 1:
            # The window's first run is another line, or ends inside it.
            result[live] = (self.lines_by_set[lo] != reused) | (
                self.run_end[lo] < hi
            )
        else:
            result[live] = self._hop_probe(lo, hi, reused, k)
        return result

    def _hop_probe(
        self,
        lo: "np.ndarray",
        hi: "np.ndarray",
        reused: "np.ndarray",
        k: int,
    ) -> "np.ndarray":
        """:meth:`conflicts_reach` for ``k ≥ 2`` on non-empty windows.

        Every live window advances one run per hop (``run_end``), keeping
        the first ``k`` distinct lines other than the reused one it meets.
        Reaching ``k`` settles a window (distinct counts only grow with the
        window), and so does running past its end.  Windows still live
        after :data:`_PROBE_HOPS` hops — long ones that alternate among
        fewer than ``k`` lines, in practice a handful — count the rest of
        the window exactly with ``np.setdiff1d``.  The ``k`` slots per
        window cost about what the window's two ends do, so all windows
        probe at once.
        """
        lines, run_end = self.lines_by_set, self.run_end
        result = np.zeros(len(lo), dtype=bool)
        query, at = np.arange(len(lo)), lo
        # Unfilled slots hold the reused line, so it never counts as new,
        # and a live window (fewer than k found) always has one left.
        seen = np.repeat(reused[:, None], k, axis=1)
        found = np.zeros(len(lo), dtype=np.intp)
        for _ in range(_PROBE_HOPS):
            if not len(query):
                return result
            line = lines[at]
            rows = np.flatnonzero((seen != line[:, None]).all(axis=1))
            slot = found[rows]
            seen[rows, slot] = line[rows]
            found[rows] = slot + 1
            reached = rows[slot == k - 1]
            result[query[reached]] = True
            at = run_end[at]
            go = at < hi
            go[reached] = False
            if not go.all():
                query, at, hi, seen, found = (
                    a[go] for a in (query, at, hi, seen, found)
                )
        for q, a, b, known, count in zip(query, at, hi, seen, found):
            result[q] = count + len(np.setdiff1d(lines[a:b], known)) >= k
        return result
