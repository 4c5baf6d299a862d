"""Vectorized trace simulation: NumPy LRU via stack distances.

The scalar simulator walks the program access by access and mutates a
per-set LRU dict — exact, but ~600 ns per access in CPython, which made
simulation the slowest phase of every differential sweep once the
classifier was vectorized.  This module replaces the *walk*
with array construction and the *LRU state machine* with a closed-form
property of LRU caches:

    An access to line ``L`` in set ``s`` **hits** a ``k``-way set iff
    fewer than ``k`` distinct lines of ``s`` were accessed since the
    previous access to ``L`` (its *stack distance* is below ``k``);
    a cold access (no previous access) always misses.

That property needs no temporal state, so misses can be decided for all
accesses at once:

1. **Trace build** — materialise the whole access stream as
   ``(ref_uid, address)`` arrays in execution order, from one
   :class:`TracePlan` (an affine time per access).  Guard-free nests
   with constant bounds (every Table 6 program) get a *rectangular fast
   path*: the plan's time is exact, so addresses and times are built by
   broadcasting — no per-point matrices, no sort.  Guarded or
   non-rectangular programs fall back to a per-leaf polyhedral
   enumeration plus one sort on the plan's box times, which increase in
   the order :func:`~repro.sim.trace.naive_trace` sorts by.  The batch
   classifier's window index (:mod:`repro.iteration.batch`) is built by
   the same code.
2. **Per-set grouping** — mask/modulo set decomposition, then one stable
   argsort over set indices concatenates each set's stream into a
   contiguous segment (stable ⇒ time order is preserved inside a
   segment).
3. **Run compression** — adjacent same-line accesses always hit (for any
   ``k ≥ 1``), so each segment is compressed to its *runs* of equal
   lines; only run heads can miss, and in run space adjacent values
   always differ.
4. **Stack-distance kernel** — specialised per associativity: ``k = 1``
   misses exactly at run heads; ``k = 2`` hits iff the head revisits the
   line of two runs ago within the segment (the set then holds exactly
   the two most-recent distinct lines); ``k ≥ 3`` finds each run's
   previous same-line run with one stable sort, short-circuits windows
   narrower than ``k``, and counts distinct lines in the remaining
   windows by *first-occurrence counting* — a run is the first of its
   line inside a window iff its previous same-line run lies before the
   window — over escalating window prefixes.
5. **Tally** — per-reference access/miss counts are two ``bincount``\\ s
   over the uid stream; evictions are recovered without simulation as
   ``misses - Σ_s min(k, distinct_lines(s))`` (every miss inserts a
   line; each set retains its last ``min(k, distinct)`` of them).

The result is **bit-identical** to :class:`~repro.sim.cache.SetAssocLRUCache`
per-reference tallies (the 210-case differential suite asserts it), at
10-30× the speed on the Table 6 programs.

Two extensions share stages 1-3:

* **Fully-associative fast path** — with ``num_sets == 1`` the whole
  stream *is* one set segment, so the set decomposition and the stable
  argsort (the kernel's costliest stage) are skipped outright and the
  stream is run-compressed in place (counted under
  ``sim.policy.fa_fastpath``; the Gysi et al. observation from
  PAPERS.md).
* **Non-LRU policies** — only LRU is a stack algorithm, so FIFO, PLRU
  and random have no closed miss form (Belady's anomaly).
  :func:`policy_miss_kernel` keeps the vectorized trace build, set
  decomposition and run compression — valid for *every* policy here
  because immediately re-accessing the just-touched line always hits
  without changing set state — and replays only the run heads (usually a
  small fraction of the trace) through the exact scalar set machines of
  :mod:`repro.sim.policy`, one set at a time.  Bit-identity with the
  scalar walker is then by construction, and the differential matrix
  asserts it per policy anyway.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import AnalysisError, InvariantError
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef, index_var
from repro.iteration.walker import Walker
from repro.polyhedra.batch import enumerate_points_array
from repro.sim.policy import SET_MACHINES, count_policy_run
from repro.sim.simulator import HierarchyReport, SimReport

#: Hard budget on materialised trace length: past this the arrays stop
#: fitting comfortably in memory and the scalar walk is used instead.
MAX_TRACE_ACCESSES = 50_000_000


class TraceTooLargeError(AnalysisError):
    """The access trace exceeds :data:`MAX_TRACE_ACCESSES`.

    :func:`repro.sim.simulate` catches this and degrades to the scalar
    walker, which streams accesses without materialising them.
    """


# -- trace construction ---------------------------------------------------------------


#: Box times must fit comfortably in int64.
_MAX_BOX = 1 << 62


class TracePlan:
    """Per-leaf affine time index ``t = base + Σ_d i_d·stride_d + lexpos``.

    A loop's stride is the number of accesses in one of its iterations,
    counted over the *box* of the program: each loop bound widened to its
    interval hull over the outer loops, guards ignored.  Box times are
    injective and increase in execution order (a mixed-radix numbering of
    the box), so an access's true time is the rank of its box time.  When
    every leaf is guard-free and every bound a constant
    (:attr:`rectangular`; every Table 6 program) the box *is* the trace:
    :meth:`times` is then exact, and the trace is built by broadcasting
    with no sort.  :attr:`total` is always the exact trace length.
    """

    def __init__(self, nprog: NormalizedProgram):
        self.rectangular = True
        plans: dict[int, tuple[list, list, int]] = {}

        def extent(loop, ranges):
            lo, hi = loop.lower, loop.upper
            if lo.variables() or hi.variables():
                self.rectangular = False
            return lo.bounds(ranges)[0], hi.bounds(ranges)[1]

        def size_of(loop, ranges):
            """``(accesses in the whole loop, accesses in one iteration)``."""
            lo, hi = extent(loop, ranges)
            inner = {**ranges, index_var(loop.depth): (lo, max(lo, hi))}
            if loop.leaves:
                if any(len(leaf.guard) > 0 for leaf in loop.leaves):
                    self.rectangular = False
                per_iter = sum(len(leaf.refs) for leaf in loop.leaves)
            else:
                per_iter = sum(size_of(c, inner)[0] for c in loop.loops)
            return max(hi - lo + 1, 0) * per_iter, per_iter

        strides: list = []
        bounds: list = []

        def assign(loop, base, ranges):
            lo, hi = extent(loop, ranges)
            _, per_iter = size_of(loop, ranges)
            inner = {**ranges, index_var(loop.depth): (lo, max(lo, hi))}
            strides.append(per_iter)
            bounds.append((lo, hi))
            base -= lo * per_iter
            for leaf in loop.leaves:
                plans[id(leaf)] = (list(strides), list(bounds), base)
            for child in loop.loops:
                assign(child, base, inner)
                base += size_of(child, inner)[0]
            strides.pop()
            bounds.pop()

        box = 0
        for root in nprog.roots:
            assign(root, box, {})
            box += size_of(root, {})[0]
        self.total = box if self.rectangular else sum(
            nprog.ris(leaf).count() * len(leaf.refs) for leaf in nprog.leaves
        )
        self._box = box
        self._leaf = {
            key: (np.array(st, dtype=np.int64), bds, base)
            for key, (st, bds, base) in plans.items()
        } if box < _MAX_BOX else {}

    @property
    def materialisable(self) -> bool:
        """True when the trace fits the budget and box times fit in int64
        (read at each call, so a plan outlives no budget change)."""
        return self.total <= MAX_TRACE_ACCESSES and self._box < _MAX_BOX

    def check_budget(self) -> None:
        """Raise :class:`TraceTooLargeError` unless :attr:`materialisable`."""
        if not self.materialisable:
            raise TraceTooLargeError(
                f"trace of {self.total} accesses exceeds the "
                f"{MAX_TRACE_ACCESSES}-access materialisation budget"
            )

    def times(self, ref: NRef, points: "np.ndarray") -> "np.ndarray":
        """Box times of ``ref`` at ``(N, n)`` points (trace times iff
        :attr:`rectangular`)."""
        strides, _, base = self._leaf[id(ref.leaf)]
        return points @ strides + (base + ref.lexpos)


def _rect_trace(nprog: NormalizedProgram, walker: Walker, plan: TracePlan):
    """Broadcast-build the trace of a rectangular program (no sorting)."""
    addrs_t = np.empty(plan.total, dtype=np.int64)
    uids_t = np.empty(plan.total, dtype=np.uint32)
    for leaf in nprog.leaves:
        strides, bds, base = plan._leaf[id(leaf)]
        depth = len(strides)
        nref = len(leaf.refs)
        coeffs = np.zeros((depth, nref), dtype=np.int64)
        consts = np.zeros(nref, dtype=np.int64)
        uids = np.zeros(nref, dtype=np.uint32)
        lexpos = np.zeros(nref, dtype=np.int64)
        for j, ref in enumerate(leaf.refs):
            ca = walker.compiled_ref(ref).addr
            for d, coeff in ca.terms:
                coeffs[d, j] = coeff
            consts[j] = ca.const
            uids[j] = ref.uid
            lexpos[j] = ref.lexpos
        shape = tuple(hi - lo + 1 for lo, hi in bds)
        if 0 in shape:
            continue
        # Address grid: a broadcast sum of one outer product per loop
        # dimension (values × per-ref coefficients), references on the
        # trailing axis; the time grid broadcasts the same way with the
        # per-dimension strides.
        addr = consts.copy()
        tgrid = np.int64(base)
        for d, (lo, hi) in enumerate(bds):
            values = np.arange(lo, hi + 1, dtype=np.int64)
            term = np.multiply.outer(values, coeffs[d])
            sh = (1,) * d + (shape[d],) + (1,) * (depth - 1 - d)
            addr = addr + term.reshape(sh + (nref,))
            tgrid = tgrid + (values * strides[d]).reshape(sh)
        t = (tgrid[..., None] + lexpos).ravel()
        addrs_t[t] = addr.ravel()
        uids_t[t] = np.broadcast_to(uids, addr.shape).ravel()
    return uids_t, addrs_t


def _general_trace(nprog: NormalizedProgram, walker: Walker, plan: TracePlan):
    """Per-leaf polyhedral enumeration plus one sort on box times.

    Handles guards and affine-dependent bounds.  Box times increase in
    execution order — lexicographic order on
    :func:`~repro.iteration.position.interleave`'s
    ``(ℓ1, i1, …, ℓn, in, lexpos)`` — so sorting by them yields the
    walker's (and :func:`~repro.sim.trace.naive_trace`'s) order.  Returns
    ``(uids, addrs, keys)`` in execution order, ``keys`` the sorted box
    times (an access's trace time is its key's rank).
    """
    uid_blocks = []
    addr_blocks = []
    key_blocks = []
    space_points: dict[int, "np.ndarray"] = {}  # id(space) -> points
    for leaf in nprog.leaves:
        if not leaf.refs:
            continue
        space = nprog.ris(leaf)
        pts = space_points.get(id(space))
        if pts is None:
            pts = space_points[id(space)] = enumerate_points_array(space)
        if not len(pts):
            continue
        for ref in leaf.refs:
            ca = walker.compiled_ref(ref).addr
            addr = np.full(len(pts), ca.const, dtype=np.int64)
            for d, coeff in ca.terms:
                addr += coeff * pts[:, d]
            addr_blocks.append(addr)
            key_blocks.append(plan.times(ref, pts))
            uid_blocks.append(np.full(len(pts), ref.uid, dtype=np.uint32))
    if not key_blocks:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.uint32), empty, empty
    keys = np.concatenate(key_blocks)
    order = np.argsort(keys)
    return (
        np.concatenate(uid_blocks)[order],
        np.concatenate(addr_blocks)[order],
        keys[order],
    )


def build_trace(nprog: NormalizedProgram, walker: Walker, plan: TracePlan):
    """``(uids, addrs, keys)`` in execution order under ``plan``.

    ``keys`` is ``None`` on rectangular programs (the plan's times are the
    trace times) and the sorted box times otherwise.  Raises
    :class:`TraceTooLargeError` unless the plan is materialisable.
    """
    plan.check_budget()
    if plan.rectangular:
        return (*_rect_trace(nprog, walker, plan), None)
    return _general_trace(nprog, walker, plan)


def trace_arrays(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    walker: Optional[Walker] = None,
) -> Tuple["np.ndarray", "np.ndarray"]:
    """The full access trace as ``(uids, addresses)`` arrays.

    Execution-ordered and identical, pair for pair, to
    :func:`~repro.sim.trace.collect_walker_trace`.  Raises
    :class:`TraceTooLargeError` past :data:`MAX_TRACE_ACCESSES`.
    """
    walker = walker if walker is not None else Walker(nprog, layout)
    uids, addrs, _ = build_trace(nprog, walker, TracePlan(nprog))
    return uids, addrs


# -- the stack-distance kernel --------------------------------------------------------


def lines_of(addrs: "np.ndarray", line_bytes: int) -> "np.ndarray":
    """Byte addresses → memory line numbers (shift when a power of two)."""
    if line_bytes & (line_bytes - 1) == 0:
        return addrs >> (line_bytes.bit_length() - 1)
    return addrs // line_bytes


def narrow_lines(lines_t: "np.ndarray") -> "np.ndarray":
    """Narrow lines to 4 bytes when they fit: every gather and compare in
    the kernel then moves half the memory.  (Negative lines cannot occur
    for layout addresses; external traces that overflow keep int64.)"""
    if (
        len(lines_t)
        and lines_t.dtype.itemsize > 4
        and int(lines_t.max()) < 1 << 31
        and int(lines_t.min()) >= 0
    ):
        return lines_t.astype(np.int32)
    return lines_t


def sets_of(lines: "np.ndarray", num_sets: int) -> "np.ndarray":
    """The cache set of every line: a mask when ``num_sets`` is a power of
    two, else a modulo."""
    if num_sets & (num_sets - 1) == 0:
        return lines & (num_sets - 1)
    return lines % num_sets


def set_order(lines: "np.ndarray", num_sets: int) -> "np.ndarray":
    """The stable permutation that sorts a line stream by cache set, time
    order kept within each set.  A stable sort of 8- or 16-bit keys is a
    radix sort, one pass per byte, so up to 2¹⁶ sets it costs ``O(T)``."""
    sets = sets_of(lines, num_sets)
    for dtype in (np.uint8, np.uint16):
        if num_sets <= 1 << 8 * np.dtype(dtype).itemsize:
            sets = sets.astype(dtype)
            break
    return np.argsort(sets, kind="stable")


def _set_decompose(lines_t: "np.ndarray", num_sets: int):
    """Group a line stream into contiguous per-set segments.

    Returns ``(by_set, ls, sets, counts)``: the :func:`set_order`
    permutation (or ``None``), the set-major line stream, and the sets the
    stream touches in ascending order with their access counts.  Only
    touched sets appear, so memory stays linear in the stream however many
    sets the cache has.  A fully-associative cache (``num_sets == 1``)
    takes the fast path: the stream already *is* the one set's segment in
    time order, so the set decomposition and the sort — the costliest
    stage of the kernel — are skipped entirely (``sim.policy.fa_fastpath``).
    """
    total = len(lines_t)
    if num_sets == 1:
        obs.counter("sim.policy.fa_fastpath").inc()
        by_set, ls = None, lines_t
        starts = np.zeros(min(total, 1), dtype=np.int64)
        sets = starts
    else:
        by_set = set_order(lines_t, num_sets)
        ls = lines_t[by_set]
        sets_s = sets_of(ls, num_sets)
        starts = np.flatnonzero(sets_s[1:] != sets_s[:-1]) + 1
        if total:
            starts = np.concatenate(([0], starts))
        sets = sets_s[starts]
    return by_set, ls, sets, np.diff(starts, append=total)


def _probe_windows(prev_run, lo, width, cand, assoc, miss_run):
    """Settle candidate runs by counting distinct lines in their windows.

    ``cand`` indexes runs whose reuse window (the runs strictly between a
    run and its previous same-line run) holds at least ``assoc`` runs, so
    the distinct-line count decides hit or miss.  A window run is the
    *first occurrence* of its line inside the window iff its own previous
    same-line run lies before the window, so the distinct count of any
    window prefix is a sum of ``prev_run < lo`` tests — monotone in the
    prefix, hence the escalating prefix widths: almost every window
    accumulates ``assoc`` distinct lines within a few dozen runs.
    """
    nrun = len(prev_run)
    rem = cand
    for cap in (8, 32, 256):
        if not len(rem):
            return
        wid = min(int(width[rem].max()), cap)
        offs = np.arange(wid, dtype=prev_run.dtype)
        low = lo[rem]
        idx = low[:, None] + offs[None, :]
        valid = offs[None, :] < width[rem][:, None]
        np.minimum(idx, nrun - 1, out=idx)
        first = (prev_run[idx] < low[:, None]) & valid
        distinct = first.sum(axis=1)
        is_miss = distinct >= assoc
        miss_run[rem] = is_miss
        rem = rem[~(is_miss | (width[rem] <= wid))]
    # Exceptionally wide, low-diversity windows: exact per-query count.
    for q in rem:
        lo_q = lo[q]
        miss_run[q] = int(np.count_nonzero(prev_run[lo_q:q] < lo_q)) >= assoc


def lru_miss_kernel(
    lines_t: "np.ndarray",
    num_sets: int,
    assoc: int,
    want_evictions: bool = False,
) -> Tuple["np.ndarray", Optional[int]]:
    """Miss flags for a line stream through a ``num_sets``×``assoc`` cache.

    Returns ``(miss_t, evictions)`` with ``miss_t[i]`` True iff access
    ``i`` misses; ``evictions`` is ``None`` unless ``want_evictions``.
    Bit-identical to replaying the stream through
    :class:`~repro.sim.cache.SetAssocLRUCache`.
    """
    total = len(lines_t)
    lines_t = narrow_lines(lines_t)
    by_set, ls, _, counts = _set_decompose(lines_t, num_sets)
    seg_start = np.zeros(total, dtype=bool)
    seg_start[np.cumsum(counts) - counts] = True
    is_head = seg_start.copy()
    if total:
        is_head[1:] |= ls[1:] != ls[:-1]
        is_head[0] = True

    evictions: Optional[int] = None
    if assoc == 1:
        # Direct mapped: every run head misses (the set holds one line).
        miss_s = is_head
        if want_evictions:
            evictions = int(miss_s.sum()) - len(counts)
    else:
        miss_s = np.zeros(total, dtype=bool)
        head_pos = np.flatnonzero(is_head)
        run_line = ls[head_pos]
        run_is_seg_start = seg_start[head_pos]
        nrun = len(head_pos)
        if assoc == 2:
            # In run space adjacent lines always differ, so a 2-way set
            # holds exactly the last two distinct lines: a run head hits
            # iff it matches the line of two runs ago, both predecessor
            # runs lying in the same segment.
            hit = np.zeros(nrun, dtype=bool)
            hit[2:] = (
                (run_line[2:] == run_line[:-2])
                & ~run_is_seg_start[2:]
                & ~run_is_seg_start[1:-1]
            )
            miss_run = ~hit
            prev_run = None
        else:
            # Previous same-line run via one stable sort: equal lines end
            # up adjacent, still in time order.  Radix passes scale with
            # key width, so sort the narrowest dtype the lines fit.
            sort_key = run_line
            if nrun and int(run_line.min()) >= 0:
                top = int(run_line.max())
                if run_line.dtype.itemsize > 2 and top < 1 << 16:
                    sort_key = run_line.astype(np.uint16)
                elif run_line.dtype.itemsize > 4 and top < 1 << 32:
                    sort_key = run_line.astype(np.uint32)
            order = np.argsort(sort_key, kind="stable")
            sorted_lines = run_line[order]
            same = sorted_lines[1:] == sorted_lines[:-1]
            prev_run = np.full(nrun, -1, dtype=np.int32)
            prev_run[order[1:][same]] = order[:-1][same]
            # Lines are set-disjoint, so a same-line predecessor is always
            # in the same segment; -1 marks cold runs.
            ridx = np.arange(nrun, dtype=np.int32)
            width = ridx - prev_run - 1
            have = prev_run >= 0
            miss_run = np.ones(nrun, dtype=bool)
            miss_run[have & (width <= assoc - 1)] = False
            cand = np.flatnonzero(have & (width >= assoc))
            if len(cand):
                _probe_windows(
                    prev_run, prev_run + 1, width, cand, assoc, miss_run
                )
        miss_s[head_pos] = miss_run
        if want_evictions:
            # Per touched set, not per set: the cache may have far more.
            run_set = np.repeat(np.arange(len(counts)), counts)[head_pos]
            if assoc == 2:
                runs_per_set = np.bincount(run_set, minlength=len(counts))
                retained = len(counts) + int((runs_per_set >= 2).sum())
            else:
                distinct_per_set = np.bincount(
                    run_set[prev_run == -1], minlength=len(counts)
                )
                retained = int(np.minimum(distinct_per_set, assoc).sum())
            evictions = int(miss_run.sum()) - retained
    if by_set is None:
        return miss_s, evictions
    miss_t = np.empty(total, dtype=bool)
    miss_t[by_set] = miss_s
    return miss_t, evictions


def policy_miss_kernel(
    lines_t: "np.ndarray",
    num_sets: int,
    assoc: int,
    policy: str,
    seed: int = 0,
    want_evictions: bool = False,
) -> Tuple["np.ndarray", Optional[int]]:
    """Miss flags under a non-stack replacement policy (FIFO/PLRU/random).

    Shares the vectorized trace stages with :func:`lru_miss_kernel` —
    set decomposition (with the same fully-associative fast path) and
    run compression — then replays **only the run heads** through the
    scalar set machines of :mod:`repro.sim.policy`, one set segment at a
    time.  Run compression is semantics-preserving for every registered
    policy: an immediate re-access of the just-touched line hits and
    leaves the set state unchanged, so non-head accesses can neither
    miss nor perturb later decisions.  Bit-identical to
    :class:`~repro.sim.policy.PolicyCache` by construction.
    """
    total = len(lines_t)
    lines_t = narrow_lines(lines_t)
    by_set, ls, sets, counts = _set_decompose(lines_t, num_sets)
    is_head = np.zeros(total, dtype=bool)
    if total:
        is_head[0] = True
        is_head[1:] = ls[1:] != ls[:-1]
        if by_set is not None:
            is_head[np.cumsum(counts) - counts] = True
    head_pos = np.flatnonzero(is_head)
    run_line = ls[head_pos].tolist()
    nrun = len(run_line)
    miss_run = np.empty(nrun, dtype=bool)
    machine_cls = SET_MACHINES[policy]
    evictions = 0
    if by_set is None:
        machine = machine_cls(assoc, set_index=0, seed=seed)
        access = machine.access
        miss_run[:] = [not access(line) for line in run_line]
        evictions = machine.evictions
    else:
        run_counts = np.bincount(
            np.repeat(np.arange(len(counts)), counts)[head_pos],
            minlength=len(counts),
        )
        pos = 0
        for s, n in zip(sets.tolist(), run_counts.tolist()):
            machine = machine_cls(assoc, set_index=s, seed=seed)
            access = machine.access
            miss_run[pos : pos + n] = [
                not access(line) for line in run_line[pos : pos + n]
            ]
            evictions += machine.evictions
            pos += n
    miss_s = np.zeros(total, dtype=bool)
    miss_s[head_pos] = miss_run
    if by_set is None:
        return miss_s, (evictions if want_evictions else None)
    miss_t = np.empty(total, dtype=bool)
    miss_t[by_set] = miss_s
    return miss_t, (evictions if want_evictions else None)


def miss_kernel(
    lines_t: "np.ndarray",
    num_sets: int,
    assoc: int,
    policy: str = "lru",
    seed: int = 0,
    want_evictions: bool = False,
) -> Tuple["np.ndarray", Optional[int]]:
    """Dispatch a line stream to the policy's miss kernel.

    LRU takes the closed-form stack-distance kernel; every other policy
    takes the run-head replay kernel.
    """
    if policy == "lru":
        return lru_miss_kernel(
            lines_t, num_sets, assoc, want_evictions=want_evictions
        )
    return policy_miss_kernel(
        lines_t, num_sets, assoc, policy, seed, want_evictions=want_evictions
    )


# -- report assembly ------------------------------------------------------------------


def _tally(uids_t, miss_t, nref):
    accesses = np.bincount(uids_t, minlength=nref)
    misses = np.bincount(uids_t[miss_t], minlength=nref)
    return accesses, misses


def _count_batch_report(report: SimReport, evictions: Optional[int]) -> None:
    count_policy_run(report.policy)
    obs.counter("sim.backend.batch.runs").inc()
    obs.counter("sim.backend.batch.accesses").inc(report.total_accesses)
    obs.counter("sim.accesses").inc(report.total_accesses)
    obs.counter("sim.misses").inc(report.total_misses)
    obs.counter("sim.hits").inc(report.total_accesses - report.total_misses)
    if evictions is not None:
        obs.counter("sim.evictions").inc(evictions)


def simulate_batch(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    walker: Optional[Walker] = None,
    policy: str = "lru",
    seed: int = 0,
) -> SimReport:
    """The set-kernel body of :func:`repro.sim.simulate`."""
    started = time.perf_counter()
    with obs.span("sim/decode"):
        uids_t, addrs_t = trace_arrays(nprog, layout, walker)
    with obs.span("sim/batch"):
        want_ev = obs.is_enabled()
        miss_t, evictions = miss_kernel(
            lines_of(addrs_t, cache.line_bytes),
            cache.num_sets,
            cache.assoc,
            policy,
            seed,
            want_evictions=want_ev,
        )
        nref = len(nprog.refs)
        acc, mis = _tally(uids_t, miss_t, nref)
    elapsed = time.perf_counter() - started
    report = SimReport(
        cache,
        {r.uid: int(acc[r.uid]) for r in nprog.refs},
        {r.uid: int(mis[r.uid]) for r in nprog.refs},
        elapsed,
        policy,
    )
    _count_batch_report(report, evictions)
    return report


def simulate_sweep(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    caches: Sequence[CacheConfig],
    walker: Optional[Walker] = None,
    policy: str = "lru",
    seed: int = 0,
) -> list:
    """Simulate one program against many cache configurations.

    This is the validation-sweep shape of Table 6 (direct/2-way/4-way
    columns): the access trace is independent of the cache, so it is
    built **once** — and the line stream once per distinct line size —
    while only the per-set stack-distance kernel re-runs per
    configuration.  The scalar simulator must re-walk the whole program
    for every cache; this asymmetry is where the sweep speedup comes
    from.
    """
    sweep_started = time.perf_counter()
    with obs.span("sim/decode"):
        uids_t, addrs_t = trace_arrays(nprog, layout, walker)
    decode_cost = time.perf_counter() - sweep_started
    nref = len(nprog.refs)
    want_ev = obs.is_enabled()
    lines_by_size: dict = {}
    reports = []
    for cache in caches:
        started = time.perf_counter()
        lines = lines_by_size.get(cache.line_bytes)
        if lines is None:
            lines = narrow_lines(lines_of(addrs_t, cache.line_bytes))
            lines_by_size[cache.line_bytes] = lines
        with obs.span("sim/batch"):
            miss_t, evictions = miss_kernel(
                lines,
                cache.num_sets,
                cache.assoc,
                policy,
                seed,
                want_evictions=want_ev,
            )
            acc, mis = _tally(uids_t, miss_t, nref)
        report = SimReport(
            cache,
            {r.uid: int(acc[r.uid]) for r in nprog.refs},
            {r.uid: int(mis[r.uid]) for r in nprog.refs},
            time.perf_counter() - started,
            policy,
        )
        _count_batch_report(report, evictions)
        reports.append(report)
    if reports:
        # Attribute the one-off trace build to the first report's clock,
        # like simulate_batch does for a single configuration.
        reports[0].elapsed_seconds += decode_cost
    return reports


def simulate_trace_arrays(
    uids: "np.ndarray",
    addrs: "np.ndarray",
    cache: CacheConfig,
    refs: Optional[Sequence[NRef]] = None,
    policy: str = "lru",
    seed: int = 0,
) -> SimReport:
    """Simulate a decoded ``(uids, addresses)`` trace.

    With ``refs``, the report is keyed by those references and any trace
    uid outside them raises :class:`~repro.errors.InvariantError` — a
    silently dropped tally would skew every aggregate ratio.  Without
    ``refs``, the report is keyed by the uids present in the trace.
    Reports the same ``sim.*`` counters as walker-driven simulation, so
    trace replays are observable too.
    """
    started = time.perf_counter()
    uids = np.asarray(uids)
    if refs is not None:
        _check_uids_array(uids, refs)
    with obs.span("sim/batch"):
        # Lines from the unsigned addresses: a u64 address past 2**63
        # would wrap negative as int64 and divide to the wrong line.
        lines_t = lines_of(np.asarray(addrs), cache.line_bytes)
        miss_t, evictions = miss_kernel(
            lines_t.astype(np.int64, copy=False),
            cache.num_sets,
            cache.assoc,
            policy,
            seed,
            want_evictions=obs.is_enabled(),
        )
        if refs is not None:
            nref = max((r.uid for r in refs), default=-1) + 1
            acc, mis = _tally(uids, miss_t, nref)
            accesses = {r.uid: int(acc[r.uid]) for r in refs}
            misses = {r.uid: int(mis[r.uid]) for r in refs}
        else:
            acc = np.bincount(uids)
            mis = np.bincount(uids[miss_t], minlength=len(acc))
            present = np.flatnonzero(acc)
            accesses = {int(u): int(acc[u]) for u in present}
            misses = {int(u): int(mis[u]) for u in present}
    report = SimReport(
        cache, accesses, misses, time.perf_counter() - started, policy
    )
    _count_batch_report(report, evictions)
    return report


def simulate_hierarchy_batch(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    l1_cache: CacheConfig,
    l2_cache: CacheConfig,
    walker: Optional[Walker] = None,
    policy: str = "lru",
    l2_policy: str = "lru",
    seed: int = 0,
    miss_trace_path=None,
) -> HierarchyReport:
    """Vectorized twin of :func:`repro.sim.simulate_hierarchy`.

    The trace is built once; the L1 kernel's miss mask then *filters*
    the uid/address arrays into the L1 miss stream, which replays
    through :func:`simulate_trace_arrays` as the L2 — the array form of
    the ``RPCT`` pair stream :func:`~repro.sim.tracefile.write_trace`
    persists when ``miss_trace_path`` is given.
    """
    started = time.perf_counter()
    with obs.span("sim/decode"):
        uids_t, addrs_t = trace_arrays(nprog, layout, walker)
    with obs.span("sim/batch"):
        miss_t, evictions = miss_kernel(
            lines_of(addrs_t, l1_cache.line_bytes),
            l1_cache.num_sets,
            l1_cache.assoc,
            policy,
            seed,
            want_evictions=obs.is_enabled(),
        )
        nref = len(nprog.refs)
        acc, mis = _tally(uids_t, miss_t, nref)
    l1 = SimReport(
        l1_cache,
        {r.uid: int(acc[r.uid]) for r in nprog.refs},
        {r.uid: int(mis[r.uid]) for r in nprog.refs},
        time.perf_counter() - started,
        policy,
    )
    _count_batch_report(l1, evictions)
    uids_m = uids_t[miss_t]
    addrs_m = addrs_t[miss_t]
    if miss_trace_path is not None:
        from repro.sim import tracefile

        tracefile.write_trace(
            miss_trace_path, zip(uids_m.tolist(), addrs_m.tolist())
        )
    l2 = simulate_trace_arrays(
        uids_m, addrs_m, l2_cache, refs=nprog.refs, policy=l2_policy, seed=seed
    )
    return HierarchyReport(l1, l2)


def _check_uids_array(uids, refs: Sequence[NRef]) -> None:
    if not len(uids):
        return
    highest = int(uids.max())
    uid_list = [r.uid for r in refs]
    if highest < len(uid_list) and set(uid_list) == set(range(len(uid_list))):
        return  # contiguous uids (the normal case): the max check suffices
    known = np.zeros(highest + 1, dtype=bool)
    for r in refs:
        if r.uid <= highest:
            known[r.uid] = True
    bad = np.flatnonzero(~known[uids])
    if len(bad):
        raise InvariantError(
            f"trace names ref uid {int(uids[bad[0]])} at access {int(bad[0])} "
            f"but the program has no such reference"
        )
