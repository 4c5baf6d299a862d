"""The per-point miss classifier — the cold and replacement equations (4.1).

For a consumer reference at one iteration point, reuse vectors are tried in
increasing lexicographic order (Fig. 6).  For each vector the **cold
equations** check that the producer point lies inside the producer's RIS and
touches the *same memory line*; if either fails the point stays
indeterminate along this vector and the next one is tried.  Otherwise the
**replacement equations** decide the point: the cache line survives unless
``k`` *distinct* memory lines mapped to the same cache set between the
producer access and the consumer access (k-way LRU).  A point no vector
resolves is a **cold miss**.  Because vectors are sorted, the first vector
with valid reuse is the nearest captured earlier access to the line; any
access to the *same* line inside the window is excluded from the
contention count, so missing vectors can only widen windows and
over-estimate misses — never under-estimate (the paper's conservatism).

This module decides a reference's points in bulk, as NumPy array
arithmetic:

* the points under analysis — the full RIS for ``FindMisses``, the seeded
  sample for ``EstimateMisses``, the representatives ``RegionMisses``
  probes — become one ``(N, n)`` int64 array;
* per reuse vector, candidate producer points are one array subtraction,
  the cold equations are a batched affine-bounds/guards mask plus
  vectorized address → line arithmetic, and reuse vectors are tried in
  lexicographic order over the shrinking set of undecided points;
* once few points are left — the cold ones walk every vector — the
  remaining (point, vector) pairs are decided in one grid
  (:meth:`BatchClassifier._cold_tail`): producer-RIS containment one
  conjunct at a time, the same-line test through the address identity of
  a uniformly generated set (:class:`_ColdTable`), and the first true
  vector per point, which is the one the loop would stop at;
* the replacement equations (``k`` distinct conflicting lines inside the
  reuse window, Section 4.1.2) are answered by whichever oracle is cheaper
  for the reference's decided points: the walker's windowed walk (cost
  proportional to each window) or the
  :class:`~repro.iteration.batch.TraceIndex` (the whole trace built once
  per line size, sorted once per set count, each window a per-set slice
  found by two gathers and counted by a few hops over runs of equal
  lines).  :meth:`BatchClassifier._index_ends` prices both from the
  points and the program alone, so
  ``EstimateMisses`` builds the trace only when that is cheaper than
  walking its sample's windows.

Only the last step reads the number of sets and the associativity.
Everything before it — the points, the cold-equation decisions, the
window-oracle choice and the window ends — is a :class:`_Decisions` record
kept in the reuse table's :class:`~repro.cme.decisions.DecisionStore`
under the reference and the points' name (the whole RIS, or an
``EstimateMisses`` sample's solver parameters), so every later geometry
with the same line size replays it (``cme.decisions.shared``) and pays
for its replacement windows alone.  Those it answers for every reference
at once: before the first unit of a solve the classifier is handed every
unit's decision key (:meth:`BatchClassifier.query_windows`), and one
:meth:`~repro.iteration.batch.TraceIndex.conflicts_reach` answers all the
stored decisions whose windows end in trace times.

The tests diff this classifier against a pure-Python per-point oracle
(``tests/cme/scalar_oracle.py``): identical tallies, identical per-point
:class:`~repro.cme.result.Classification`\\ s and identical
``cme.solver.vector_trials`` accounting.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.polyhedra.batch import enumerate_points_array
from repro.polyhedra.constraints import EQ
from repro.iteration.batch import LineTrace, TraceIndex
from repro.iteration.position import interleave, subtract
from repro.iteration.walker import Walker
from repro.polyhedra.space import BoundedSpace
from repro.sim.batch import TracePlan, narrow_lines
from repro.reuse.generator import ReuseTable
from repro.cme.decisions import DecisionStore
from repro.errors import InvariantError
from repro.cme.result import Classification, Outcome, RefResult

#: Walker cost per window access and per point, in units of one trace
#: access of :class:`TraceIndex` build (measured: 25 ns, 10 µs, 130 ns; see
#: DESIGN.md, "Window-strategy rule").
_WALK_ACCESS = 0.2
_WALK_POINT = 75.0

#: Once at most this many points are undecided, and more than
#: :data:`_TAIL_VECTORS` vectors are left, the cold equations decide every
#: remaining (point, vector) pair in one grid instead of vector by vector.
_TAIL = 256
_TAIL_VECTORS = 4


class _BatchRIS:
    """Vectorized membership test for a reference iteration space: its
    :meth:`~repro.polyhedra.space.BoundedSpace.conjunct_rows` as the
    inequalities ``rows·i >= bounds`` (an equality is two).

    Conjuncts are evaluated as ``(rows, N)`` so the conjunction reduces
    over the outer axis, which NumPy does far faster than over a short
    inner one.
    """

    __slots__ = ("rows", "bounds")

    def __init__(self, space: BoundedSpace):
        rows, bounds = [], []
        for row, c, kind in space.conjunct_rows():
            rows.append(row)
            bounds.append(-c)
            if kind == EQ:
                rows.append([-v for v in row])
                bounds.append(c)
        self.rows = np.array(rows, dtype=np.int64).reshape(
            len(rows), space.ndim
        )
        self.bounds = np.array(bounds, dtype=np.int64)

    def contains(self, points: "np.ndarray") -> "np.ndarray":
        return np.all(self.rows @ points.T >= self.bounds[:, None], axis=0)


class _ColdTable(NamedTuple):
    """Reuse vectors as arrays for the batch cold equations, for one
    reference (:meth:`BatchClassifier._cold_table`, a slice) or for the
    whole reuse table, row for row (geometry-free, so kept once per
    layout in the reuse table's derived facts).

    Vector ``j`` moves a consumer point ``p`` to the producer point
    ``p − shifts[j]`` of the reference ``producers[j]`` (at ``lexpos[j]``
    in its leaf ``nprog.leaves[leaves[j]]``).  Its producer accesses the
    byte ``addr_c(p) + offsets[j]`` there: a reuse vector pairs
    references of one uniformly generated set, which share the address
    row, so ``addr_p(p − s) = addr_c(p) − row·s + (c_p − c_c)``.
    """

    shifts: "np.ndarray"
    offsets: "np.ndarray"
    producers: "np.ndarray"
    lexpos: "np.ndarray"
    leaves: "np.ndarray"


class _ProgramRows(NamedTuple):
    """Every reference's byte address ``addr_rows[uid]·p +
    addr_consts[uid]``, and every leaf's RIS (``leaf_index[id(leaf)]``) as
    inequalities ``ineq_rows[leaf, r]·p >= ineq_bounds[leaf, r]``, padded
    with ``0 >= 0`` to one width; kept per layout."""

    addr_rows: "np.ndarray"
    addr_consts: "np.ndarray"
    leaf_index: dict
    ineq_rows: "np.ndarray"
    ineq_bounds: "np.ndarray"


class _Decisions(NamedTuple):
    """What the replacement equations of one reference read — all of it
    independent of the number of sets and the associativity (a
    :class:`~repro.cme.decisions.DecisionStore` entry).

    ``count`` points were classified with ``trials`` reuse-vector trials;
    the decided ones reuse the memory ``lines``.  Their windows are the
    trace-time ``ends`` ``(t_producer, t_consumer)`` when the trace index
    pays, else walked from the ``consumers`` points and the index ``via``
    of each one's deciding vector.
    """

    count: int
    trials: int
    lines: "np.ndarray"
    ends: Optional[tuple["np.ndarray", "np.ndarray"]]
    consumers: Optional["np.ndarray"]
    via: Optional["np.ndarray"]

    @property
    def nbytes(self) -> int:
        arrays = (self.lines, self.consumers, self.via) + (self.ends or ())
        return sum(a.nbytes for a in arrays if a is not None)


class BatchClassifier:
    """Classifies the iteration points of references as hit/cold/replacement.

    Everything it derives without reading the number of sets or the
    associativity lives in :attr:`store`, shared by every classifier of
    the same reuse table, layout and line size.
    """

    def __init__(
        self,
        nprog: NormalizedProgram,
        layout: MemoryLayout,
        cache: CacheConfig,
        reuse: ReuseTable,
        walker: Optional[Walker] = None,
    ):
        self.nprog = nprog
        self.layout = layout
        self.cache = cache
        self.reuse = reuse
        self.walker = walker if walker is not None else Walker(nprog, layout)
        self._line_bytes = cache.line_bytes
        self._num_sets = cache.num_sets
        self._assoc = cache.assoc
        #: Each leaf's RIS, in ``nprog.leaves`` order.
        self._ris = [_BatchRIS(nprog.ris(leaf)) for leaf in nprog.leaves]
        self._facts = reuse.derived((layout, cache.line_bytes))
        #: Geometry-free samples, decisions and traces (shared).
        self.store: DecisionStore = self._facts.get("decisions")
        if self.store is None:
            self.store = self._facts.setdefault("decisions", DecisionStore())
        self._lines: Optional[LineTrace] = None
        self._trace: Optional[TraceIndex] = None
        #: The line trace and index :meth:`query_windows` built, published
        #: to the store where a unit would have built them.
        self._unpublished: dict = {}
        #: Replacement outcomes :meth:`query_windows` found, by decision
        #: key; each unit takes its own.
        self._answers: dict = {}
        #: Reuse vectors tried since the last drain — the CME "solver
        #: iterations" metric, drained in bulk per reference so the hot
        #: path never touches the metrics registry.
        self.vector_trials = 0
        #: Decided points whose windows the trace index / the walker
        #: answered since the last drain (the ``cme.window.*`` counters).
        self.trace_points = 0
        self.walk_points = 0

    def drain_vector_trials(self) -> int:
        """Return and reset the accumulated reuse-vector trial count."""
        n = self.vector_trials
        self.vector_trials = 0
        return n

    def drain_window_counts(self) -> tuple[int, int]:
        """Return and reset ``(trace_points, walk_points)``."""
        counts = (self.trace_points, self.walk_points)
        self.trace_points = 0
        self.walk_points = 0
        return counts

    # -- classification -----------------------------------------------------------

    def tally_ref(
        self,
        ref: NRef,
        result: RefResult,
        points: Optional[Sequence[Sequence[int]]] = None,
        key: Optional[tuple] = None,
    ) -> None:
        """Classify a reference in bulk, accumulating into ``result``.

        ``points=None`` means "the full RIS" (``FindMisses``); an explicit
        ``points`` sequence is an ``EstimateMisses`` sample or a
        ``RegionMisses`` exact fallback.  Either way the window oracle is
        chosen by cost (:meth:`_index_ends`), from these points alone.
        ``key`` names explicit points by what determines them (the
        sample's solver parameters), so their decisions are kept in
        :attr:`store` and replayed by the next geometry; without it only
        the full RIS is kept.
        """
        key = self.decision_key(ref, points, key)
        decisions = self._decisions(ref, points, key)
        evicted = self._evicted(ref, decisions, key)
        self.vector_trials += decisions.trials
        replaced = int(np.count_nonzero(evicted))
        result.analysed += decisions.count
        result.hits += len(evicted) - replaced
        result.cold += decisions.count - len(evicted)
        result.replacement += replaced

    def decision_key(
        self,
        ref: NRef,
        points: Optional[Sequence[Sequence[int]]] = None,
        name: Optional[tuple] = None,
    ) -> Optional[tuple]:
        """The store key of ``ref``'s decisions over ``points`` (``None``:
        the whole RIS) that ``name`` names, with the trace budget's
        verdict, which the window-oracle choice reads; ``None`` for
        unnamed explicit points, which are not kept."""
        if points is None:
            name = (ref.uid,)
        elif name is None:
            return None
        return ("decisions", self.plan().materialisable) + name

    def query_windows(self, keys: Sequence[Optional[tuple]]) -> None:
        """Answer, in one :meth:`TraceIndex.conflicts_reach`, the windows of
        every decision stored under ``keys`` (``None`` entries skipped)
        that ends in trace times.

        A solve passes every unit's key before the first unit runs; a unit
        whose decisions were answered here takes its outcomes instead of
        querying the index alone.  The store is only peeked and the index
        only published where a unit would, so the store evolves as it does
        without this call; outcomes depend on the key and the geometry
        alone, so a unit that recomputes evicted decisions still takes
        its own.
        """
        self._answers = {}
        found = {}
        for key in keys:
            decisions = None if key is None else self.store.peek(key)
            if decisions is not None and decisions.ends is not None:
                found[key] = decisions
        if len(found) < 2:  # one query per reference anyway
            return
        with obs.span("cme/window"):
            t_lo, t_hi = (
                np.concatenate(ends)
                for ends in zip(*(d.ends for d in found.values()))
            )
            lines = np.concatenate([d.lines for d in found.values()])
            evicted = self._index_unpublished().conflicts_reach(
                t_lo, t_hi, lines, self._assoc
            )
        cuts = np.cumsum([len(d.lines) for d in found.values()])[:-1]
        self._answers = dict(zip(found, np.split(evicted, cuts)))

    def classify_points(
        self, ref: NRef, points: Sequence[Sequence[int]]
    ) -> list[Classification]:
        """One :class:`Classification` per point: the outcome and the
        deciding reuse vector.

        ``RegionMisses`` probes its representatives through this call.
        Windows are walked, so it never builds the trace index, and they
        are not counted in ``cme.window.*``.
        """
        pts = self._points_array(ref, points)
        via, _, lines_c, trials = self._cold(ref, pts)
        self.vector_trials += trials
        decided = np.flatnonzero(via >= 0)
        via = via[decided]
        evicted = self._walk(ref, pts[decided], via, lines_c[decided])
        vectors = self.reuse.vectors_for(ref)
        found = [Classification(Outcome.COLD)] * len(pts)
        for i, j, e in zip(decided.tolist(), via.tolist(), evicted.tolist()):
            outcome = Outcome.REPLACEMENT if e else Outcome.HIT
            found[i] = Classification(outcome, vectors[j])
        return found

    # -- internals -----------------------------------------------------------------

    def _points_array(
        self, ref: NRef, points: Optional[Sequence[Sequence[int]]]
    ) -> "np.ndarray":
        if points is None:
            return enumerate_points_array(self.nprog.ris(ref.leaf))
        return np.asarray(points, dtype=np.int64).reshape(
            len(points), self.nprog.depth
        )

    def _program_rows(self) -> _ProgramRows:
        found = self._facts.get("rows")
        if found is not None:
            return found
        depth = self.nprog.depth
        addr_rows = np.zeros((len(self.nprog.refs), depth), dtype=np.int64)
        addr_consts = np.zeros(len(self.nprog.refs), dtype=np.int64)
        for ref in self.nprog.refs:
            compiled = self.walker.compiled_ref(ref).addr
            for d, coeff in compiled.terms:
                addr_rows[ref.uid, d] = coeff
            addr_consts[ref.uid] = compiled.const
        # Every leaf's _BatchRIS inequalities, padded to one width.
        leaves = self.nprog.leaves
        spaces = self._ris
        width = max([1, *(len(ris.bounds) for ris in spaces)])
        ineq_rows = np.zeros((len(leaves), width, depth), dtype=np.int64)
        ineq_bounds = np.zeros((len(leaves), width), dtype=np.int64)
        for i, ris in enumerate(spaces):
            ineq_rows[i, : len(ris.bounds)] = ris.rows
            ineq_bounds[i, : len(ris.bounds)] = ris.bounds
        leaf_index = {id(leaf): i for i, leaf in enumerate(leaves)}
        found = _ProgramRows(
            addr_rows, addr_consts, leaf_index, ineq_rows, ineq_bounds
        )
        return self._facts.setdefault("rows", found)

    def _address(self, uid: int, pts: "np.ndarray") -> "np.ndarray":
        """The byte address the reference ``uid`` accesses at every row of
        ``pts``."""
        rows = self._program_rows()
        return pts @ rows.addr_rows[uid] + rows.addr_consts[uid]

    def _cold_table(self, ref: NRef) -> _ColdTable:
        """The reference's :class:`_ColdTable`: its rows of the table-wide
        one."""
        whole = self._facts.get("cold")
        if whole is None:
            whole = self._facts.setdefault("cold", self._cold_rows())
        rows = self.reuse.rows(ref)
        return _ColdTable(*(column[rows] for column in whole))

    def _cold_rows(self) -> _ColdTable:
        """The :class:`_ColdTable` of every row of the reuse table, in one
        pass per layout."""
        addr_rows, addr_consts, leaf_index, _, _ = self._program_rows()
        reuse, refs = self.reuse, self.nprog.refs
        consumers, producers = reuse.consumers(), reuse.producers
        shifts = np.ascontiguousarray(reuse.vecs[:, 1::2])
        row = addr_rows[consumers]
        mixed = np.flatnonzero((addr_rows[producers] != row).any(axis=1))
        if len(mixed):
            raise InvariantError(
                f"a reuse vector of {refs[consumers[mixed[0]]]} pairs it "
                "with a reference of another address row"
            )
        offsets = (
            addr_consts[producers] - addr_consts[consumers]
            - np.einsum("ij,ij->i", shifts, row)
        )
        lexpos = np.array([r.lexpos for r in refs], dtype=np.int64)
        leaves = np.array([leaf_index[id(r.leaf)] for r in refs], dtype=np.intp)
        return _ColdTable(
            shifts, offsets, producers, lexpos[producers], leaves[producers]
        )

    def plan(self) -> TracePlan:
        """The program's trace plan, shared by every geometry with this
        line size; its :attr:`~TracePlan.materialisable` verdict gates
        every solver step that materialises points or accesses."""
        plan = self._facts.get("plan")
        if plan is None:
            plan = self._facts.setdefault("plan", TracePlan(self.nprog))
        return plan

    def _line_trace(self) -> LineTrace:
        if self._lines is None:
            lines = self.store.get(("trace",))
            if lines is None:
                lines = self._unpublished.pop(("trace",), None)
                if lines is None:
                    lines = LineTrace(
                        self.nprog, self.walker, self._line_bytes, self.plan()
                    )
                lines = self.store.put(("trace",), lines, lines.nbytes)
            self._lines = lines
        return self._lines

    def _trace_index(self) -> TraceIndex:
        if self._trace is None:
            key = ("index", self._num_sets)
            index = self.store.get(key)
            if index is None:
                lines = self._line_trace()
                index = self._unpublished.pop(key, None)
                if index is None:
                    index = self._build_index(lines)
                index = self.store.put(key, index, index.nbytes)
            self._trace = index
        return self._trace

    def _index_unpublished(self) -> TraceIndex:
        """The trace index, found or built without touching the store's
        contents or recency; :meth:`_trace_index` publishes it later."""
        key = ("index", self._num_sets)
        index = self._trace if self._trace is not None else self._peek(key)
        if index is None:
            lines = self._lines
            if lines is None:
                lines = self._peek(("trace",))
            if lines is None:
                lines = self._unpublished["trace",] = LineTrace(
                    self.nprog, self.walker, self._line_bytes, self.plan()
                )
            index = self._unpublished[key] = self._build_index(lines)
        return index

    def _peek(self, key: tuple):
        """The store's entry under ``key``, or the one set aside."""
        entry = self.store.peek(key)
        return self._unpublished.get(key) if entry is None else entry

    def _build_index(self, lines: LineTrace) -> TraceIndex:
        with obs.span("cme/batch/trace_index"):
            return TraceIndex(
                self.nprog, self.walker, self._line_bytes, self._num_sets,
                lines,
            )

    def _decisions(
        self,
        ref: NRef,
        points: Optional[Sequence[Sequence[int]]],
        key: Optional[tuple],
    ) -> _Decisions:
        """The reference's :class:`_Decisions`, replayed from the store
        when an earlier classifier (another geometry) made them; kept
        under the store key ``key`` unless it is ``None``."""
        if key is not None:
            decisions = self.store.get(key)
            if decisions is not None:
                obs.counter("cme.decisions.shared").inc()
                return decisions
        pts = self._points_array(ref, points)
        via, producer_pts, lines_c, trials = self._cold(ref, pts)
        decided = np.flatnonzero(via >= 0)
        consumers, via = pts[decided], via[decided]
        ends = None
        if len(decided):
            ends = self._index_ends(ref, via, producer_pts[decided], consumers)
        if ends is not None:
            consumers = via = None
        decisions = _Decisions(
            len(pts), trials, narrow_lines(lines_c[decided]), ends, consumers,
            via,
        )
        if key is not None:
            decisions = self.store.put(key, decisions, decisions.nbytes)
        return decisions

    def _index_ends(
        self,
        ref: NRef,
        via: "np.ndarray",
        producers: "np.ndarray",
        consumers: "np.ndarray",
    ) -> Optional[tuple["np.ndarray", "np.ndarray"]]:
        """The decided points' window ends in trace times when walking
        their windows costs more than this reference's share of the index
        build (trace length / references; the index is built once and
        serves them all), else ``None``: walk.  Depends on the points and
        the program only — never on whether the index already exists — so
        offline and daemon runs choose alike.

        Window lengths are read in box times (:meth:`TracePlan.times`).
        A producer's box time is ``p·strides + base + lexpos`` of its
        leaf and reference, so every decided point's is one row product
        with its deciding vector's leaf strides plus that vector's
        offset, gathered by ``via`` from the plan's per-leaf table: the
        same integers :meth:`TracePlan.times` computes per producer.
        """
        plan = self.plan()
        if not plan.materialisable:  # TraceIndex would raise TraceTooLargeError
            return None
        table = self._cold_table(ref)
        leaves = table.leaves[via]
        t_producer = np.einsum(
            "ij,ij->i", producers, plan.leaf_strides[leaves]
        ) + (plan.leaf_bases[leaves] + table.lexpos[via])
        t_consumer = plan.times(ref, consumers)
        windows = float((t_consumer - t_producer).sum(dtype=np.float64))
        walk = _WALK_ACCESS * windows + _WALK_POINT * len(consumers)
        if walk * len(self.nprog.refs) < plan.total:
            return None
        if not plan.rectangular:  # box times are not trace times
            times = self._line_trace().times
            t_producer, t_consumer = times(t_producer), times(t_consumer)
        # The trace budget keeps trace times below 2³¹.
        return t_producer.astype(np.int32), t_consumer.astype(np.int32)

    def _cold(self, ref: NRef, pts: "np.ndarray") -> tuple:
        """The batch cold equations over one point array.

        Returns ``(via, producer_pts, lines_c, trials)``: per point the
        index of the deciding reuse vector (-1 = cold, no vector decided)
        and the producer point it found, the consumer's memory line, and
        the reuse-vector trials spent.

        Vectors are tried in lexicographic order over the shrinking
        undecided set, each one subtraction and one mask.  Most points
        are decided by their first few vectors; the few left (cold ones
        walk every vector) are decided by :meth:`_cold_tail` in one grid.
        """
        n_points = len(pts)
        table = self._cold_table(ref)
        n_vectors = len(table.shifts)
        via = np.full(n_points, -1, dtype=np.int64)
        producer_pts = np.zeros_like(pts)
        addr_c = self._address(ref.uid, pts)
        lines_c = addr_c // self._line_bytes
        undecided = np.arange(n_points, dtype=np.int64)
        trials = 0
        leaves = table.leaves.tolist()
        producers = table.producers.tolist()
        tail = n_vectors
        for j in range(n_vectors):
            if not len(undecided):
                break
            if len(undecided) <= _TAIL and n_vectors - j > _TAIL_VECTORS:
                tail = j
                break
            candidates = pts[undecided] - table.shifts[j]
            inside = self._ris[leaves[j]].contains(candidates)
            if not inside.any():
                continue
            addr_p = self._address(producers[j], candidates[inside])
            same_line = (addr_p // self._line_bytes) == lines_c[undecided][inside]
            rows = np.flatnonzero(inside)[same_line]
            if not len(rows):
                continue
            decided = undecided[rows]
            via[decided] = j
            producer_pts[decided] = candidates[rows]
            trials += (j + 1) * len(decided)
            keep = np.ones(len(undecided), dtype=bool)
            keep[rows] = False
            undecided = undecided[keep]
        if tail < n_vectors:
            rows, deciding = self._cold_tail(
                table, tail, pts[undecided], addr_c[undecided],
                lines_c[undecided],
            )
            decided = undecided[rows]
            via[decided] = deciding
            producer_pts[decided] = pts[decided] - table.shifts[deciding]
            trials += int(deciding.sum()) + len(decided)
            keep = np.ones(len(undecided), dtype=bool)
            keep[rows] = False
            undecided = undecided[keep]
        trials += len(undecided) * n_vectors
        return via, producer_pts, lines_c, trials

    def _cold_tail(
        self,
        table: _ColdTable,
        first: int,
        pts: "np.ndarray",
        addr: "np.ndarray",
        lines: "np.ndarray",
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """The cold equations of vectors ``first…`` on every point at once.

        Returns ``(rows, via)``: the points some vector decides and, per
        such point, the first one that does — the vector the per-vector
        loop would stop at.  The producer RIS holds ``p − s`` iff
        ``row·p >= bound + row·s`` for each of its inequalities (zero rows
        pad shorter lists with ``0 >= 0``): one ``(points, vectors)``
        comparison per conjunct, ANDed into the grid, the largest
        temporary.  The products ``row·p`` are taken once per distinct
        producer leaf and gathered per vector.
        """
        *_, ineq_rows, ineq_bounds = self._program_rows()
        shifts, leaves = table.shifts[first:], table.leaves[first:]
        used, local = np.unique(leaves, return_inverse=True)
        floors = ineq_bounds[leaves] + (
            ineq_rows[leaves] @ shifts[:, :, None]
        )[:, :, 0]
        conjuncts = ineq_rows[used]
        producer_lines = (
            addr[:, None] + table.offsets[first:]
        ) // self._line_bytes
        grid = producer_lines == lines[:, None]
        for r in range(floors.shape[1]):
            grid &= (pts @ conjuncts[:, r].T)[:, local] >= floors[:, r]
        rows = np.flatnonzero(grid.any(axis=1))
        return rows, first + grid[rows].argmax(axis=1)

    def _evicted(
        self, ref: NRef, decisions: _Decisions, key: Optional[tuple]
    ) -> "np.ndarray":
        """Replacement equations for the decided points: evicted or not —
        the only step that reads the number of sets and the associativity.
        Outcomes :meth:`query_windows` found under ``key`` are taken as
        they are."""
        if not len(decisions.lines):
            return np.zeros(0, dtype=bool)
        with obs.span("cme/window"):
            if decisions.ends is not None:
                self.trace_points += len(decisions.lines)
                index = self._trace_index()
                evicted = self._answers.pop(key, None)
                if evicted is None:
                    evicted = index.conflicts_reach(
                        *decisions.ends, decisions.lines, self._assoc
                    )
                return evicted
            self.walk_points += len(decisions.lines)
            return self._walk(
                ref, decisions.consumers, decisions.via, decisions.lines
            )

    def _walk(
        self,
        ref: NRef,
        consumers: "np.ndarray",
        via: "np.ndarray",
        lines: "np.ndarray",
    ) -> "np.ndarray":
        """The replacement windows of decided points, walked one by one."""
        rows = self.reuse.rows(ref)
        vecs = self.reuse.vecs[rows].tolist()
        lexpos = self._cold_table(ref).lexpos.tolist()
        walker = self.walker
        evicted = np.empty(len(lines), dtype=bool)
        for i, (point, j, line_c) in enumerate(
            zip(consumers.tolist(), via.tolist(), lines.tolist())
        ):
            ivec_c = interleave(ref.label, tuple(point))
            ivec_p = subtract(ivec_c, vecs[j])
            evicted[i] = walker.distinct_conflicts_reach(
                (ivec_p, lexpos[j]),
                (ivec_c, ref.lexpos),
                line_c % self._num_sets,
                line_c,
                self._assoc,
                self._line_bytes,
                self._num_sets,
            )
        return evicted
