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
for its replacement windows alone.

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
from repro.sim.batch import TracePlan
from repro.reuse.generator import ReuseTable
from repro.cme.decisions import DecisionStore
from repro.cme.result import Classification, Outcome, RefResult

#: Walker cost per window access and per point, in units of one trace
#: access of :class:`TraceIndex` build (measured: 25 ns, 10 µs, 130 ns; see
#: DESIGN.md, "Window-strategy rule").
_WALK_ACCESS = 0.2
_WALK_POINT = 75.0


class _BatchRIS:
    """Vectorized membership test for a reference iteration space: its
    :meth:`~repro.polyhedra.space.BoundedSpace.conjunct_rows` as two
    matrices, ``row·i >= -const`` and ``row·i == -const``.

    Conjuncts are evaluated as ``(rows, N)`` so the conjunction reduces
    over the outer axis, which NumPy does far faster than over a short
    inner one.
    """

    __slots__ = ("ge", "ge_bound", "eq", "eq_bound")

    def __init__(self, space: BoundedSpace):
        conjuncts = space.conjunct_rows()

        def stack(eq: bool) -> tuple["np.ndarray", "np.ndarray"]:
            picked = [(r, c) for r, c, kind in conjuncts if (kind == EQ) == eq]
            rows = np.array([r for r, _ in picked], dtype=np.int64)
            bound = np.array([[-c] for _, c in picked], dtype=np.int64)
            return rows.reshape(len(picked), space.ndim), bound

        self.ge, self.ge_bound = stack(False)
        self.eq, self.eq_bound = stack(True)

    def contains(self, points: "np.ndarray") -> "np.ndarray":
        mask = np.all(self.ge @ points.T >= self.ge_bound, axis=0)
        if len(self.eq_bound):
            mask &= np.all(self.eq @ points.T == self.eq_bound, axis=0)
        return mask


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
        self._ris = {
            id(leaf): _BatchRIS(nprog.ris(leaf)) for leaf in nprog.leaves
        }
        self._addr: dict[int, tuple] = {}  # ref.uid -> (address row, const)
        self._facts = reuse.derived((layout, cache.line_bytes))
        #: Geometry-free samples, decisions and traces (shared).
        self.store: DecisionStore = self._facts.get("decisions")
        if self.store is None:
            self.store = self._facts.setdefault("decisions", DecisionStore())
        self._lines: Optional[LineTrace] = None
        self._trace: Optional[TraceIndex] = None
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
        decisions = self._decisions(ref, points, key)
        evicted = self._evicted(ref, decisions)
        self.vector_trials += decisions.trials
        replaced = int(np.count_nonzero(evicted))
        result.analysed += decisions.count
        result.hits += len(evicted) - replaced
        result.cold += decisions.count - len(evicted)
        result.replacement += replaced

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

    def _address(self, ref: NRef, pts: "np.ndarray") -> "np.ndarray":
        """The byte address ``ref`` accesses at every row of ``pts``."""
        addr = self._addr.get(ref.uid)
        if addr is None:
            compiled = self.walker.compiled_ref(ref).addr
            row = np.zeros(self.nprog.depth, dtype=np.int64)
            for d, coeff in compiled.terms:
                row[d] = coeff
            addr = self._addr[ref.uid] = (row, np.int64(compiled.const))
        row, const = addr
        return pts @ row + const

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
                with obs.span("cme/batch/trace_index"):
                    index = TraceIndex(
                        self.nprog, self.walker, self._line_bytes,
                        self._num_sets, self._line_trace(),
                    )
                index = self.store.put(key, index, index.nbytes)
            self._trace = index
        return self._trace

    def _decisions(
        self,
        ref: NRef,
        points: Optional[Sequence[Sequence[int]]],
        key: Optional[tuple],
    ) -> _Decisions:
        """The reference's :class:`_Decisions`, replayed from the store
        when an earlier classifier (another geometry) made them.

        Entries are keyed by the points' name and the trace budget's
        verdict, which the window-oracle choice reads.
        """
        if points is None:
            key = (ref.uid,)
        if key is not None:
            key = ("decisions", self.plan().materialisable) + key
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
            len(pts), trials, lines_c[decided], ends, consumers, via
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
        offline and daemon runs choose alike."""
        plan = self.plan()
        if not plan.materialisable:  # TraceIndex would raise TraceTooLargeError
            return None
        vectors = self.reuse.vectors_for(ref)
        t_producer = np.empty(len(consumers), dtype=np.int64)
        # One pass groups the points by deciding vector: sort, then split.
        order = np.argsort(via, kind="stable")
        cuts = np.flatnonzero(np.diff(via[order])) + 1
        for group in np.split(order, cuts):
            producer = vectors[int(via[group[0]])].producer
            t_producer[group] = plan.times(producer, producers[group])
        t_consumer = plan.times(ref, consumers)
        windows = float((t_consumer - t_producer).sum(dtype=np.float64))
        walk = _WALK_ACCESS * windows + _WALK_POINT * len(consumers)
        if walk * len(self.nprog.refs) < plan.total:
            return None
        if plan.rectangular:  # box times are trace times
            return t_producer, t_consumer
        times = self._line_trace().times
        return times(t_producer), times(t_consumer)

    def _cold(self, ref: NRef, pts: "np.ndarray") -> tuple:
        """The batch cold equations over one point array.

        Returns ``(via, producer_pts, lines_c, trials)``: per point the
        index of the deciding reuse vector (-1 = cold, no vector decided)
        and the producer point it found, the consumer's memory line, and
        the reuse-vector trials spent.
        """
        n_points = len(pts)
        vectors = self.reuse.vectors_for(ref)
        via = np.full(n_points, -1, dtype=np.int64)
        producer_pts = np.zeros_like(pts)
        lines_c = self._address(ref, pts) // self._line_bytes
        undecided = np.arange(n_points, dtype=np.int64)
        trials = 0
        # Vector by vector in lexicographic order over the shrinking
        # undecided set: each vector is one subtraction + one mask.
        for j, rv in enumerate(vectors):
            if not len(undecided):
                break
            shift = np.asarray(rv.vec[1::2], dtype=np.int64)
            candidates = pts[undecided] - shift
            inside = self._ris[id(rv.producer.leaf)].contains(candidates)
            if not inside.any():
                continue
            addr_p = self._address(rv.producer, candidates[inside])
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
        trials += len(undecided) * len(vectors)
        return via, producer_pts, lines_c, trials

    def _evicted(self, ref: NRef, decisions: _Decisions) -> "np.ndarray":
        """Replacement equations for the decided points: evicted or not —
        the only step that reads the number of sets and the associativity."""
        if not len(decisions.lines):
            return np.zeros(0, dtype=bool)
        with obs.span("cme/window"):
            if decisions.ends is not None:
                self.trace_points += len(decisions.lines)
                return self._trace_index().conflicts_reach(
                    *decisions.ends, decisions.lines, self._assoc
                )
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
        vectors = self.reuse.vectors_for(ref)
        walker = self.walker
        evicted = np.empty(len(lines), dtype=bool)
        for i, (point, j, line_c) in enumerate(
            zip(consumers.tolist(), via.tolist(), lines.tolist())
        ):
            rv = vectors[j]
            ivec_c = interleave(ref.label, tuple(point))
            ivec_p = subtract(ivec_c, rv.vec)
            evicted[i] = walker.distinct_conflicts_reach(
                (ivec_p, rv.producer.lexpos),
                (ivec_c, ref.lexpos),
                line_c % self._num_sets,
                line_c,
                self._assoc,
                self._line_bytes,
                self._num_sets,
            )
        return evicted
