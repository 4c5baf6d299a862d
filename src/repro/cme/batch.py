"""The vectorized NumPy classifier (batch CME solving).

The scalar :class:`~repro.cme.point.PointClassifier` decides one iteration
point at a time.  This module decides a reference's points in bulk, with the
same cold/replacement machinery expressed as array arithmetic:

* the points under analysis — the full RIS for ``FindMisses``, the seeded
  sample for ``EstimateMisses`` — become one ``(N, n)`` int64 array;
* per reuse vector, candidate producer points are one array subtraction,
  the cold equations (producer inside its RIS, same memory line) are a
  batched affine-bounds/guards mask plus vectorized address → line
  arithmetic, and reuse vectors are still tried in increasing lexicographic
  order over the shrinking set of undecided points — so each point is
  decided by exactly the vector the scalar classifier would pick;
* the replacement equations (``k`` distinct conflicting lines inside the
  reuse window, Section 4.1.2) are answered by whichever oracle is cheaper
  for the reference's decided points: the scalar walker's windowed walk
  (cost proportional to each window) or the
  :class:`~repro.iteration.batch.TraceIndex` (the whole trace built once
  per line size, sorted once per set count, each window a per-set slice
  with a vectorized distinct count).  :meth:`BatchClassifier._index_ends`
  prices both from the points and the program alone, so
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

The contract is **bit identity** with the scalar classifier: identical
tallies, identical per-point :class:`~repro.cme.point.Classification`\\ s,
identical ``cme.solver.vector_trials`` accounting.  Any reference the
vectorized path cannot handle is classified point-by-point by the embedded
scalar classifier instead (counted in ``cme.backend.fallback_points``), so
falling back changes speed, never results.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NLeaf, NormalizedProgram, NRef
from repro.polyhedra.batch import enumerate_points_array
from repro.polyhedra.constraints import EQ
from repro.iteration.batch import BatchAffine, LineTrace, TraceIndex
from repro.iteration.position import interleave, subtract
from repro.iteration.walker import Walker, compile_affine
from repro.sim.batch import TracePlan
from repro.reuse.generator import ReuseTable
from repro.cme.decisions import DecisionStore
from repro.cme.point import Classification, Outcome, PointClassifier, tally_points
from repro.cme.result import RefResult

#: Outcome codes of the batch pipeline (values of the ``outcomes`` arrays).
_HIT, _COLD, _REPLACEMENT = 0, 1, 2

_OUTCOME_OF = {_HIT: Outcome.HIT, _COLD: Outcome.COLD, _REPLACEMENT: Outcome.REPLACEMENT}

#: Walker cost per window access and per point, in units of one trace
#: access of :class:`TraceIndex` build (measured: 25 ns, 10 µs, 130 ns; see
#: DESIGN.md, "Window-strategy rule").
_WALK_ACCESS = 0.2
_WALK_POINT = 75.0


class _BatchUnsupported(Exception):
    """Internal: this reference cannot go through the vectorized path."""


class _BatchRIS:
    """Vectorized membership test for a reference iteration space.

    The batched twin of :class:`repro.cme.point._CompiledRIS`: per-dimension
    affine bound pairs as two stacked coefficient matrices plus the leaf's
    guard constraints, agreeing entry-for-entry with the scalar test.
    """

    __slots__ = ("lower", "upper", "guards")

    def __init__(self, nprog: NormalizedProgram, leaf: NLeaf):
        n = nprog.depth
        loops = nprog.loops_on_path(leaf.label)
        self.lower = BatchAffine([compile_affine(l.lower, n) for l in loops], n)
        self.upper = BatchAffine([compile_affine(l.upper, n) for l in loops], n)
        self.guards = tuple(
            (c.kind == EQ, BatchAffine([compile_affine(c.expr, n)], n))
            for c in leaf.guard
        )

    def contains(self, points: "np.ndarray") -> "np.ndarray":
        mask = np.all(
            (points >= self.lower.eval(points))
            & (points <= self.upper.eval(points)),
            axis=1,
        )
        for is_eq, aff in self.guards:
            value = aff.eval_single(points)
            mask &= (value == 0) if is_eq else (value >= 0)
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
    """Batch (NumPy) classifier with the scalar classifier's exact semantics.

    Drop-in replacement for :class:`~repro.cme.point.PointClassifier` in the
    solvers: exposes the same :meth:`classify` /
    :meth:`drain_vector_trials` surface, plus the bulk entry point
    :meth:`tally_ref` the solvers prefer when present.

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
        #: Embedded scalar classifier: the fallback path *and* the single
        #: owner of the ``vector_trials`` accumulator, so trial accounting
        #: is one counter no matter which path decided a point.
        self.scalar = PointClassifier(nprog, layout, cache, reuse, walker)
        self.nprog = nprog
        self.layout = layout
        self.cache = cache
        self.reuse = reuse
        self.walker = self.scalar.walker
        self._line_bytes = cache.line_bytes
        self._num_sets = cache.num_sets
        self._assoc = cache.assoc
        self._ris = {
            id(leaf): _BatchRIS(nprog, leaf) for leaf in nprog.leaves
        }
        self._addr: dict[int, BatchAffine] = {}  # ref.uid -> address matrix
        self._facts = reuse.derived((layout, cache.line_bytes))
        #: Geometry-free samples, decisions and traces (shared).
        self.store: DecisionStore = self._facts.get("decisions")
        if self.store is None:
            self.store = self._facts.setdefault("decisions", DecisionStore())
        self._lines: Optional[LineTrace] = None
        self._trace: Optional[TraceIndex] = None
        #: Points decided by the vectorized path / by scalar fallback since
        #: the last drain (the ``cme.backend.*`` counters).
        self.vectorized_points = 0
        self.fallback_points = 0
        #: Decided points whose windows the trace index / the walker
        #: answered since the last drain (the ``cme.window.*`` counters).
        self.trace_points = 0
        self.walk_points = 0

    # -- scalar-compatible surface ---------------------------------------------

    def classify(self, ref: NRef, point: Sequence[int]) -> Classification:
        """Classify a single point (delegates to the scalar machinery)."""
        return self.scalar.classify(ref, point)

    def drain_vector_trials(self) -> int:
        """Return and reset the accumulated reuse-vector trial count."""
        return self.scalar.drain_vector_trials()

    def drain_backend_counts(self) -> tuple[int, int]:
        """Return and reset ``(vectorized_points, fallback_points)``."""
        counts = (self.vectorized_points, self.fallback_points)
        self.vectorized_points = 0
        self.fallback_points = 0
        return counts

    def drain_window_counts(self) -> tuple[int, int]:
        """Return and reset ``(trace_points, walk_points)``."""
        counts = (self.trace_points, self.walk_points)
        self.trace_points = 0
        self.walk_points = 0
        return counts

    # -- bulk classification ------------------------------------------------------

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
        try:
            decisions = self._decisions(ref, points, key)
        except _BatchUnsupported:
            self._tally_scalar(ref, result, points)
            return
        evicted = self._evicted(ref, decisions)
        self.scalar.vector_trials += decisions.trials
        self.vectorized_points += decisions.count
        replaced = int(np.count_nonzero(evicted))
        result.analysed += decisions.count
        result.hits += len(evicted) - replaced
        result.cold += decisions.count - len(evicted)
        result.replacement += replaced

    def classify_points(
        self, ref: NRef, points: Sequence[Sequence[int]]
    ) -> list[Classification]:
        """Batch :meth:`classify`: one :class:`Classification` per point.

        Used by the parity tests; windows go through the scalar walker, so
        this never builds the trace and stays the index's test oracle.
        """
        pts = self._points_array(ref, points)
        via, _, lines_c, trials = self._cold(ref, pts)
        self.scalar.vector_trials += trials
        self.vectorized_points += len(pts)
        outcomes = np.full(len(pts), _COLD, dtype=np.int8)
        decided = np.flatnonzero(via >= 0)
        if len(decided):
            self.walk_points += len(decided)
            evicted = self._walk(
                ref, pts[decided], via[decided], lines_c[decided]
            )
            outcomes[decided] = np.where(evicted, _REPLACEMENT, _HIT)
        vectors = self.reuse.vectors_for(ref)
        return [
            Classification(Outcome.COLD)
            if j < 0
            else Classification(_OUTCOME_OF[o], vectors[j])
            for o, j in zip(outcomes.tolist(), via.tolist())
        ]

    # -- internals -----------------------------------------------------------------

    def _points_array(
        self, ref: NRef, points: Optional[Sequence[Sequence[int]]]
    ) -> "np.ndarray":
        n = self.nprog.depth
        if n == 0:
            raise _BatchUnsupported("no loop dimensions to vectorize over")
        if points is None:
            return enumerate_points_array(self.nprog.ris(ref.leaf))
        return np.asarray(points, dtype=np.int64).reshape(len(points), n)

    def _addr_affine(self, ref: NRef) -> BatchAffine:
        aff = self._addr.get(ref.uid)
        if aff is None:
            aff = BatchAffine(
                [self.walker.compiled_ref(ref).addr], self.nprog.depth
            )
            self._addr[ref.uid] = aff
        return aff

    def _plan(self) -> TracePlan:
        plan = self._facts.get("plan")
        if plan is None:
            plan = self._facts.setdefault("plan", TracePlan(self.nprog))
        return plan

    def _line_trace(self) -> LineTrace:
        if self._lines is None:
            lines = self.store.get(("trace",))
            if lines is None:
                lines = LineTrace(
                    self.nprog, self.walker, self._line_bytes, self._plan()
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
            key = ("decisions", self._plan().materialisable) + key
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
        serial, pooled and daemon runs choose alike."""
        plan = self._plan()
        if not plan.materialisable:  # TraceIndex would raise TraceTooLargeError
            return None
        vectors = self.reuse.vectors_for(ref)
        t_producer = np.empty(len(consumers), dtype=np.int64)
        for j in np.unique(via).tolist():
            mask = via == j
            t_producer[mask] = plan.times(vectors[j].producer, producers[mask])
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
        lines_c = self._addr_affine(ref).eval_single(pts) // self._line_bytes
        undecided = np.arange(n_points, dtype=np.int64)
        trials = 0
        # Vector by vector in lexicographic order over the shrinking
        # undecided set — identical decision order to the scalar
        # classifier, but each vector is one subtraction + one mask.
        for j, rv in enumerate(vectors):
            if not len(undecided):
                break
            shift = np.asarray(rv.vec[1::2], dtype=np.int64)
            candidates = pts[undecided] - shift
            inside = self._ris[id(rv.producer.leaf)].contains(candidates)
            if not inside.any():
                continue
            addr_p = self._addr_affine(rv.producer).eval_single(
                candidates[inside]
            )
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

    def _tally_scalar(
        self,
        ref: NRef,
        result: RefResult,
        points: Optional[Sequence[Sequence[int]]],
    ) -> None:
        """Point-by-point scalar fallback with identical tallies."""
        if points is None:
            points = self.nprog.ris(ref.leaf).enumerate_points()
        before = result.analysed
        tally_points(self.scalar.classify, ref, result, points)
        self.fallback_points += result.analysed - before
