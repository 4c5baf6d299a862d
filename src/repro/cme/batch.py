"""The vectorized NumPy classification backend (batch CME solving).

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
  per classifier, each window a per-set slice with a vectorized distinct
  count).  :meth:`BatchClassifier._index_pays` prices both from the
  points and the program alone, so ``EstimateMisses`` builds the trace
  only when that is cheaper than walking its sample's windows.

The contract is **bit identity** with the scalar backend: identical
tallies, identical per-point :class:`~repro.cme.point.Classification`\\ s,
identical ``cme.solver.vector_trials`` accounting.  Any reference the
vectorized path cannot handle is classified point-by-point by the embedded
scalar classifier instead (counted in ``cme.backend.fallback_points``), so
falling back changes speed, never results.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs
from repro.errors import MissingDependencyError
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NLeaf, NormalizedProgram, NRef
from repro.polyhedra.batch import enumerate_points_array
from repro.polyhedra.constraints import EQ
from repro.iteration.batch import BatchAffine, TraceIndex
from repro.iteration.position import interleave, subtract
from repro.iteration.walker import Walker, compile_affine
from repro.sim.batch import TracePlan
from repro.reuse.generator import ReuseTable
from repro.cme.point import Classification, Outcome, PointClassifier, tally_points
from repro.cme.result import RefResult

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised via import gate test
    raise MissingDependencyError(
        "repro.cme.batch requires NumPy; install it with "
        "`pip install numpy` (or `pip install repro`), or select the "
        "pure-Python solver with backend='scalar' / --backend scalar"
    ) from exc

#: Outcome codes of the batch pipeline (values of the ``outcomes`` arrays).
_HIT, _COLD, _REPLACEMENT = 0, 1, 2

_OUTCOME_OF = {_HIT: Outcome.HIT, _COLD: Outcome.COLD, _REPLACEMENT: Outcome.REPLACEMENT}

#: Walker cost per window access and per point, in units of one trace
#: access of :class:`TraceIndex` build (measured: 25 ns, 10 µs, 130 ns; see
#: DESIGN.md, "Window-strategy rule").
_WALK_ACCESS = 0.2
_WALK_POINT = 75.0


def _window_ends(times, ref: NRef, producers: list, consumers: "np.ndarray"):
    """``(producer, consumer)`` times of each decided point under ``times``.

    ``producers`` holds ``(mask over the decided points, producer ref,
    producer points)`` per deciding reuse vector.
    """
    t_producer = np.empty(len(consumers), dtype=np.int64)
    for mask, producer, points in producers:
        t_producer[mask] = times(producer, points)
    return t_producer, times(ref, consumers)


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


class BatchClassifier:
    """Batch (NumPy) classifier with the scalar classifier's exact semantics.

    Drop-in replacement for :class:`~repro.cme.point.PointClassifier` in the
    solvers: exposes the same :meth:`classify` /
    :meth:`drain_vector_trials` surface, plus the bulk entry point
    :meth:`tally_ref` the solvers prefer when present.
    """

    #: Resolved backend name (mirrors ``resolve_backend`` vocabulary).
    backend_name = "numpy"

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
        self._plan: Optional[TracePlan] = None
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
    ) -> None:
        """Classify a reference in bulk, accumulating into ``result``.

        ``points=None`` means "the full RIS" (``FindMisses``); an explicit
        ``points`` sequence is an ``EstimateMisses`` sample or a
        ``RegionMisses`` exact fallback.  Either way the window oracle is
        chosen by cost (:meth:`_index_pays`), from these points alone.
        """
        try:
            pts = self._points_array(ref, points)
            outcomes, _ = self._classify_array(ref, pts, walk_only=False)
        except _BatchUnsupported:
            self._tally_scalar(ref, result, points)
            return
        self.vectorized_points += len(pts)
        result.analysed += len(pts)
        counts = np.bincount(outcomes, minlength=3)
        result.hits += int(counts[_HIT])
        result.cold += int(counts[_COLD])
        result.replacement += int(counts[_REPLACEMENT])

    def classify_points(
        self, ref: NRef, points: Sequence[Sequence[int]]
    ) -> list[Classification]:
        """Batch :meth:`classify`: one :class:`Classification` per point.

        Used by the parity tests; windows go through the scalar walker, so
        this never builds the trace and stays the index's test oracle.
        """
        pts = self._points_array(ref, points)
        outcomes, via = self._classify_array(ref, pts, walk_only=True)
        self.vectorized_points += len(pts)
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
        return np.array(points, dtype=np.int64).reshape(len(points), n)

    def _addr_affine(self, ref: NRef) -> BatchAffine:
        aff = self._addr.get(ref.uid)
        if aff is None:
            aff = BatchAffine(
                [self.walker.compiled_ref(ref).addr], self.nprog.depth
            )
            self._addr[ref.uid] = aff
        return aff

    def _trace_index(self) -> TraceIndex:
        if self._trace is None:
            with obs.span("cme/batch/trace_index"):
                self._trace = TraceIndex(
                    self.nprog, self.walker, self._line_bytes, self._num_sets
                )
        return self._trace

    def _index_pays(
        self, ref: NRef, producers: list, consumers: "np.ndarray"
    ) -> bool:
        """True when walking these windows costs more than this reference's
        share of the index build (trace length / references; the index is
        built once and serves them all).  Depends on the points and the
        program only — never on whether the index already exists — so
        serial, pooled and daemon runs choose alike."""
        if self._plan is None:
            self._plan = TracePlan(self.nprog)
        plan = self._plan
        if not plan.materialisable:  # TraceIndex would raise TraceTooLargeError
            return False
        t_producer, t_consumer = _window_ends(
            plan.times, ref, producers, consumers
        )
        windows = float((t_consumer - t_producer).sum(dtype=np.float64))
        walk = _WALK_ACCESS * windows + _WALK_POINT * len(consumers)
        return walk * len(self.nprog.refs) >= plan.total

    def _classify_array(
        self, ref: NRef, pts: "np.ndarray", walk_only: bool
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """The batch cold + replacement equations over one point array.

        Returns ``(outcomes, via)``: per point the outcome code and the
        index of the deciding reuse vector (-1 = cold, no vector decided).
        """
        n_points = len(pts)
        vectors = self.reuse.vectors_for(ref)
        via = np.full(n_points, -1, dtype=np.int64)
        producer_pts = np.zeros_like(pts)
        lines_c = self._addr_affine(ref).eval_single(pts) // self._line_bytes
        undecided = np.arange(n_points, dtype=np.int64)
        trials = 0
        # Cold equations, vector by vector in lexicographic order over the
        # shrinking undecided set — identical decision order to the scalar
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
        self.scalar.vector_trials += trials
        outcomes = np.full(n_points, _COLD, dtype=np.int8)
        decided = np.flatnonzero(via >= 0)
        if len(decided):
            with obs.span("cme/window"):
                evicted = self._windows(
                    ref, pts, via, producer_pts, lines_c, decided, vectors,
                    walk_only,
                )
            outcomes[decided] = np.where(evicted, _REPLACEMENT, _HIT)
        return outcomes, via

    def _windows(
        self,
        ref: NRef,
        pts: "np.ndarray",
        via: "np.ndarray",
        producer_pts: "np.ndarray",
        lines_c: "np.ndarray",
        decided: "np.ndarray",
        vectors,
        walk_only: bool,
    ) -> "np.ndarray":
        """Replacement equations for the decided points: evicted or not."""
        consumers = pts[decided]
        decided_via = via[decided]
        producer_at = producer_pts[decided]
        producers = []
        for j in np.unique(decided_via).tolist():
            mask = decided_via == j
            producers.append((mask, vectors[j].producer, producer_at[mask]))
        if not walk_only and self._index_pays(ref, producers, consumers):
            trace = self._trace_index()
            self.trace_points += len(decided)
            t_producer, t_consumer = _window_ends(
                trace.t_of, ref, producers, consumers
            )
            return trace.conflicts_reach(
                t_producer, t_consumer, lines_c[decided], self._assoc
            )
        self.walk_points += len(decided)
        walker = self.walker
        evicted = np.empty(len(decided), dtype=bool)
        for i, q in enumerate(decided):
            rv = vectors[via[q]]
            ivec_c = interleave(ref.label, tuple(int(v) for v in pts[q]))
            ivec_p = subtract(ivec_c, rv.vec)
            line_c = int(lines_c[q])
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
        tally_points(
            self.scalar.classify, ref, result,
            (tuple(int(v) for v in point) for point in points),
        )
        self.fallback_points += result.analysed - before
