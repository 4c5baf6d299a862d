"""The pure-Python per-point classifier: the batch classifier's test oracle.

:class:`PointClassifier` decides one iteration point at a time with plain
Python integers — the cold and replacement equations (Section 4.1) exactly
as Fig. 6 states them, sharing none of
:class:`~repro.cme.batch.BatchClassifier`'s array arithmetic, decision
store or trace index.  It offers the surface the per-reference units call
(``tally_ref``, ``classify_points``, ``drain_vector_trials``,
``drain_window_counts`` and ``store``), so
:func:`tests.harness.differential.scalar_results` runs the production
``find`` and ``estimate`` units on it and diffs their reports.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cme.result import Classification, Outcome
from repro.iteration.position import interleave, subtract
from repro.iteration.walker import Walker, compile_affine
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NLeaf, NormalizedProgram, NRef
from repro.polyhedra.constraints import EQ
from repro.reuse.generator import ReuseTable


class _CompiledRIS:
    """Membership test for a reference iteration space, compiled from the
    loop bounds and the leaf's guard."""

    __slots__ = ("bounds", "guard")

    def __init__(self, nprog: NormalizedProgram, leaf: NLeaf):
        n = nprog.depth
        self.bounds = tuple(
            (compile_affine(loop.lower, n), compile_affine(loop.upper, n))
            for loop in nprog.loops_on_path(leaf.label)
        )
        self.guard = tuple(
            (c.kind == EQ, compile_affine(c.expr, n)) for c in leaf.guard
        )

    def contains(self, idx: Sequence[int]) -> bool:
        for d, (lb, ub) in enumerate(self.bounds):
            v = idx[d]
            if v < lb.eval(idx) or v > ub.eval(idx):
                return False
        for is_eq, ca in self.guard:
            v = ca.eval(idx)
            if (v != 0) if is_eq else (v < 0):
                return False
        return True


class _NoStore:
    """A decision store that keeps nothing: every sample is drawn afresh."""

    def get(self, key):
        return None

    def put(self, key, value, nbytes):
        return value


class PointClassifier:
    """Classifies single iteration points of references as hit/cold/replacement."""

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
        self.store = _NoStore()
        self._ris = {id(leaf): _CompiledRIS(nprog, leaf) for leaf in nprog.leaves}
        self._line_bytes = cache.line_bytes
        self._num_sets = cache.num_sets
        self._assoc = cache.assoc
        #: Reuse vectors tried since the last drain.
        self.vector_trials = 0

    def drain_vector_trials(self) -> int:
        """Return and reset the accumulated reuse-vector trial count."""
        n = self.vector_trials
        self.vector_trials = 0
        return n

    def drain_window_counts(self) -> tuple[int, int]:
        """Every window is walked inside :meth:`classify`; none is counted."""
        return 0, 0

    def classify(self, ref: NRef, point: Sequence[int]) -> Classification:
        """Classify the access of ``ref`` at index vector ``point``.

        ``point`` must lie inside the reference's RIS.
        """
        walker = self.walker
        line_bytes = self._line_bytes
        addr_c = walker.compiled_ref(ref).address_at(point)
        line_c = addr_c // line_bytes
        ivec_c = interleave(ref.label, tuple(point))
        trials = 0
        for rv in self.reuse.vectors_for(ref):
            trials += 1
            ivec_p = subtract(ivec_c, rv.vec)
            index_p = ivec_p[1::2]
            producer = rv.producer
            if not self._ris[id(producer.leaf)].contains(index_p):
                continue  # cold equations: i - r not in RIS_Rp
            addr_p = walker.compiled_ref(producer).address_at(index_p)
            if addr_p // line_bytes != line_c:
                continue  # cold equations: different memory lines
            # Reuse exists along rv: the replacement equations decide.
            evicted = walker.distinct_conflicts_reach(
                (ivec_p, producer.lexpos),
                (ivec_c, ref.lexpos),
                line_c % self._num_sets,
                line_c,
                self._assoc,
                line_bytes,
                self._num_sets,
            )
            self.vector_trials += trials
            if evicted:
                return Classification(Outcome.REPLACEMENT, rv)
            return Classification(Outcome.HIT, rv)
        self.vector_trials += trials
        return Classification(Outcome.COLD)

    def classify_points(self, ref: NRef, points) -> list[Classification]:
        """:meth:`classify` over each point, as tuples of ``int``."""
        return [self.classify(ref, tuple(int(v) for v in p)) for p in points]

    def tally_ref(self, ref: NRef, result, points=None, key=None) -> None:
        """Classify ``points`` (``None``: the whole RIS) point by point
        into ``result``; ``key`` is ignored, nothing is kept."""
        if points is None:
            points = self.nprog.ris(ref.leaf).enumerate_points()
        tally_points(self.classify, ref, result, points)


def tally_points(classify, ref: NRef, result, points) -> None:
    """Classify each point with ``classify`` and count its outcome.

    A point may be any row of integers (a NumPy array row included); it
    is classified as a tuple of ``int``.
    """
    for point in points:
        outcome = classify(ref, tuple(int(v) for v in point)).outcome
        result.analysed += 1
        if outcome is Outcome.COLD:
            result.cold += 1
        elif outcome is Outcome.REPLACEMENT:
            result.replacement += 1
        else:
            result.hits += 1
