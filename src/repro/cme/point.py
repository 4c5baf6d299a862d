"""The per-point miss classifier — the cold and replacement equations (4.1).

For a consumer reference at one iteration point, reuse vectors are tried in
increasing lexicographic order (Fig. 6).  For each vector:

* the **cold equations** check that the producer point lies inside the
  producer's RIS and touches the *same memory line* — if either fails the
  point stays indeterminate along this vector and the next one is tried;
* otherwise the **replacement equations** decide the point: the cache line
  survives unless ``k`` *distinct* memory lines mapped to the same cache set
  between the producer access and the consumer access (k-way LRU).

A point no vector resolves is a **cold miss**.  Because vectors are sorted,
the first vector with valid reuse is the nearest captured earlier access to
the line; any access to the *same* line inside the window is excluded from
the contention count, so missing vectors can only widen windows and
over-estimate misses — never under-estimate (the paper's conservatism).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NLeaf, NormalizedProgram, NRef
from repro.polyhedra.constraints import EQ
from repro.iteration.position import interleave, subtract
from repro.iteration.walker import Walker, compile_affine
from repro.reuse.generator import ReuseTable
from repro.reuse.vectors import ReuseVector


class Outcome(Enum):
    """Classification of one access."""

    HIT = "hit"
    COLD = "cold-miss"
    REPLACEMENT = "replacement-miss"

    @property
    def is_miss(self) -> bool:
        """True for either kind of miss."""
        return self is not Outcome.HIT


@dataclass(frozen=True)
class Classification:
    """The outcome of one access plus the reuse vector that decided it."""

    outcome: Outcome
    via: Optional[ReuseVector] = None


class _CompiledRIS:
    """Fast membership test for a reference iteration space."""

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
        self._ris: dict[int, _CompiledRIS] = {}
        for leaf in nprog.leaves:
            self._ris[id(leaf)] = _CompiledRIS(nprog, leaf)
        self._line_bytes = cache.line_bytes
        self._num_sets = cache.num_sets
        self._assoc = cache.assoc
        #: Reuse vectors tried since the last drain — the CME "solver
        #: iterations" metric.  A plain int kept per classifier (one add per
        #: point) and drained in bulk per reference, so the per-point hot
        #: loop never touches the metrics registry.
        self.vector_trials = 0

    def drain_vector_trials(self) -> int:
        """Return and reset the accumulated reuse-vector trial count."""
        n = self.vector_trials
        self.vector_trials = 0
        return n

    def classify(self, ref: NRef, point: Sequence[int]) -> Classification:
        """Classify the access of ``ref`` at index vector ``point``.

        ``point`` must lie inside the reference's RIS (solvers guarantee it).
        """
        walker = self.walker
        line_bytes = self._line_bytes
        cref = walker.compiled_ref(ref)
        addr_c = cref.address_at(point)
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
