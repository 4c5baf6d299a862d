"""``FindMisses`` — exhaustive analysis of every iteration point (Fig. 6).

Every reference's full RIS is classified point by point.  The result is
exact whenever the reuse information is complete; the paper's Table 3 shows
exact agreement with simulation for Hydro and MGRID and a slight
over-estimation for MMT (whose transposed B references are not uniformly
generated).

This module holds the per-reference unit, :func:`find_ref_misses`; the
loop over references is :mod:`repro.cme.solver`'s, shared with the other
solvers.  References are independent once the reuse table is built, so the
same unit runs for the offline solvers and on the daemon's dispatcher
threads (:mod:`repro.serve`).
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

from repro import obs
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.iteration.walker import Walker
from repro.reuse.generator import ReuseTable
from repro.cme.result import MissReport, RefResult
from repro.cme.solver import solve_misses, solver_for

if TYPE_CHECKING:  # repro.memo imports repro.cme.result — keep this lazy
    from repro.cme.batch import BatchClassifier
    from repro.memo import Memoizer


def record_ref_metrics(result: RefResult, classifier: "BatchClassifier") -> None:
    """Bulk per-reference observability counters (shared by the solvers).

    Incrementing once per reference — not per point — keeps the metric
    namespace (``cme.points.*``, ``polyhedra.ris.volume``) entirely out of
    the per-point hot loop; when observability is disabled this whole call
    is a handful of no-op method calls.
    """
    obs.counter("cme.refs.analysed").inc()
    obs.counter("cme.points.classified").inc(result.analysed)
    obs.counter("cme.points.cold").inc(result.cold)
    obs.counter("cme.points.replacement").inc(result.replacement)
    obs.counter("cme.points.hit").inc(result.hits)
    obs.histogram("polyhedra.ris.volume").observe(result.population)
    obs.counter("cme.solver.vector_trials").inc(classifier.drain_vector_trials())
    trace, walk = classifier.drain_window_counts()
    obs.counter("cme.window.trace_points").inc(trace)
    obs.counter("cme.window.walk_points").inc(walk)


def find_ref_misses(
    classifier: "BatchClassifier", nprog: NormalizedProgram, ref: NRef
) -> RefResult:
    """Classify every iteration point of one reference (the shard unit)."""
    with obs.span("cme/classify_ref"):
        ris = nprog.ris(ref.leaf)
        result = RefResult(ref.name(), ref.uid, population=ris.count())
        classifier.tally_ref(ref, result)
        result.check_invariants(exhaustive=True)
        record_ref_metrics(result, classifier)
    return result


def find_misses(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    reuse: Optional[ReuseTable] = None,
    walker: Optional[Walker] = None,
    refs: Optional[Iterable[NRef]] = None,
    memo: Optional["Memoizer"] = None,
) -> MissReport:
    """Classify every iteration point of every reference.

    Parameters mirror :func:`~repro.cme.estimate.estimate_misses`; ``refs``
    restricts the analysis to a subset of references (useful in tests).
    ``memo`` enables
    content-addressed memoization (:mod:`repro.memo`): references whose
    equation system was already classified — earlier in this call, in this
    process, or in a previous run via a persistent store — replay the
    stored tallies instead of being re-solved.
    """
    return solve_misses(
        solver_for("find"), nprog, layout, cache, reuse, walker, refs, memo,
    )
