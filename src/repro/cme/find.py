"""``FindMisses`` — exhaustive analysis of every iteration point (Fig. 6).

Every reference's full RIS is classified point by point.  The result is
exact whenever the reuse information is complete; the paper's Table 3 shows
exact agreement with simulation for Hydro and MGRID and a slight
over-estimation for MMT (whose transposed B references are not uniformly
generated).

This module holds the per-reference unit, :func:`find_ref_misses`; the
loop over references is :mod:`repro.cme.solver`'s, shared with the other
solvers.  References are independent once the reuse table is built, so the
same unit runs serially (also on the daemon's dispatcher threads,
:mod:`repro.serve`) and in the process pool (:mod:`repro.parallel`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro import obs
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.iteration.walker import Walker
from repro.reuse.generator import ReuseTable
from repro.cme.point import PointClassifier, tally_points
from repro.cme.result import MissReport, RefResult
from repro.cme.solver import solve_misses, solver_for

if TYPE_CHECKING:  # repro.memo imports repro.cme.result — keep this lazy
    from repro.memo import Memoizer


def record_ref_metrics(result: RefResult, classifier: PointClassifier) -> None:
    """Bulk per-reference observability counters (shared by both solvers).

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
    drain_backend = getattr(classifier, "drain_backend_counts", None)
    if drain_backend is not None:  # batch classifier only
        vectorized, fallback = drain_backend()
        obs.counter("cme.backend.vectorized_points").inc(vectorized)
        obs.counter("cme.backend.fallback_points").inc(fallback)
        trace, walk = classifier.drain_window_counts()
        obs.counter("cme.window.trace_points").inc(trace)
        obs.counter("cme.window.walk_points").inc(walk)


def classify_into(
    classifier: PointClassifier,
    ref: NRef,
    result: RefResult,
    points: Optional[Iterable[Sequence[int]]] = None,
    key: Optional[tuple] = None,
) -> None:
    """Classify ``points`` of ``ref`` (``None``: its whole RIS) into
    ``result`` — one vectorized call on the batch classifier, point by
    point on the scalar oracle.  Shared by the three solvers.  ``key``
    names explicit points for the batch classifier's decision store
    (:meth:`~repro.cme.batch.BatchClassifier.tally_ref`)."""
    tally = getattr(classifier, "tally_ref", None)
    if tally is not None:
        tally(ref, result, points, key)
        return
    if points is None:
        points = classifier.nprog.ris(ref.leaf).enumerate_points()
    tally_points(classifier.classify, ref, result, points)


def find_ref_misses(
    classifier: PointClassifier, nprog: NormalizedProgram, ref: NRef
) -> RefResult:
    """Classify every iteration point of one reference (the shard unit)."""
    with obs.span("cme/classify_ref"):
        ris = nprog.ris(ref.leaf)
        result = RefResult(ref.name(), ref.uid, population=ris.count())
        classify_into(classifier, ref, result)
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
    jobs: int = 1,
    memo: Optional["Memoizer"] = None,
) -> MissReport:
    """Classify every iteration point of every reference.

    Parameters mirror :func:`~repro.cme.estimate.estimate_misses`; ``refs``
    restricts the analysis to a subset of references (useful in tests) and
    ``jobs > 1`` shards the references across a process pool — the report is
    guaranteed identical to the serial one.  ``memo`` enables
    content-addressed memoization (:mod:`repro.memo`): references whose
    equation system was already classified — earlier in this call, in this
    process, or in a previous run via a persistent store — replay the
    stored tallies instead of being re-solved.
    """
    return solve_misses(
        solver_for("find"), nprog, layout, cache, reuse, walker, refs, jobs,
        memo,
    )
