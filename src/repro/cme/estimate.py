"""``EstimateMisses`` — statistical sampling of iteration points (Fig. 6).

For each reference the RIS volume is computed exactly; a sample sized for
the user's confidence/interval ``(c, w)`` is drawn *uniformly* (count-
weighted descent, so triangular and guarded spaces are unbiased) and each
sampled point is classified with the same cold/replacement machinery as
``FindMisses``.  Per Fig. 6, an RIS too small for ``(c, w)`` falls back to
the default ``(c', w') = (90%, 0.15)``, and if still too small it is
analysed exhaustively.

Each reference samples from its own generator seeded with
``seed ^ ref.uid``.  This makes references statistically independent *and*
individually reproducible: adding or removing a reference cannot perturb any
other reference's sample (a single shared generator used to do exactly
that), and it is what lets the loop over references
(:mod:`repro.cme.solver`) run the per-reference unit,
:func:`estimate_ref_misses`, serially, in the process pool
(:mod:`repro.parallel`) or on the daemon's thread pool (:mod:`repro.serve`)
while producing bit-identical reports.

The number of sampled points depends on ``(c, w)``, not on the trace
length — the source of the orders-of-magnitude speedup over simulation the
paper reports (Table 6).  Each draw is a ``bisect`` per dimension into
cached cumulative weights (:meth:`~repro.polyhedra.space.BoundedSpace.sample`),
and the sample's replacement windows are walked (cost proportional to each
window) unless building the whole-program trace index is cheaper
(:mod:`repro.cme.batch`): the trace is built only when that beats walking.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, TYPE_CHECKING

from repro import obs
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.iteration.walker import Walker
from repro.reuse.generator import ReuseTable
from repro.stats.confidence import DEFAULT_FALLBACK, achievable, sample_size
from repro.cme.find import classify_into, record_ref_metrics
from repro.cme.point import PointClassifier
from repro.cme.result import MissReport, RefResult
from repro.cme.solver import solve_misses, solver_for

if TYPE_CHECKING:  # repro.memo imports repro.cme.result — keep this lazy
    from repro.memo import Memoizer


def ref_rng(seed: int, ref: NRef) -> random.Random:
    """The per-reference generator: ``random.Random(seed ^ ref.uid)``."""
    return random.Random(seed ^ ref.uid)


def estimate_ref_misses(
    classifier: PointClassifier,
    nprog: NormalizedProgram,
    ref: NRef,
    confidence: float = 0.95,
    width: float = 0.05,
    seed: int = 0,
) -> RefResult:
    """Sample and classify one reference (the shard unit, Fig. 6 inner loop)."""
    with obs.span("cme/classify_ref"):
        ris = nprog.ris(ref.leaf)
        volume = ris.count()
        result = RefResult(ref.name(), ref.uid, population=volume)
        if volume == 0:
            return result
        with obs.span("cme/sample"):
            if achievable(confidence, width, volume):
                points = ris.sample(
                    sample_size(confidence, width, volume), ref_rng(seed, ref)
                )
                obs.counter("cme.sampling.draws").inc(len(points))
            elif achievable(*DEFAULT_FALLBACK, volume):
                points = ris.sample(
                    sample_size(*DEFAULT_FALLBACK, volume), ref_rng(seed, ref)
                )
                obs.counter("cme.sampling.draws").inc(len(points))
                obs.counter("cme.sampling.fallbacks").inc()
            else:
                points = list(ris.enumerate_points())  # analyse all points
                obs.counter("cme.sampling.exhaustive").inc()
        classify_into(classifier, ref, result, points)
        result.check_invariants()
        record_ref_metrics(result, classifier)
    return result


def estimate_misses(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    confidence: float = 0.95,
    width: float = 0.05,
    reuse: Optional[ReuseTable] = None,
    walker: Optional[Walker] = None,
    refs: Optional[Iterable[NRef]] = None,
    seed: int = 0,
    jobs: int = 1,
    memo: Optional["Memoizer"] = None,
    backend: Optional[str] = None,
) -> MissReport:
    """Estimate per-reference and whole-program miss ratios by sampling.

    ``confidence``/``width`` are the paper's ``(c, w)``; the defaults match
    the experiments of Tables 4 and 6 (c = 95%, w = 0.05).  ``seed`` is the
    base of the per-reference seeds.  ``jobs > 1`` shards references across
    a process pool with identical results.
    ``memo`` enables content-addressed memoization; estimate keys include
    the per-reference seed ``seed ^ ref.uid``, so replays are bit-identical
    to the sampling runs that produced them (and two references never share
    a key within one run — in-run dedup only applies to ``find``).
    ``backend`` selects the classification backend (``"scalar"``/
    ``"numpy"``; ``None`` = NumPy when available); both backends draw the
    same sample and produce bit-identical reports, so memo keys exclude it.
    """
    return solve_misses(
        solver_for("estimate", confidence, width, seed), nprog, layout, cache,
        reuse, walker, refs, jobs, memo, backend,
    )
