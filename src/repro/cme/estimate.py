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
:func:`estimate_ref_misses`, offline or on the daemon's dispatcher threads
(:mod:`repro.serve`) while producing bit-identical reports.

The number of sampled points depends on ``(c, w)``, not on the trace
length — the source of the orders-of-magnitude speedup over simulation the
paper reports (Table 6).  A rectangular or tiled RIS draws its whole sample
at once in NumPy from the generator's Mersenne Twister words; a guarded or
triangular one descends the dimensions with a ``bisect`` per level into
cached cumulative weights.  Both give the same points for the same seed
(:meth:`~repro.polyhedra.space.BoundedSpace.sample`).  The sample, an
``(n, depth)`` array, goes to the batch classifier as is, and its
replacement windows are walked (cost proportional to each window) unless
building the whole-program trace index is cheaper (:mod:`repro.cme.batch`):
the trace is built only when that beats walking.
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
from repro.cme.find import record_ref_metrics
from repro.cme.result import MissReport, RefResult
from repro.cme.solver import solve_misses, solver_for

if TYPE_CHECKING:  # repro.memo imports repro.cme.result — keep this lazy
    from repro.cme.batch import BatchClassifier
    from repro.memo import Memoizer


def ref_rng(seed: int, ref: NRef) -> random.Random:
    """The per-reference generator: ``random.Random(seed ^ ref.uid)``."""
    return random.Random(seed ^ ref.uid)


def _draw(
    ris, ref: NRef, confidence: float, width: float, seed: int, volume: int
) -> tuple:
    """``(points, fallback)``: the Fig. 6 sample of ``ref`` — at
    ``(c, w)``, at the default ``(c', w')`` (``fallback``), or ``None``
    points for an exhaustive analysis."""
    if achievable(confidence, width, volume):
        size = sample_size(confidence, width, volume)
        return ris.sample(size, ref_rng(seed, ref)), False
    if achievable(*DEFAULT_FALLBACK, volume):
        size = sample_size(*DEFAULT_FALLBACK, volume)
        return ris.sample(size, ref_rng(seed, ref)), True
    return None, False


def estimate_ref_misses(
    classifier: "BatchClassifier",
    nprog: NormalizedProgram,
    ref: NRef,
    confidence: float = 0.95,
    width: float = 0.05,
    seed: int = 0,
) -> RefResult:
    """Sample and classify one reference (the shard unit, Fig. 6 inner loop).

    The sample depends on the solver parameters alone, so the
    classifier's store (:mod:`repro.cme.decisions`) keeps it, and its
    decisions, for every geometry with this line size; the counters are
    emitted on every call all the same.
    """
    with obs.span("cme/classify_ref"):
        ris = nprog.ris(ref.leaf)
        volume = ris.count()
        result = RefResult(ref.name(), ref.uid, population=volume)
        if volume == 0:
            return result
        key = (ref.uid, confidence, width, seed ^ ref.uid)
        store = classifier.store
        with obs.span("cme/sample"):
            sample = store.get(("sample",) + key)
            if sample is None:
                sample = _draw(ris, ref, confidence, width, seed, volume)
                points = sample[0]
                size = 0 if points is None else points.nbytes
                sample = store.put(("sample",) + key, sample, size)
            points, fallback = sample
            if points is None:  # analyse all points
                obs.counter("cme.sampling.exhaustive").inc()
            else:
                obs.counter("cme.sampling.draws").inc(len(points))
                if fallback:
                    obs.counter("cme.sampling.fallbacks").inc()
        classifier.tally_ref(ref, result, points, key)
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
    memo: Optional["Memoizer"] = None,
) -> MissReport:
    """Estimate per-reference and whole-program miss ratios by sampling.

    ``confidence``/``width`` are the paper's ``(c, w)``; the defaults match
    the experiments of Tables 4 and 6 (c = 95%, w = 0.05).  ``seed`` is the
    base of the per-reference seeds.
    ``memo`` enables content-addressed memoization; estimate keys include
    the per-reference seed ``seed ^ ref.uid``, so replays are bit-identical
    to the sampling runs that produced them (and two references never share
    a key within one run — in-run dedup only applies to ``find``).
    """
    return solve_misses(
        solver_for("estimate", confidence, width, seed), nprog, layout, cache,
        reuse, walker, refs, memo,
    )
