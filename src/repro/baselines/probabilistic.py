"""A Fraguela-style probabilistic miss estimator (the Table 7 comparator).

The paper compares ``EstimateMisses`` against Fraguela, Doallo & Zapata's
probabilistic analytical method (PACT'99) on the MMT kernel over sixteen
cache configurations (Table 7).  That method never examines individual
iteration points: it models, per reference, the probability that the
accessed line survives its reuse window, using *footprints* (how many
distinct lines competing references touch in the window) and a uniform
set-mapping assumption.

This module implements an independent estimator in the same spirit:

* the reuse fraction along a reference's nearest reuse vector is computed
  exactly (a polyhedral count of the shifted-RIS intersection), the
  remainder being cold;
* the interference footprint of the window is estimated per intervening
  reference from its stride pattern (``lines ≈ iterations × min(1,
  stride/Ls)``), *not* by enumeration;
* the line is assumed to land in a uniformly random set, so eviction
  probability is ``P(Binomial(F, 1/num_sets) ≥ k)``.

Like the original, it is very fast and reasonably accurate for friendly
strides, but its footprint approximation degrades as the line size grows —
the qualitative behaviour Table 7 exhibits (Δ_P up to ~44% at Ls = 32).

Besides the paper's LRU model, ``policy="random"`` swaps in the
random-replacement eviction probability: under uniform set mapping an
interfering line fill lands in the target's set with probability ``1/S``
and then victimises the target's way with probability ``1/k``, so the
target survives ``F`` independent fills with probability
``(1 - 1/(S·k))^F`` and

    ``p_evict = 1 - (1 - 1/(S·k))^F``

— a closed form (the binomial probability generating function evaluated
at the per-fill survival rate).  The LRU branch sums its binomial tail
from exact :func:`math.comb` terms (:func:`binomial_tail`).  FIFO and
tree-PLRU are not stack algorithms and admit no such per-window closed
form; asking for them raises :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.polyhedra.affine import Var
from repro.reuse.generator import ReuseTable, build_reuse_table
from repro.reuse.ugs import linear_part
from repro.reuse.vectors import ReuseVector


@dataclass
class ProbabilisticReport:
    """Aggregate result of the probabilistic estimator."""

    cache: CacheConfig
    ref_ratios: dict[int, float] = field(default_factory=dict)
    populations: dict[int, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def total_accesses(self) -> float:
        """Total modelled accesses."""
        return sum(self.populations.values())

    @property
    def miss_ratio(self) -> float:
        """Population-weighted miss ratio in [0, 1]."""
        total = self.total_accesses
        if not total:
            return 0.0
        weighted = sum(
            self.ref_ratios[uid] * self.populations[uid]
            for uid in self.ref_ratios
        )
        return weighted / total

    @property
    def miss_ratio_percent(self) -> float:
        """Miss ratio as a percentage."""
        return 100.0 * self.miss_ratio


def _reuse_fraction(
    nprog: NormalizedProgram, ref: NRef, rv: ReuseVector
) -> float:
    """Exact fraction of consumer points whose producer point is in its RIS."""
    consumer_ris = nprog.ris(ref.leaf)
    total = consumer_ris.count()
    if total == 0:
        return 0.0
    x = rv.index_part()
    producer_ris = nprog.ris(rv.producer.leaf)
    # Shift the producer's bounds/guard by x: constraints on (I - x).
    shift = {
        var: Var(var) - dx for var, dx in zip(nprog.index_vars, x)
    }
    both = consumer_ris
    for d, (lo, hi) in enumerate(producer_ris.bounds):
        shifted_var = shift[nprog.index_vars[d]]
        both = both.conjoin(shifted_var.ge(lo.substitute(shift)))
        both = both.conjoin(shifted_var.le(hi.substitute(shift)))
    for c in producer_ris.constraints:
        both = both.conjoin(c.substitute(shift))
    return both.count() / total


def _window_iterations(
    rv: ReuseVector, extents: list[int]
) -> int:
    """Approximate number of iteration points spanned by a reuse vector."""
    x = rv.index_part()
    labels = rv.label_part()
    n = len(x)
    span = 0
    for d in range(n):
        deeper = 1
        for e in range(d + 1, n):
            deeper *= max(1, extents[e])
        span += abs(x[d]) * deeper
        if labels[d]:
            # crossing to another nest at depth d re-runs deeper iterations
            span += deeper
    return max(1, span)


def _lines_per_iteration(
    ref: NRef, depth: int, line_bytes: int
) -> float:
    """Estimated distinct memory lines one reference touches per iteration."""
    m = linear_part(ref, depth)
    strides = ref.array.strides()
    esize = ref.array.element_size
    # stride of the fastest-varying (deepest) index with a non-zero coefficient
    for d in range(depth - 1, -1, -1):
        step_elems = sum(strides[dim] * m[dim][d] for dim in range(len(m)))
        if step_elems:
            return min(1.0, abs(step_elems) * esize / line_bytes)
    return 1.0 / max(1, line_bytes // esize)


def _depth_extents(nprog: NormalizedProgram) -> list[int]:
    extents = [1] * nprog.depth
    for leaf in nprog.leaves:
        ranges = nprog.ris(leaf).var_ranges()
        for d, var in enumerate(nprog.index_vars):
            lo, hi = ranges[var]
            extents[d] = max(extents[d], hi - lo + 1)
    return extents


def binomial_tail(k: int, n: int, p: float) -> float:
    """``P(X >= k)`` for ``X ~ Binomial(n, p)``: one minus the lower tail.

    The ``k`` lower terms are summed with :func:`math.fsum`, each from the
    exact :func:`math.comb` in log space (so no term overflows a float).
    """
    if p >= 1.0:
        return 1.0 if n >= k else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    lower = math.fsum(
        math.exp(math.log(math.comb(n, i)) + i * log_p + (n - i) * log_q)
        for i in range(min(k, n + 1))
    )
    return max(0.0, 1.0 - lower)


def probabilistic_misses(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    reuse: ReuseTable | None = None,
    policy: Optional[str] = None,
) -> ProbabilisticReport:
    """Estimate the program miss ratio without examining iteration points.

    ``policy`` selects the eviction-probability model: ``"lru"`` (the
    default; the binomial survival model above) or ``"random"`` (the
    closed-form random-replacement equation).  Other simulator policies
    have no probabilistic closed form and raise
    :class:`~repro.errors.ReproError`.
    """
    from repro.sim.policy import resolve_policy

    policy = resolve_policy(policy)
    if policy not in ("lru", "random"):
        raise ReproError(
            f"no probabilistic closed form for policy {policy!r}; "
            f"only lru and random are modelled"
        )
    started = time.perf_counter()
    if reuse is None:
        reuse = build_reuse_table(nprog, cache.line_bytes)
    extents = _depth_extents(nprog)
    num_sets = cache.num_sets
    k = cache.assoc
    report = ProbabilisticReport(cache)
    lines_rate = {
        r.uid: _lines_per_iteration(r, nprog.depth, cache.line_bytes)
        for r in nprog.refs
    }
    population = {r.uid: nprog.ris(r.leaf).count() for r in nprog.refs}
    for ref in nprog.refs:
        vectors = reuse.vectors_for(ref)
        if not vectors or population[ref.uid] == 0:
            report.ref_ratios[ref.uid] = 1.0
            report.populations[ref.uid] = population[ref.uid]
            continue
        # The nearest vector dominates, but a thin group vector (e.g. a
        # diagonal producer) may cover few points — scan a handful and use
        # the best coverage, with the window of the first covering vector.
        rv = vectors[0]
        f_reuse = 0.0
        for candidate in vectors[:5]:
            f = _reuse_fraction(nprog, ref, candidate)
            if f > f_reuse:
                f_reuse = f
                rv = candidate
            if f_reuse > 0.999:
                break
        window = _window_iterations(rv, extents)
        # Footprint: distinct lines the other references push through the
        # cache inside the window, assuming they are active in it.
        footprint = 0.0
        for other in nprog.refs:
            if population[other.uid]:
                footprint += window * lines_rate[other.uid]
        fills = max(1, round(footprint))
        if policy == "random":
            p_evict = 1.0 - (1.0 - 1.0 / (num_sets * k)) ** fills
        else:
            p_conflict = min(1.0, 1.0 / num_sets)
            p_evict = binomial_tail(k, fills, p_conflict)
        report.ref_ratios[ref.uid] = (1.0 - f_reuse) + f_reuse * p_evict
        report.populations[ref.uid] = population[ref.uid]
    report.elapsed_seconds = time.perf_counter() - started
    return report
