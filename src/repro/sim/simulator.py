"""Whole-program cache simulation.

Every entry point materialises the access trace as arrays and decides
misses with the per-policy set kernels of :mod:`repro.sim.batch`
(closed-form stack distances for LRU, run-compressed set replay for the
rest).  A trace too large to materialise
(:class:`~repro.sim.batch.TraceTooLargeError`) is simulated by the
access-order walker instead, one access at a time through the per-set
state machines of :mod:`repro.sim.policy` (counted under
``sim.backend.fallbacks``).  The walker simulator streams without
materialising the trace and is the oracle the differential suites diff
the set kernels against; :func:`_replay_scalar` is the same oracle for
explicit traces.

The replacement policy (``policy=`` on every entry point; see
:mod:`repro.sim.policy`) defaults to the paper's LRU; ``seed`` feeds the
deterministic random-replacement victim draw and is ignored by the
deterministic policies.  :func:`simulate_hierarchy` stacks two levels by
feeding the L1 miss stream — the same ``(ref_uid, address)`` pairs the
``RPCT`` trace format carries — into an L2 :func:`simulate_trace` call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from repro import obs
from repro.errors import InvariantError
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.iteration.walker import Walker
from repro.sim.policy import (
    check_policy_geometry,
    count_policy_run,
    make_cache,
    resolve_policy,
)


@dataclass
class SimReport:
    """Per-reference and aggregate results of one simulation run."""

    cache: CacheConfig
    accesses: dict[int, int] = field(default_factory=dict)  # by NRef uid
    misses: dict[int, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    policy: str = "lru"

    @property
    def total_accesses(self) -> int:
        """Total number of memory accesses simulated."""
        return sum(self.accesses.values())

    @property
    def total_misses(self) -> int:
        """Total number of cache misses."""
        return sum(self.misses.values())

    @property
    def miss_ratio(self) -> float:
        """Overall miss ratio in [0, 1]."""
        total = self.total_accesses
        return self.total_misses / total if total else 0.0

    @property
    def miss_ratio_percent(self) -> float:
        """Overall miss ratio as a percentage (the paper's unit)."""
        return 100.0 * self.miss_ratio

    @property
    def hit_ratio_percent(self) -> float:
        """Overall hit ratio as a percentage (the geometry-sweep unit)."""
        return 100.0 - self.miss_ratio_percent

    def ref_miss_ratio(self, ref: NRef) -> float:
        """Miss ratio of a single reference."""
        a = self.accesses.get(ref.uid, 0)
        return self.misses.get(ref.uid, 0) / a if a else 0.0


@dataclass
class HierarchyReport:
    """A two-level (L1 → L2) simulation: the L2 sees only L1 misses."""

    l1: SimReport
    l2: SimReport

    @property
    def total_accesses(self) -> int:
        """Processor-issued accesses (what the L1 sees)."""
        return self.l1.total_accesses

    @property
    def l1_miss_ratio_percent(self) -> float:
        """L1 miss ratio over processor accesses."""
        return self.l1.miss_ratio_percent

    @property
    def l2_local_miss_ratio_percent(self) -> float:
        """L2 miss ratio over the accesses the L2 actually saw."""
        return self.l2.miss_ratio_percent

    @property
    def global_miss_ratio_percent(self) -> float:
        """Accesses missing *both* levels, over processor accesses."""
        total = self.l1.total_accesses
        if not total:
            return 0.0
        return 100.0 * self.l2.total_misses / total

    @property
    def elapsed_seconds(self) -> float:
        """Combined wall time of both levels."""
        return self.l1.elapsed_seconds + self.l2.elapsed_seconds


def simulate(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    walker: Walker | None = None,
    policy: Optional[str] = None,
    seed: int = 0,
) -> SimReport:
    """Simulate the full access trace of a normalised program.

    ``policy`` selects the replacement policy (:mod:`repro.sim.policy`;
    default LRU) and ``seed`` feeds the random policy's deterministic
    victim draw.
    """
    from repro.sim import batch

    policy = resolve_policy(policy)
    check_policy_geometry(policy, cache)
    try:
        return batch.simulate_batch(
            nprog, layout, cache, walker=walker, policy=policy, seed=seed
        )
    except batch.TraceTooLargeError:
        obs.counter("sim.backend.fallbacks").inc()
    return _simulate_scalar(nprog, layout, cache, walker, policy, seed)


def normalize_assocs(assocs: Sequence[int]) -> list[int]:
    """Canonicalise an associativity sweep: validated, deduped, sorted.

    ``simulate_sweep`` used to accept duplicate and unsorted
    associativity lists silently, simulating duplicates twice and
    returning curves out of order; sweeps are now canonicalised here and
    non-positive (or non-integer) values raise
    :class:`~repro.errors.InvariantError` instead of building a
    nonsensical :class:`CacheConfig` further down.
    """
    cleaned = []
    for a in assocs:
        if isinstance(a, bool) or not isinstance(a, int) or a <= 0:
            raise InvariantError(
                f"associativity sweep values must be positive integers, "
                f"got {a!r}"
            )
        cleaned.append(a)
    return sorted(set(cleaned))


def assoc_sweep_caches(
    base: CacheConfig, assocs: Sequence[int]
) -> list[CacheConfig]:
    """Cache configurations for a hit-rate-vs-associativity sweep.

    Capacity and line size come from ``base``; ``assocs`` is
    canonicalised by :func:`normalize_assocs`.  An associativity the
    capacity cannot express (``size % (line × k) != 0``) raises
    :class:`~repro.errors.InvariantError`.
    """
    caches = []
    for a in normalize_assocs(assocs):
        if base.size_bytes % (base.line_bytes * a):
            raise InvariantError(
                f"cache size {base.size_bytes} cannot hold {a} ways of "
                f"{base.line_bytes}B lines"
            )
        caches.append(CacheConfig(base.size_bytes, base.line_bytes, a))
    return caches


def simulate_sweep(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    caches: Union[Sequence[CacheConfig], CacheConfig, None] = None,
    walker: Walker | None = None,
    policy: Optional[str] = None,
    seed: int = 0,
    assocs: Optional[Sequence[int]] = None,
) -> list[SimReport]:
    """Simulate one program against a sweep of cache configurations.

    The access trace does not depend on the cache, so it is built once
    and only the per-configuration set kernel re-runs — the shape of the
    paper's Table 6 validation columns.  The walker fallback walks the
    program once per cache.

    Two request shapes:

    * ``caches`` — an explicit configuration list.  Reports come back in
      ``caches`` order with exact duplicates simulated (and reported)
      once, first occurrence kept.
    * ``caches`` a single *base* :class:`CacheConfig` plus ``assocs`` —
      an associativity sweep at the base's capacity and line size,
      canonicalised by :func:`normalize_assocs` (deduplicated, sorted
      ascending; non-positive values raise
      :class:`~repro.errors.InvariantError`).

    Either way every report is bit-identical to a per-cache
    :func:`simulate` call with the same ``policy``/``seed``.
    """
    from repro.sim import batch

    policy = resolve_policy(policy)
    if assocs is not None:
        if not isinstance(caches, CacheConfig):
            raise InvariantError(
                "an associativity sweep needs a single base CacheConfig "
                "(capacity + line size) in the caches argument"
            )
        caches = assoc_sweep_caches(caches, assocs)
    elif isinstance(caches, CacheConfig):
        caches = [caches]
    else:
        deduped: list[CacheConfig] = []
        seen = set()
        for cache in caches or ():
            if cache not in seen:
                seen.add(cache)
                deduped.append(cache)
        caches = deduped
    for cache in caches:
        check_policy_geometry(policy, cache)
    if not caches:
        return []
    try:
        return batch.simulate_sweep(
            nprog, layout, caches, walker=walker, policy=policy, seed=seed
        )
    except batch.TraceTooLargeError:
        obs.counter("sim.backend.fallbacks").inc()
    if walker is None:
        walker = Walker(nprog, layout)
    return [
        _simulate_scalar(nprog, layout, c, walker, policy, seed)
        for c in caches
    ]


def _simulate_scalar(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    walker: Walker | None = None,
    policy: str = "lru",
    seed: int = 0,
    miss_stream: Optional[list] = None,
) -> SimReport:
    """The walker-driven simulation (one access at a time); each miss is
    appended to ``miss_stream`` as a ``(ref_uid, address)`` pair when
    given."""
    walker = walker if walker is not None else Walker(nprog, layout)
    state = make_cache(cache, policy, seed)
    accesses = {r.uid: 0 for r in nprog.refs}
    misses = {r.uid: 0 for r in nprog.refs}
    line_bytes = cache.line_bytes
    access_line = state.access_line

    def visit(cr, addr) -> bool:
        uid = cr.nref.uid
        accesses[uid] += 1
        if not access_line(addr // line_bytes):
            misses[uid] += 1
            if miss_stream is not None:
                miss_stream.append((uid, addr))
        return False

    started = time.perf_counter()
    with obs.span("sim/walk"):
        walker.walk(visit)
    elapsed = time.perf_counter() - started
    report = SimReport(cache, accesses, misses, elapsed, policy)
    # Bulk counters after the walk — nothing observable in the hot loop.
    count_policy_run(policy)
    obs.counter("sim.accesses").inc(report.total_accesses)
    obs.counter("sim.misses").inc(report.total_misses)
    obs.counter("sim.hits").inc(report.total_accesses - report.total_misses)
    obs.counter("sim.evictions").inc(state.evictions)
    return report


def simulate_trace(
    source,
    cache: CacheConfig,
    refs: Optional[Sequence[NRef]] = None,
    policy: Optional[str] = None,
    seed: int = 0,
) -> SimReport:
    """Simulate an explicit ``(ref_uid, address)`` trace.

    ``source`` is a path to a binary trace file
    (:mod:`repro.sim.tracefile`) or an in-memory iterable of pairs,
    decoded alike (``uint32`` uids, ``uint64`` addresses; in-memory
    fields outside those widths raise
    :class:`~repro.errors.TraceFormatError`).  With ``refs`` (the
    program's references), tallies are keyed by those references and a
    trace uid the program does not define raises
    :class:`~repro.errors.InvariantError` instead of silently dropping
    the tally.  ``policy`` and ``seed`` are as in :func:`simulate`.
    """
    from repro.sim import batch, tracefile

    policy = resolve_policy(policy)
    check_policy_geometry(policy, cache)
    is_path = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    with obs.span("sim/decode"):
        if is_path:
            uids, addrs = tracefile.read_trace_arrays(source)
        else:
            uids, addrs = tracefile.pairs_to_arrays(source)
    return batch.simulate_trace_arrays(
        uids, addrs, cache, refs=refs, policy=policy, seed=seed
    )


def simulate_hierarchy(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    l1_cache: CacheConfig,
    l2_cache: CacheConfig,
    walker: Walker | None = None,
    policy: Optional[str] = None,
    l2_policy: Optional[str] = None,
    seed: int = 0,
    miss_trace_path=None,
) -> HierarchyReport:
    """Simulate a two-level cache hierarchy (L1 feeding L2).

    The L1 runs the full program trace; every L1 *miss* is forwarded —
    as the same ``(ref_uid, address)`` stream the ``RPCT`` trace format
    carries — into an L2 :func:`simulate_trace` call, so the L2 model is
    exactly the single-level simulator replaying the L1 miss stream.
    ``l2_policy`` defaults to ``policy``; ``miss_trace_path`` optionally
    persists the L1 miss stream as a binary ``RPCT`` trace for offline
    replay.  The walker fallback is bit-identical level by level.
    """
    from repro.sim import batch

    policy = resolve_policy(policy)
    l2_policy = policy if l2_policy is None else resolve_policy(l2_policy)
    check_policy_geometry(policy, l1_cache)
    check_policy_geometry(l2_policy, l2_cache)
    try:
        return batch.simulate_hierarchy_batch(
            nprog,
            layout,
            l1_cache,
            l2_cache,
            walker=walker,
            policy=policy,
            l2_policy=l2_policy,
            seed=seed,
            miss_trace_path=miss_trace_path,
        )
    except batch.TraceTooLargeError:
        obs.counter("sim.backend.fallbacks").inc()
    return _hierarchy_scalar(
        nprog, layout, l1_cache, l2_cache, walker, policy, l2_policy, seed,
        miss_trace_path,
    )


def _hierarchy_scalar(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    l1_cache: CacheConfig,
    l2_cache: CacheConfig,
    walker: Walker | None = None,
    policy: str = "lru",
    l2_policy: str = "lru",
    seed: int = 0,
    miss_trace_path=None,
) -> HierarchyReport:
    """The walker-driven hierarchy: the L1 walk's misses replay as the L2."""
    miss_stream: list[Tuple[int, int]] = []
    l1 = _simulate_scalar(
        nprog, layout, l1_cache, walker, policy, seed, miss_stream
    )
    if miss_trace_path is not None:
        from repro.sim import tracefile

        tracefile.write_trace(miss_trace_path, miss_stream)
    l2 = _replay_scalar(miss_stream, l2_cache, nprog.refs, l2_policy, seed)
    return HierarchyReport(l1, l2)


def _replay_scalar(
    pairs: Sequence[Tuple[int, int]],
    cache: CacheConfig,
    refs: Optional[Sequence[NRef]],
    policy: str = "lru",
    seed: int = 0,
) -> SimReport:
    """Replay ``pairs`` one access at a time (the explicit-trace oracle)."""
    started = time.perf_counter()
    if refs is not None:
        accesses = {r.uid: 0 for r in refs}
        misses = {r.uid: 0 for r in refs}
        known = frozenset(accesses)
    else:
        accesses = {}
        misses = {}
        known = None
    state = make_cache(cache, policy, seed)
    access_line = state.access_line
    line_bytes = cache.line_bytes
    with obs.span("sim/replay"):
        for position, (uid, addr) in enumerate(pairs):
            if known is not None and uid not in known:
                raise InvariantError(
                    f"trace names ref uid {uid} at access {position} "
                    f"but the program has no such reference"
                )
            accesses[uid] = accesses.get(uid, 0) + 1
            if not access_line(addr // line_bytes):
                misses[uid] = misses.get(uid, 0) + 1
    for uid in accesses:
        misses.setdefault(uid, 0)
    report = SimReport(
        cache, accesses, misses, time.perf_counter() - started, policy
    )
    # Trace replays report the same sim.* counters as walker-driven
    # simulation — the policy choice must be observable here too.
    count_policy_run(policy)
    obs.counter("sim.accesses").inc(report.total_accesses)
    obs.counter("sim.misses").inc(report.total_misses)
    obs.counter("sim.hits").inc(report.total_accesses - report.total_misses)
    obs.counter("sim.evictions").inc(state.evictions)
    return report
