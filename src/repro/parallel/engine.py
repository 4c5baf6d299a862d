"""Parallel per-reference CME engine (the process-pool executor).

Once the reuse table and the walker order are fixed, the per-reference work
of every CME solver is embarrassingly parallel: each reference owns a
disjoint slice of the report and (for ``EstimateMisses``) its own derived
RNG seed ``seed ^ ref.uid``.  The engine is the process-pool executor of
:func:`repro.cme.solver.run_units` — the memo plan, the report and the
finish are that function's; this module only shards references across a
:class:`concurrent.futures.ProcessPoolExecutor`:

* the immutable analysis state — ``(NormalizedProgram, MemoryLayout,
  CacheConfig, ReuseTable)`` — is pickled **once**, shipped to each worker
  through the pool initializer, and unpickled **once per worker**; every
  task afterwards only carries the picklable
  :class:`~repro.cme.solver.Solver` record and reference uids;
* workers run the exact same per-reference unit as the serial solvers
  (:meth:`Solver.solve_ref <repro.cme.solver.Solver.solve_ref>`), so a
  parallel report is bit-identical to the serial one and
  ``MissReport.__eq__`` holds across ``jobs`` (timing fields are excluded
  from equality);
* references are dealt round-robin into a few chunks per worker, which
  balances the skewed RIS volumes of triangular and guarded spaces;
* when observability (:mod:`repro.obs`) is enabled in the parent, each task
  carries a flag telling the worker to record into its *own* registry and
  tracer; finished chunks ship a ``{"metrics", "spans"}`` snapshot back with
  the results and the parent folds it in under its ``parallel/solve`` span —
  so merged counters across any ``jobs`` equal the serial run's, and worker
  time appears nested in the parent's span tree.

:class:`ParallelEngine` keeps the pool (and the per-worker caches) alive
across several solves — e.g. sweeping solvers or seeds, or benchmarks
plotting scaling curves; the serial drivers (``jobs != 1``) open a
one-shot engine.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro import obs
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.reuse.generator import ReuseTable
from repro.cme.backend import make_classifier
from repro.cme.result import MissReport, RefResult
from repro.cme.solver import Solver, run_units

if TYPE_CHECKING:  # repro.memo imports repro.cme.result — keep this lazy
    from repro.memo import Memoizer

#: Chunks dealt per worker; >1 smooths out skewed per-reference volumes.
CHUNKS_PER_JOB = 4

#: Per-worker cache: ``(NormalizedProgram, classifier)`` — the classifier is
#: built by :func:`repro.cme.backend.make_classifier` from the payload.
_STATE: Optional[tuple[NormalizedProgram, object]] = None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a job count: ``None``/``0``/negative mean all CPUs."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _pool_context():
    """Prefer ``fork`` (cheap, inherits the interpreter) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _load_state(payload: bytes) -> None:
    """Unpickle the shared analysis state into this process's cache."""
    global _STATE
    nprog, layout, cache, reuse = pickle.loads(payload)
    _STATE = (nprog, make_classifier(nprog, layout, cache, reuse))


def _init_worker(payload: bytes) -> None:
    """Pool initializer: load the shared state once per worker.

    Observability starts *disabled* in every worker — with the ``fork``
    start method a worker would otherwise inherit a copy of the parent's
    already-accumulated metrics and double-count them on merge.  Each task
    carries its own flag to switch recording on per chunk.
    """
    _load_state(payload)
    obs.disable()


#: A solve task: ``(solver, uids, ship_obs, ship_timeline)``.
Task = tuple[Solver, tuple[int, ...], bool, bool]


def _solve_chunk(task: Task) -> tuple[list[RefResult], float, Optional[dict]]:
    """Solve one chunk of reference uids inside a worker process.

    Returns ``(results, solver_seconds, obs_snapshot)``.  The snapshot is
    ``None`` unless the task's ``ship_obs`` flag is set, in which case the
    worker-local metrics and spans recorded while solving this chunk are
    serialised and the worker-side instruments reset (so chunks never
    double-count).  ``ship_timeline`` additionally ships the individual
    span events (with this worker's pid, so the parent's Chrome-trace
    export renders each worker as its own lane) and the worker's peak RSS
    (``parallel.worker_peak_rss_bytes``).
    """
    from repro.obs.resource import peak_rss_bytes

    solver, uids, ship_obs, ship_timeline = task
    assert _STATE is not None, "worker used before initialisation"
    nprog, classifier = _STATE
    if ship_obs and not obs.is_enabled():
        obs.enable()
    if ship_timeline:
        obs.enable_timeline()
    started = time.perf_counter()
    results = [
        solver.solve_ref(classifier, nprog, nprog.refs[uid]) for uid in uids
    ]
    solver_seconds = time.perf_counter() - started
    snap: Optional[dict] = None
    if ship_obs:
        obs.histogram("parallel.worker_peak_rss_bytes").observe(
            float(peak_rss_bytes())
        )
        snap = {
            "metrics": obs.registry().snapshot(),
            "spans": obs.tracer().snapshot(),
        }
        if ship_timeline:
            snap["timeline"] = obs.timeline_events()
        obs.reset()
    return results, solver_seconds, snap


def _deal_chunks(uids: Sequence[int], jobs: int) -> list[tuple[int, ...]]:
    """Round-robin the uids into at most ``jobs * CHUNKS_PER_JOB`` chunks."""
    n = max(1, min(len(uids), jobs * CHUNKS_PER_JOB))
    return [tuple(uids[i::n]) for i in range(n)]


class ParallelEngine:
    """A process pool bound to one prepared analysis state.

    The constructor pickles the state once; :meth:`solve` then dispatches
    per-reference chunks for any :class:`~repro.cme.solver.Solver`.  The
    pool is created lazily (and only when ``jobs > 1``) so an engine with
    ``jobs=1`` is a zero-overhead serial solver — handy for sweeping the
    ``jobs`` axis in benchmarks with one code path.
    """

    def __init__(
        self,
        nprog: NormalizedProgram,
        layout: MemoryLayout,
        cache: CacheConfig,
        reuse: ReuseTable,
        jobs: Optional[int] = None,
        memo: Optional["Memoizer"] = None,
    ):
        self.nprog = nprog
        self.layout = layout
        self.cache = cache
        self.reuse = reuse
        self.memo = memo
        self.jobs = resolve_jobs(jobs)
        self._payload = pickle.dumps(
            (nprog, layout, cache, reuse),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(self._payload,),
            )
        return self._pool

    # -- solving -----------------------------------------------------------------

    def solve(
        self, solver: Solver, refs: Optional[Iterable[NRef]] = None
    ) -> MissReport:
        """Solve ``refs`` (default: every reference) across the pool.

        Memo planning happens in the parent, against its preloaded store
        snapshot, *before* sharding: only one representative per distinct
        equation system is dispatched; workers never touch the store.  The
        plan is :func:`~repro.cme.solver.run_units`'s, as in the serial
        solvers, so ``memo.*`` counters match across any ``jobs`` value.
        """
        started = time.perf_counter()
        targets = list(refs) if refs is not None else list(self.nprog.refs)
        seconds = []

        def solve_refs(todo: list) -> dict[int, RefResult]:
            by_uid, solver_seconds = self._solve_refs(solver, todo)
            seconds.append(solver_seconds)
            return by_uid

        report = run_units(
            solver, self.nprog, self.layout, self.cache, self.reuse, targets,
            self.memo, solve_refs,
        )
        report.jobs = self.jobs
        report.solver_seconds = sum(seconds)
        report.elapsed_seconds = time.perf_counter() - started
        if obs.is_enabled():
            report.metrics = obs.snapshot()
        return report

    def _solve_refs(
        self, solver: Solver, refs: list
    ) -> tuple[dict[int, RefResult], float]:
        """``({uid: RefResult} in ``refs`` order, solver seconds)``."""
        uids = [ref.uid for ref in refs]
        obs.gauge("parallel.jobs").set(self.jobs)
        with obs.span("parallel/solve"):
            if not uids:
                return {}, 0.0
            if self.jobs <= 1 or len(uids) <= 1:
                # Serial path through the identical chunk code (no pool).
                # ``ship_obs=False``: this process's live instruments record
                # directly, so nothing must be snapshot/reset here.
                return self._solve_here(solver, uids)
            pool = self._ensure_pool()
            ship_obs = obs.is_enabled()
            ship_timeline = obs.timeline_enabled()
            chunks = _deal_chunks(uids, self.jobs)
            shard_hist = obs.histogram("parallel.shard_size")
            for chunk in chunks:
                shard_hist.observe(len(chunk))
            obs.counter("parallel.chunks").inc(len(chunks))
            tasks = [
                (solver, chunk, ship_obs, ship_timeline) for chunk in chunks
            ]
            by_uid = {}
            solver_seconds = 0.0
            worker_hist = obs.histogram("parallel.worker_seconds")
            try:
                for results, chunk_seconds, snap in pool.map(
                    _solve_chunk, tasks
                ):
                    solver_seconds += chunk_seconds
                    worker_hist.observe(chunk_seconds)
                    if snap is not None:
                        obs.merge_snapshot(snap)
                    for r in results:
                        by_uid[r.ref_uid] = r
            except BrokenProcessPool:
                # A worker died mid-task (OOM-killed, crashed).  The
                # per-reference work is deterministic and the parent holds
                # the full state, so recover by re-solving the whole shard
                # serially — identical results, degraded wall time, and a
                # counter so the ledger records it.
                obs.counter("parallel.pool_broken").inc()
                self.close()
                return self._solve_here(solver, uids)
            # Reassemble in the caller's reference order: identical to serial.
            return {uid: by_uid[uid] for uid in uids}, solver_seconds

    def _solve_here(
        self, solver: Solver, uids: list
    ) -> tuple[dict[int, RefResult], float]:
        """Solve ``uids`` in this process through the worker's chunk code."""
        _load_state(self._payload)
        results, solver_seconds, _ = _solve_chunk(
            (solver, tuple(uids), False, False)
        )
        return {r.ref_uid: r for r in results}, solver_seconds
