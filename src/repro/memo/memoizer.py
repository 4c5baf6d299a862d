"""In-run dedup + cross-run persistence of per-reference CME solutions.

The :class:`Memoizer` holds one shared result table for a process; each
solver invocation opens a :class:`MemoSession` binding the table to the
analysis state (program, layout, cache, reuse table, method parameters) and
asks it to :meth:`~MemoSession.plan` the target references.  The plan
partitions the targets into

* **replays** — references whose key already has a solution (from earlier
  in this run, or from the persistent store), and
* **solves** — one representative per distinct *new* equation system.

Every executor — serial, the process pool and the daemon's thread pool —
plans through :func:`repro.cme.solver.run_units` and then solves exactly
``plan.solve``, so the ``memo.hits`` / ``memo.misses`` /
``memo.dedup.groups`` counters are identical for any ``--jobs`` value — a
duplicate of a not-yet-solved system counts as a hit in either case,
because only one classification pays for the whole group.  Each plan also
counts its own store hits, so a request's accounting is its own even when
concurrent requests share the memoizer.

Replayed results are rebuilt by :func:`replay` with the *consumer's* own
name and uid, so a memoized report is field-for-field identical to an
unmemoized one.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro import obs
from repro.cme.result import RefResult
from repro.memo.key import KeyBuilder
from repro.memo.store import MemoStore

if TYPE_CHECKING:  # imported lazily to avoid cycles with the solvers
    from repro.layout.cache import CacheConfig
    from repro.layout.memory import MemoryLayout
    from repro.cme.solver import Solver
    from repro.normalize.nprogram import NormalizedProgram, NRef
    from repro.reuse.generator import ReuseTable


def payload_of(result: RefResult) -> list:
    """The storable tallies of ``result`` (name/uid are per-consumer)."""
    return [
        result.population,
        result.analysed,
        result.cold,
        result.replacement,
        result.hits,
    ]


def replay(payload: Sequence[int], ref: "NRef") -> RefResult:
    """A :class:`RefResult` for ``ref`` carrying the memoized tallies."""
    population, analysed, cold, replacement, hits = payload
    return RefResult(
        ref.name(),
        ref.uid,
        population=population,
        analysed=analysed,
        cold=cold,
        replacement=replacement,
        hits=hits,
    )


class Memoizer:
    """Process-wide memo table, optionally backed by a persistent store.

    Counters (mirrored into ``obs`` metrics):

    * ``hits`` — references answered without classification;
    * ``misses`` — distinct systems actually classified;
    * ``groups`` — distinct keys seen (``hits + misses`` counts refs);
    * ``store_hits`` — the subset of hits answered from disk.

    One memoizer may be shared by concurrent threads (the service daemon
    plans every request through a single process-wide instance): planning,
    recording and flushing all serialise on :attr:`lock`, so counters and
    the result table stay consistent under concurrent sessions.
    """

    def __init__(self, store: Optional[MemoStore] = None):
        self.store = store
        #: Serialises plan/record/flush across threads sharing this table.
        self.lock = threading.RLock()
        self._results: dict[str, list] = {}  # solved this run
        self._persisted = store.load() if store is not None else {}
        self._new: dict[str, list] = {}  # solved this run, not yet on disk
        self._seen: set[str] = set()  # keys counted towards ``groups``
        self.hits = 0
        self.misses = 0
        self.groups = 0
        self.store_hits = 0

    @classmethod
    def open(cls, cache_dir: str) -> "Memoizer":
        """A memoizer persisting to ``cache_dir`` (created if missing)."""
        return cls(MemoStore.at(cache_dir))

    @property
    def persisted(self) -> int:
        """Number of solutions loaded from the persistent store."""
        return len(self._persisted)

    def session(
        self,
        solver: "Solver",
        nprog: "NormalizedProgram",
        layout: "MemoryLayout",
        cache: "CacheConfig",
        reuse: "ReuseTable",
    ) -> "MemoSession":
        """Bind the memo table to one solve of ``solver`` over an analysis
        state; the solver supplies the method and per-reference key
        parameters."""
        return MemoSession(self, solver, nprog, layout, cache, reuse)

    def flush(self) -> int:
        """Write solutions accumulated since the last flush to the store."""
        if self.store is None:
            return 0
        with self.lock:
            written = len(self._new)
            if written or self.store._stale:
                with obs.span("memo/store"):
                    self.store.append(self._new)
                self._persisted.update(self._new)
                self._new = {}
            return written

    def __enter__(self) -> "Memoizer":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()

    # -- internal (used by MemoSession/MemoPlan) -------------------------------

    def _record(self, key: str, payload: list) -> None:
        with self.lock:
            self._results[key] = payload
            if self.store is not None and key not in self._persisted:
                self._new[key] = payload


class MemoSession:
    """Key computation + planning for one solver invocation."""

    def __init__(
        self,
        memo: Memoizer,
        solver: "Solver",
        nprog: "NormalizedProgram",
        layout: "MemoryLayout",
        cache: "CacheConfig",
        reuse: "ReuseTable",
    ):
        self.memo = memo
        self.solver = solver
        self._builder = KeyBuilder(nprog, layout, cache, reuse)
        self._keys: dict[int, str] = {}

    def key_for(self, ref: "NRef") -> str:
        """The content key of ``ref`` under this session's parameters."""
        key = self._keys.get(ref.uid)
        if key is None:
            solver = self.solver
            key = self._builder.key(ref, solver.method, solver.memo_params(ref))
            self._keys[ref.uid] = key
        return key

    def plan(self, targets: Iterable["NRef"]) -> "MemoPlan":
        """Partition ``targets`` into replays and representative solves."""
        memo = self.memo
        plan = MemoPlan(self, list(targets))
        with memo.lock, obs.span("memo/probe"):
            pending: dict[str, int] = {}  # key -> index of the representative
            for ref in plan.targets:
                key = self.key_for(ref)
                if key not in memo._seen:
                    memo._seen.add(key)
                    memo.groups += 1
                    obs.counter("memo.dedup.groups").inc()
                payload = memo._results.get(key)
                if payload is None:
                    payload = memo._persisted.get(key)
                    if payload is not None:
                        memo.store_hits += 1
                        plan.store_hits += 1
                        obs.counter("memo.store.hits").inc()
                if payload is not None:
                    memo.hits += 1
                    obs.counter("memo.hits").inc()
                    plan._replays.append((ref, key, payload))
                elif key in pending:
                    # A duplicate of a system already queued for solving:
                    # the group is classified once, so this ref is a hit.
                    memo.hits += 1
                    obs.counter("memo.hits").inc()
                    plan._replays.append((ref, key, None))
                else:
                    memo.misses += 1
                    obs.counter("memo.misses").inc()
                    pending[key] = len(plan.solve)
                    plan.solve.append(ref)
        return plan


class MemoPlan:
    """The work split of one solver invocation.

    Solve every reference in :attr:`solve` (in order — the list preserves
    the target order, which the parallel engine relies on for deterministic
    sharding), feed each result to :meth:`add`, then call :meth:`finish` to
    obtain the complete ``uid -> RefResult`` mapping including replays.
    """

    def __init__(self, session: MemoSession, targets: list):
        self.session = session
        self.targets = targets
        self.solve: list = []  # representative refs that need classification
        self.store_hits = 0  # replays answered from the persistent store
        self._replays: list = []  # (ref, key, payload-or-None)
        self._solved: dict[str, list] = {}

    @property
    def replays(self) -> int:
        """References answered without classification under this plan."""
        return len(self._replays)

    def add(self, ref: "NRef", result: RefResult) -> None:
        """Record the classification of one representative reference."""
        key = self.session.key_for(ref)
        payload = payload_of(result)
        self._solved[key] = payload
        self.session.memo._record(key, payload)

    def finish(self, results: dict[int, RefResult]) -> dict[int, RefResult]:
        """Fill in the replayed duplicates; returns ``uid -> RefResult``
        in original target order (so memoized and unmemoized reports render
        identically, not just compare equal)."""
        for ref, key, payload in self._replays:
            if payload is None:
                payload = self._solved[key]
            results[ref.uid] = replay(payload, ref)
        return {ref.uid: results[ref.uid] for ref in self.targets}
