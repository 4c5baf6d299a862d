"""``repro.memo`` — content-addressed memoization of CME solutions.

The paper's scalability argument (Sections 4–5) rests on *uniformly
generated sets*: references sharing the linear part of their subscript
function give rise to structurally identical Cache Miss Equation systems,
so classifying one member classifies them all.  This package generalises
that observation into a content-addressed cache keyed on everything the
per-reference solvers actually read:

* :mod:`repro.memo.key` — a **canonical structural key** per reference:
  a SHA-256 over the normalised interference span (loop bounds, guards,
  references, memory placement), the reference's position inside it, its
  reuse vectors and the cache geometry ``(C, Ls, k)`` — invariant under
  loop-variable renaming and the reordering of independent nests;
* :mod:`repro.memo.store` — a versioned JSON-lines **persistent store**
  (``--cache-dir``) whose header carries a schema version and a fingerprint
  of the solver source code, so stale entries self-invalidate;
* :mod:`repro.memo.memoizer` — the **in-run dedup layer**: references are
  grouped by key, each distinct equation system is classified once, and
  duplicates replay the stored tallies.  The one solve driver
  (:func:`repro.cme.solver.solve_misses`) plans through it, offline and
  in the daemon alike.

Typical use::

    from repro import CacheConfig, analyze, prepare
    from repro.memo import Memoizer

    prepared = prepare(program)
    with Memoizer.open(".memo") as memo:          # flushes on exit
        report = analyze(prepared, cache, method="find", memo=memo)
"""

from repro.memo.key import KEY_SCHEMA, KeyBuilder, code_fingerprint
from repro.memo.memoizer import (
    MemoPlan,
    MemoSession,
    Memoizer,
    payload_of,
    replay,
)
from repro.memo.store import STORE_SCHEMA, MemoStore

__all__ = [
    "KEY_SCHEMA",
    "KeyBuilder",
    "code_fingerprint",
    "MemoPlan",
    "MemoSession",
    "Memoizer",
    "payload_of",
    "replay",
    "STORE_SCHEMA",
    "MemoStore",
]
