"""The geometry-free decision store: solve once per line size.

Of the work the batch classifier does for one reference, only the
replacement equations read the number of sets and the associativity.
The ``EstimateMisses`` sample (seeded by ``seed ^ uid``, sized from
``(c, w)`` and the population), the cold equations (RIS membership of the
producer and the same-line test: which points a reuse vector decides, and
the consumer lines), the window-oracle choice, the window ends and the
whole-program line trace all depend on the program, its layout and the
line size alone.  A :class:`DecisionStore` keeps them once per reuse table
and ``(layout, line size)`` (:meth:`repro.reuse.generator.ReuseTable.derived`),
so the direct, 2-way and 4-way columns of the paper's Table 6 pay for the
geometry-free work once, and every later geometry only for its
replacement windows.

Entries are keyed by what determines them — the reference's uid, plus
``(c, w, seed ^ uid)`` for a sample rather than the whole RIS — never by
hashing point arrays, and each is a pure function of its key: concurrent
solvers (the daemon's dispatcher threads, solving two geometries of one
program) publish with ``dict.setdefault`` and keep whichever copy landed
first.

Every store shares one byte budget, :data:`DECISION_STORE_BYTES`: past it
the least recently used entries of any store go first, under a lock, and
an entry larger than an eighth of it is used once and not kept, so one
large exhaustive reference cannot flush the whole store.  Evicting an
entry only costs a recomputation, never a different answer.  Stores are
never pickled (``ReuseTable.__getstate__`` drops them), so a process
that unpickles a table starts empty.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

#: Bytes of arrays every decision store in the process keeps together.  A
#: whole ``table6-estimate`` pass of ``perfbench`` keeps about 1.3 MiB of
#: samples and decisions, a ``kernels-exact`` pass about 5.5 MiB; the cap
#: bounds a long-lived daemon however many programs it analyses.
DECISION_STORE_BYTES = 8 << 20

_LOCK = threading.Lock()
#: ``(store token, key) -> (the store's entries, bytes)``, least recent
#: first.  The ledger holds the entries, not the store: a store whose reuse
#: table is gone keeps its entries until they age out, inside the budget.
_LEDGER: "OrderedDict[tuple, tuple[dict, int]]" = OrderedDict()
_BYTES = 0
_TOKENS = itertools.count()


def stored_bytes() -> int:
    """Bytes held by every decision store (tests and diagnostics)."""
    return _BYTES


class DecisionStore:
    """Geometry-free per-reference facts of one ``(reuse table, layout,
    line size)``, under the process-wide byte budget."""

    __slots__ = ("_entries", "_token")

    def __init__(self):
        self._entries: dict = {}
        self._token = next(_TOKENS)  # unlike id(), never reused

    def get(self, key: Hashable) -> Optional[Any]:
        """The entry under ``key`` (marked recently used), or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            slot = (self._token, key)
            with _LOCK:
                if slot in _LEDGER:
                    _LEDGER.move_to_end(slot)
        return value

    def put(self, key: Hashable, value: Any, nbytes: int) -> Any:
        """Publish ``value`` (``nbytes`` of arrays) under ``key``.

        Returns the entry to use: ``value``, or the copy another thread
        published first.  An entry past an eighth of the budget is not
        kept.
        """
        global _BYTES
        if nbytes > DECISION_STORE_BYTES // 8:
            return value
        kept = self._entries.setdefault(key, value)
        if kept is not value:
            return kept
        with _LOCK:
            _LEDGER[self._token, key] = (self._entries, nbytes)
            _BYTES += nbytes
            while _BYTES > DECISION_STORE_BYTES:
                (_, old), (entries, size) = _LEDGER.popitem(last=False)
                entries.pop(old, None)
                _BYTES -= size
        return kept

