"""Persistent JSON-lines store for memoized per-reference CME solutions.

On-disk format (``<cache-dir>/cme-memo.jsonl``)::

    {"schema": "repro.memo/v1", "fingerprint": "<sha256 of solver sources>"}
    {"k": "<hex key>", "p": [population, analysed, cold, replacement, hits]}
    {"k": "...", "p": [...]}

The first line is the header.  A missing, unparsable or mismatched header
(wrong schema version *or* wrong code fingerprint) marks the whole file
stale: :meth:`MemoStore.load` returns no entries, bumps the
``memo.store.invalid`` counter, and the next :meth:`MemoStore.append`
rewrites the file from scratch under the current header.  Individually
corrupt lines (truncation, bad JSON, malformed payloads) are skipped with
the same counter bump — a damaged store degrades to a cold run, never to a
crash or a wrong result.

Concurrent writers
------------------

One store file may be appended to by many threads *and* many processes at
once (the service daemon's dispatchers, several CLI runs sharing a
``--cache-dir``).  :meth:`MemoStore.append` is safe
under all of them:

* every append is serialised under an advisory lock on a ``.lock``
  sibling file (``fcntl.flock``; a no-op on platforms without ``fcntl``,
  where the remaining guarantees still hold);
* appended entries are emitted as **one** ``os.write`` on an ``O_APPEND``
  descriptor — POSIX appends are atomic per ``write``, so concurrent
  appends interleave at line-batch granularity and never tear a line;
* a fresh/stale file is rewritten to a private temp file and published
  with ``os.replace`` — readers and other writers only ever observe a
  complete, headered file.

Entries are idempotent (same key ⇒ same payload for one fingerprint), so
the duplicate keys that concurrent cold runs may both persist are
harmless: ``load`` keeps the last occurrence.
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Optional, Sequence

try:
    import fcntl
except ImportError:  # non-POSIX: single-write O_APPEND is the only guard
    fcntl = None

from repro import obs
from repro.memo.key import code_fingerprint

#: On-disk schema version; bump on any change to the file format.
STORE_SCHEMA = "repro.memo/v1"

#: File name used inside a ``--cache-dir`` directory.
STORE_FILENAME = "cme-memo.jsonl"


class _FileLock:
    """Advisory inter-process lock on ``path`` (no-op without ``fcntl``)."""

    def __init__(self, path: str):
        self.path = path
        self._fd: Optional[int] = None

    def __enter__(self) -> "_FileLock":
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


def _valid_payload(payload) -> bool:
    """True for a well-formed ``[population, analysed, cold, repl, hits]``:
    five non-negative integers (JSON ``true``/``false`` are not counts),
    no more analysed than the population, and tallies summing to
    ``analysed``."""
    if not isinstance(payload, list) or len(payload) != 5:
        return False
    if not all(type(n) is int and n >= 0 for n in payload):
        return False
    population, analysed, cold, replacement, hits = payload
    return analysed <= population and analysed == cold + replacement + hits


class MemoStore:
    """One JSON-lines solution store bound to a path and a fingerprint."""

    def __init__(self, path: str, fingerprint: Optional[str] = None):
        self.path = path
        self.fingerprint = fingerprint or code_fingerprint()
        self._stale = False  # set by load(); forces a full rewrite on append

    @classmethod
    def at(cls, cache_dir: str) -> "MemoStore":
        """The store inside ``cache_dir`` (created if missing)."""
        os.makedirs(cache_dir, exist_ok=True)
        return cls(os.path.join(cache_dir, STORE_FILENAME))

    def _header(self) -> str:
        return json.dumps(
            {"schema": STORE_SCHEMA, "fingerprint": self.fingerprint},
            separators=(",", ":"),
        )

    def load(self) -> dict:
        """Read every valid entry, keyed by hex key.

        Never raises on a damaged file: a bad header invalidates the whole
        store, bad lines are skipped, and each problem bumps
        ``memo.store.invalid``.
        """
        entries: dict[str, list] = {}
        try:
            fh = open(self.path, "rb")
        except OSError:
            return entries
        with fh:
            # Each line is decoded inside its ``try``: a torn write can
            # leave bytes that are not UTF-8 (UnicodeDecodeError is a
            # ValueError).
            try:
                header = json.loads(fh.readline().decode("utf-8"))
                ok = (
                    isinstance(header, dict)
                    and header.get("schema") == STORE_SCHEMA
                    and header.get("fingerprint") == self.fingerprint
                )
            except ValueError:
                ok = False
            if not ok:
                self._stale = True
                obs.counter("memo.store.invalid").inc()
                return entries
            for line in fh:
                try:
                    entry = json.loads(line.decode("utf-8"))
                    key = entry["k"]
                    payload = entry["p"]
                    if not isinstance(key, str) or not _valid_payload(payload):
                        raise ValueError(line)
                except (ValueError, KeyError, TypeError):
                    obs.counter("memo.store.invalid").inc()
                    continue
                entries[key] = payload
        obs.counter("memo.store.loaded").inc(len(entries))
        return entries

    def append(self, entries: Mapping[str, Sequence[int]]) -> None:
        """Persist ``entries``; rewrites the file when missing or stale.

        Safe under concurrent writers — threads and processes — see the
        module docstring for the exact guarantees.
        """
        if not entries and not self._stale and os.path.exists(self.path):
            return
        lines = "".join(
            json.dumps({"k": key, "p": list(payload)}, separators=(",", ":"))
            + "\n"
            for key, payload in entries.items()
        )
        with _FileLock(self.path + ".lock"):
            # Re-check under the lock: a concurrent writer may have
            # created/rewritten the file since we looked.
            fresh = self._stale or not os.path.exists(self.path)
            if fresh:
                tmp = f"{self.path}.tmp.{os.getpid()}"
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(self._header() + "\n" + lines)
                os.replace(tmp, self.path)
                self._stale = False
            elif lines:
                fd = os.open(
                    self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
                )
                try:
                    os.write(fd, lines.encode("utf-8"))
                finally:
                    os.close(fd)
        obs.counter("memo.store.appended").inc(len(entries))
