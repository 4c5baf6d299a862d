"""The append-only run ledger — the perf trajectory, one JSON line per run.

Where ``BENCH_*.json`` files are *snapshots* (each run overwrites the
last), the ledger is *history*: every analysed run — CLI invocations with
``--ledger`` and every benchmark via ``benchmarks/_common.emit_json`` —
appends one self-describing row, and the regression checker
(:mod:`repro.obs.regress`) and HTML dashboard
(:mod:`repro.obs.htmlreport`) read the accumulated trajectory.

The ``repro.ledger/v1`` row schema::

    {
      "schema": "repro.ledger/v1",
      "ts": <unix seconds>,
      "run_id": <12-hex>,                  # unique per row
      "fingerprint": <16-hex>,             # solver code fingerprint
      "host": <str>, "python": <str>,
      "label": <str>,                      # "analyze:hydro", "bench:table3"
      "program": <str|null>,
      "cache": <str|null>,                 # CacheConfig.describe()
      "config": {<solver knobs>},  # part of the baseline key
      "phases": {"<span>": <seconds>},     # top-level span wall times
      "wall_seconds": <number|null>,
      "peak_rss_bytes": <int>,
      "counters": {<dotted.name>: <int>},  # full counter snapshot
      "derived": {"memo.hit_ratio": ..., "points_per_second": ...}
    }

Rows regression-check against each other only when they share a
*baseline key* (:func:`row_key`): the digest of ``(label, program, cache,
config)``.  Change the workload or any solver knob and the history
restarts rather than comparing apples to oranges.

The file is JSON-lines and append-only; a torn final line (crash mid
write) is skipped on read, never repaired in place.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from typing import Optional

LEDGER_SCHEMA = "repro.ledger/v1"


def build_row(
    label: str,
    program: Optional[str] = None,
    cache: Optional[object] = None,
    config: Optional[dict] = None,
    phases: Optional[dict] = None,
    wall_seconds: Optional[float] = None,
    counters: Optional[dict] = None,
    derived: Optional[dict] = None,
) -> dict:
    """Assemble one ledger row, defaulting to the live observability state.

    ``phases`` defaults to the current tracer's top-level span times and
    ``counters`` to the current registry's counter snapshot, so a CLI run
    that just finished under ``obs.enable()`` needs only a label and its
    configuration.  ``cache`` accepts a :class:`~repro.layout.cache.
    CacheConfig` (stored as ``describe()``) or a plain string.
    ``derived`` is merged over the auto-derived ratios.
    """
    import platform

    from repro import obs
    from repro.memo.key import code_fingerprint
    from repro.obs.resource import peak_rss_bytes

    if phases is None:
        phases = {name: secs for name, _count, secs in obs.phase_times()}
    phases = {name: float(secs) for name, secs in phases.items()}
    if counters is None:
        counters = obs.registry().snapshot()["counters"]
    if wall_seconds is None and phases:
        wall_seconds = sum(phases.values())

    auto: dict = {}
    hits = counters.get("memo.hits", 0)
    misses = counters.get("memo.misses", 0)
    if hits + misses:
        auto["memo.hit_ratio"] = hits / (hits + misses)
    if counters.get("sim.backend.fallbacks"):
        auto["sim.backend.fallbacks"] = counters["sim.backend.fallbacks"]
    points = counters.get("cme.points.classified", 0)
    if points and wall_seconds:
        auto["points_per_second"] = points / wall_seconds
    exact = counters.get("cme.regions.exact_regions", 0)
    fallback = counters.get("cme.regions.fallback_regions", 0)
    if exact + fallback:
        # The regional solver's quality signal: the fraction of regions it
        # counted in closed form (vs per-point enumeration fallback).
        auto["regions.exact_ratio"] = exact / (exact + fallback)
    auto.update(derived or {})

    return {
        "schema": LEDGER_SCHEMA,
        "ts": time.time(),
        "run_id": uuid.uuid4().hex[:12],
        "fingerprint": code_fingerprint()[:16],
        "host": platform.node(),
        "python": platform.python_version(),
        "label": label,
        "program": program,
        "cache": cache.describe() if hasattr(cache, "describe") else cache,
        "config": dict(config or {}),
        "phases": phases,
        "wall_seconds": wall_seconds,
        "peak_rss_bytes": peak_rss_bytes(),
        "counters": dict(counters),
        "derived": auto,
    }


def row_key(row: dict) -> str:
    """The baseline key: rows compare only within equal keys.

    Hashes ``(label, program, cache, config)`` — everything that defines
    *what* was measured, nothing about *when* or *how fast*.
    """
    material = json.dumps(
        [
            row.get("label"),
            row.get("program"),
            row.get("cache"),
            row.get("config", {}),
        ],
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()[:12]


def append_row(path: str, row: dict) -> str:
    """Append one row to the ledger at ``path`` (created as needed)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def read_ledger(path: str) -> list[dict]:
    """Every valid row in the ledger, in file (= chronological) order.

    A missing file reads as an empty history; blank lines, torn trailing
    writes and rows of a different schema are skipped silently — the
    ledger is append-only, so damage never propagates.
    """
    rows: list[dict] = []
    if not os.path.exists(path):
        return rows
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict) and row.get("schema") == LEDGER_SCHEMA:
                rows.append(row)
    return rows


def by_key(rows: list[dict]) -> dict[str, list[dict]]:
    """Group rows by baseline key, preserving order within each group."""
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row_key(row), []).append(row)
    return groups
