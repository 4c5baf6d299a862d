"""Span timelines as Chrome trace-event JSON.

The span tracer (:mod:`repro.obs.tracer`) *aggregates* — repeated spans
collapse into one tree node — which is the right shape for totals but the
wrong shape for *seeing* a run: a timeline needs every individual span
entry with its start time and its process/thread.  This module adds that
missing view:

* :class:`TimelineRecorder` — a flat, thread-safe event buffer the tracer
  feeds when attached (``tracer.timeline = recorder``); each event is
  ``{name, start, dur, pid, tid}`` with ``start`` in
  :func:`time.perf_counter` seconds;
* :func:`chrome_trace` — renders the events as a Chrome trace-event
  document (``{"traceEvents": [...]}``) of complete (``"ph": "X"``)
  events, loadable in Perfetto / ``chrome://tracing``, with one *lane*
  (pid/tid pair) per process and thread and metadata events naming them;
* :func:`write_chrome_trace` — the file-writing convenience behind the
  CLI's ``--timeline-out``.

Durations are the *same* float the span tree accumulates, so for every
span name the timeline durations sum to the tree's ``seconds`` exactly —
the property the CI smoke job checks between ``--timeline-out`` and
``--metrics-out``.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Optional, Sequence

#: Microseconds per second — Chrome trace timestamps are in microseconds.
_US = 1e6


class TimelineRecorder:
    """A flat, thread-safe buffer of individual span events.

    Attach to a tracer (``tracer.timeline = recorder``) to receive one
    :meth:`record` call per span exit.  The buffer is append-only until
    :meth:`clear`; :meth:`snapshot` returns a JSON-serialisable copy.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[dict] = []

    def record(self, name: str, start: float, elapsed: float) -> None:
        """Append one finished span (called by the tracer on span exit)."""
        event = {
            "name": name,
            "start": start,
            "dur": elapsed,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        with self._lock:
            self._events.append(event)

    def snapshot(self) -> list[dict]:
        """A copy of the recorded events (JSON-serialisable)."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop every recorded event."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def chrome_trace(
    events: Sequence[dict], main_pid: Optional[int] = None
) -> dict:
    """Render span events as a Chrome trace-event document.

    ``events`` is a :meth:`TimelineRecorder.snapshot`.  ``main_pid``
    labels that process's lane ``repro (parent)``; any other pid becomes
    ``worker <pid>``.  Thread ids are renumbered to small integers per
    process (Perfetto renders raw Python thread idents poorly), timestamps
    are shifted so the earliest event starts at 0 and converted to
    microseconds.
    """
    if main_pid is None:
        main_pid = os.getpid()
    origin = min((e["start"] for e in events), default=0.0)

    # Stable lane numbering: parent process first, then workers by pid;
    # within a process, threads in order of first appearance.
    pids = sorted({e["pid"] for e in events}, key=lambda p: (p != main_pid, p))
    tid_map: dict[tuple[int, int], int] = {}
    for e in sorted(events, key=lambda e: e["start"]):
        key = (e["pid"], e["tid"])
        if key not in tid_map:
            per_pid = sum(1 for (p, _t) in tid_map if p == e["pid"])
            tid_map[key] = per_pid

    trace_events: list[dict] = []
    for sort_index, pid in enumerate(pids):
        label = "repro (parent)" if pid == main_pid else f"worker {pid}"
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        trace_events.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": sort_index},
            }
        )
    for (pid, _tid), lane in sorted(tid_map.items(), key=lambda kv: kv[1]):
        name = "main" if lane == 0 else f"thread {lane}"
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": lane,
                "args": {"name": name},
            }
        )
    for e in events:
        trace_events.append(
            {
                "ph": "X",
                "cat": "span",
                "name": e["name"],
                "ts": (e["start"] - origin) * _US,
                "dur": e["dur"] * _US,
                "pid": e["pid"],
                "tid": tid_map[(e["pid"], e["tid"])],
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, events: Sequence[dict], main_pid: Optional[int] = None
) -> int:
    """Write :func:`chrome_trace` JSON to ``path``; returns the event count."""
    doc = chrome_trace(events, main_pid=main_pid)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return len(events)


def sum_durations(events: Sequence[dict]) -> dict[str, float]:
    """Total event duration per span name (across all pids and threads).

    For any run, ``sum_durations(recorder.snapshot())[name]`` equals the
    total ``seconds`` of every tree node called ``name`` in the span
    tree — both sides accumulate the same per-entry floats.
    """
    totals: dict[str, float] = {}
    for e in events:
        totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"]
    return totals
