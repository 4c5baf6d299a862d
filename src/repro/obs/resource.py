"""Resource accounting: peak RSS, GC activity, optional tracemalloc.

Everything here is stdlib-only, mirroring the zero-dependency discipline
of the rest of :mod:`repro.obs`:

* :func:`peak_rss_bytes` — the process's lifetime peak resident set, from
  ``resource.getrusage`` (``ru_maxrss`` is kilobytes on Linux, bytes on
  macOS; normalised to bytes here).  Returns 0 on platforms without the
  ``resource`` module;
* :class:`SpanResourceMonitor` — attaches to the tracer's exit hook and
  records, per span name, the peak RSS observed at that span's last exit
  (gauge ``resource.rss_peak_bytes.<name>``); :meth:`finalize` adds the
  run-wide gauges (``resource.peak_rss_bytes``, GC collection/collected
  deltas since install);
* :class:`MemProfiler` — opt-in ``tracemalloc`` wrapper behind the CLI's
  ``--mem-profile``: start, run, and report the top-N allocation sites
  plus the traced-memory peak (gauge ``resource.tracemalloc_peak_bytes``).

``ru_maxrss`` is monotonic (a lifetime high-water mark), so the per-span
gauges read as "how high had memory climbed by the time this phase
finished" — the jump between consecutive phases attributes growth.
"""

from __future__ import annotations

import gc
import sys
from typing import Callable, Optional

try:
    import resource as _resource
except ImportError:  # pragma: no cover — Windows
    _resource = None


def peak_rss_bytes() -> int:
    """Lifetime peak resident-set size of this process, in bytes."""
    if _resource is None:  # pragma: no cover — Windows
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def gc_totals() -> tuple[int, int, int]:
    """``(collections, collected, uncollectable)`` summed over generations."""
    collections = collected = uncollectable = 0
    for stat in gc.get_stats():
        collections += stat.get("collections", 0)
        collected += stat.get("collected", 0)
        uncollectable += stat.get("uncollectable", 0)
    return collections, collected, uncollectable


class SpanResourceMonitor:
    """Per-span peak-RSS and run-wide GC accounting via tracer hooks.

    Chains with whatever exit hook is already installed (the profiling
    layer uses the same slot), so ``--profile-span`` and resource
    accounting compose.
    """

    def __init__(self):
        self._tracer = None
        self._prev_exit: Optional[Callable[[str], None]] = None
        self._gc_base = gc_totals()

    def install(self, tracer) -> None:
        """Start recording: wrap the tracer's ``on_exit`` hook."""
        from repro import obs

        self._tracer = tracer
        self._prev_exit = tracer.on_exit
        self._gc_base = gc_totals()

        def on_exit(name: str) -> None:
            obs.gauge(f"resource.rss_peak_bytes.{name}").set(
                float(peak_rss_bytes())
            )
            if self._prev_exit is not None:
                self._prev_exit(name)

        tracer.on_exit = on_exit

    def uninstall(self) -> None:
        """Restore the previous exit hook (idempotent)."""
        if self._tracer is not None:
            self._tracer.on_exit = self._prev_exit
            self._tracer = None
            self._prev_exit = None

    def finalize(self) -> None:
        """Record the run-wide gauges (call before exporting metrics)."""
        from repro import obs

        obs.gauge("resource.peak_rss_bytes").set(float(peak_rss_bytes()))
        collections, collected, uncollectable = gc_totals()
        base_collections, base_collected, base_uncollectable = self._gc_base
        obs.gauge("resource.gc.collections").set(
            collections - base_collections
        )
        obs.gauge("resource.gc.collected").set(collected - base_collected)
        obs.gauge("resource.gc.uncollectable").set(
            uncollectable - base_uncollectable
        )


class MemProfiler:
    """Opt-in ``tracemalloc`` top-N allocation-site attribution.

    Usage (what ``--mem-profile`` does)::

        prof = MemProfiler(top=10)
        prof.start()
        ...           # the traced work
        sites = prof.stop()   # [{"site", "size_bytes", "count"}, ...]
    """

    def __init__(self, top: int = 10):
        self.top = top
        self.peak_bytes = 0
        self._started = False

    def start(self) -> None:
        import tracemalloc

        tracemalloc.start()
        self._started = True

    def stop(self) -> list[dict]:
        """Stop tracing; return the top-N allocation sites by total size."""
        import tracemalloc

        if not self._started:
            return []
        snapshot = tracemalloc.take_snapshot()
        self.peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        self._started = False

        from repro import obs

        obs.gauge("resource.tracemalloc_peak_bytes").set(
            float(self.peak_bytes)
        )
        sites = []
        for stat in snapshot.statistics("lineno")[: self.top]:
            frame = stat.traceback[0]
            sites.append(
                {
                    "site": f"{frame.filename}:{frame.lineno}",
                    "size_bytes": stat.size,
                    "count": stat.count,
                }
            )
        return sites

    @staticmethod
    def format_sites(sites: list[dict]) -> str:
        """Human-readable report lines for stderr."""
        lines = ["tracemalloc top allocation sites:"]
        if not sites:
            lines.append("  (no allocations traced)")
        for s in sites:
            lines.append(
                f"  {s['size_bytes'] / 1024.0:10.1f} KiB  "
                f"x{s['count']:<8d} {s['site']}"
            )
        return "\n".join(lines)
