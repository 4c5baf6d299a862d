"""Service throughput/latency: the daemon under concurrent clients.

Drives a real :class:`~repro.serve.server.AnalysisServer` over loopback
HTTP with N ∈ {1, 4, 16} concurrent clients issuing a fixed mixed workload
of 16 distinct (kernel, size, cache) FindMisses requests, twice per
concurrency level:

* **cold** — a fresh server, every equation system solved from scratch;
* **warm** — the same requests again against the same server, so every
  reference replays from the shared cross-request memo table.

Emits ``BENCH_service.json`` with p50/p99 latency and request throughput
per level; the headline is ``warm_speedup_p50`` — how much the shared
memoizer buys a steady-state daemon (the PR floor asserts ≥ 5×).
"""

import statistics
import sys
import threading
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json  # noqa: E402

from repro.report import format_table  # noqa: E402
from repro.serve import AnalysisServer, ServeClient  # noqa: E402

#: 16 distinct request documents cycling kernels, sizes and geometries.
REQUESTS = [
    {
        "kernel": ["hydro", "mgrid", "mmt"][i % 3],
        "size": [22, 10, 18][i % 3] + 2 * (i // 3),
        "cache": ["2:32:1", "4:32:2", "4:32:4"][i % 3],
        "method": "find",
        "timeout": 300.0,
    }
    for i in range(16)
]

LEVELS = (1, 4, 16)


def run_pass(url: str, n_clients: int) -> list:
    """All 16 requests split across ``n_clients`` concurrent clients;
    returns per-request latencies in seconds."""
    latencies: list = [None] * len(REQUESTS)
    errors: list = []

    def worker(cid: int):
        client = ServeClient(url, timeout=300.0)
        for i in range(cid, len(REQUESTS), n_clients):
            doc = dict(REQUESTS[i], client=f"bench-{cid}")
            started = time.perf_counter()
            try:
                client.analyze(doc)
            except Exception as exc:  # surfaced after the join
                errors.append((i, exc))
                return
            latencies[i] = time.perf_counter() - started

    threads = [
        threading.Thread(target=worker, args=(cid,))
        for cid in range(n_clients)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"bench requests failed: {errors}")
    return latencies, wall


def quantile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cut = statistics.quantiles(ordered, n=100, method="inclusive")
    return cut[min(98, max(0, int(q * 100) - 1))]


def pass_stats(latencies, wall):
    return {
        "requests": len(latencies),
        "p50_seconds": quantile(latencies, 0.50),
        "p99_seconds": quantile(latencies, 0.99),
        "req_per_s": len(latencies) / wall if wall > 0 else 0.0,
        "wall_seconds": wall,
    }


def run_level(n_clients: int) -> dict:
    """Cold + warm pass at one concurrency level on a fresh server."""
    with AnalysisServer(port=0, dispatchers=4).start() as server:
        cold = pass_stats(*run_pass(server.url, n_clients))
        warm = pass_stats(*run_pass(server.url, n_clients))
        memo = dict(
            hits=server.memo.hits,
            misses=server.memo.misses,
            groups=server.memo.groups,
        )
    return {
        "clients": n_clients,
        "cold": cold,
        "warm": warm,
        "warm_speedup_p50": cold["p50_seconds"] / warm["p50_seconds"],
        "memo": memo,
    }


def compute_levels():
    return [run_level(n) for n in LEVELS]


def test_service_throughput(benchmark):
    started = time.perf_counter()
    levels = benchmark.pedantic(compute_levels, rounds=1, iterations=1)
    seconds = time.perf_counter() - started
    rows = [
        (
            level["clients"],
            f"{level['cold']['p50_seconds'] * 1e3:.1f}",
            f"{level['warm']['p50_seconds'] * 1e3:.1f}",
            f"{level['cold']['p99_seconds'] * 1e3:.1f}",
            f"{level['warm']['p99_seconds'] * 1e3:.1f}",
            f"{level['cold']['req_per_s']:.1f}",
            f"{level['warm']['req_per_s']:.1f}",
            f"{level['warm_speedup_p50']:.1f}x",
        )
        for level in levels
    ]
    text = format_table(
        [
            "Clients",
            "cold p50 (ms)",
            "warm p50 (ms)",
            "cold p99 (ms)",
            "warm p99 (ms)",
            "cold req/s",
            "warm req/s",
            "p50 speedup",
        ],
        rows,
        title="Analysis service — 16 mixed FindMisses requests per pass",
    )
    emit("service", text)
    emit_json(
        "BENCH_service",
        {"wall_seconds": seconds, "levels": levels},
        wall_seconds=seconds,
        config={"levels": list(LEVELS), "requests": len(REQUESTS)},
    )
    # The shared memoizer is the whole point of the daemon: a warm pass
    # must beat the cold one by a wide margin at every concurrency level.
    for level in levels:
        assert level["warm_speedup_p50"] >= 5.0, level
        assert level["memo"]["hits"] > 0
