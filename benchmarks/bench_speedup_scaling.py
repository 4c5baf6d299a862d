"""The headline claim: analysis cost is flat in trace length; simulation is
linear (Applu: 128 s vs ~5 h, "three orders of magnitude").

``EstimateMisses`` classifies a *fixed* number of sampled points per
reference — set by (c, w), independent of the iteration counts — while the
simulator must replay every access.  Sweeping the Tomcatv-class program's
time-step count multiplies the trace length without changing the code
shape; the measured analysis/simulation time ratio must grow with it.

The paper's Exe.T is the whole analysis, so the table also times the
reuse-vector build (set-up that ``Analysis t(s)`` leaves out, once per
program and line size) and reports the ratio both ways.
"""

import sys
from time import perf_counter

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, emit_json, once, timed_once

from repro import CacheConfig, analyze, obs, prepare, run_simulation
from repro.obs.export import top_counters, validate_snapshot
from repro.programs import build_tomcatv_like
from repro.report import format_table

STEPS = [1, 2, 4, 8]
N = 32


def compute_rows():
    rows = []
    for steps in STEPS:
        prepared = prepare(build_tomcatv_like(N, steps))
        cache = CacheConfig.kb(4, 32, 1)
        started = perf_counter()
        prepared.reuse_table(cache.line_bytes)
        reuse_seconds = perf_counter() - started
        est = analyze(prepared, cache, method="estimate", seed=0)
        sim = run_simulation(prepared, cache)
        rows.append(
            (
                steps,
                sim.total_accesses,
                est.analysed_points,
                est.elapsed_seconds,
                sim.elapsed_seconds,
                sim.elapsed_seconds / max(est.elapsed_seconds, 1e-9),
                reuse_seconds,
                sim.elapsed_seconds
                / max(reuse_seconds + est.elapsed_seconds, 1e-9),
                abs(est.miss_ratio_percent - sim.miss_ratio_percent),
            )
        )
    return rows


def compute_pipeline_metrics():
    """One fully observed end-to-end run: prepare → reuse → solve → sim."""
    obs.enable()
    obs.reset()
    try:
        prepared = prepare(build_tomcatv_like(N, 4))
        cache = CacheConfig.kb(4, 32, 1)
        analyze(prepared, cache, method="estimate", seed=0)
        run_simulation(prepared, cache)
        snapshot = obs.snapshot()
        phases = [
            {"name": name, "count": count, "seconds": seconds}
            for name, count, seconds in obs.phase_times()
        ]
    finally:
        obs.disable()
    return {
        "schema": "repro.bench.pipeline/v1",
        "workload": f"tomcatv-like N={N} steps=4",
        "cache": "4KB/32B direct",
        "phases": phases,
        "top_counters": dict(top_counters(snapshot, k=3)),
        "metrics": snapshot,
    }


def test_pipeline_metrics(benchmark):
    """Emit BENCH_pipeline.json: per-phase wall times + top-3 counters.

    This is the perf-trajectory anchor — future PRs compare their phase
    breakdown against this file to show where an optimisation moved time.
    """
    doc, seconds = timed_once(benchmark, compute_pipeline_metrics)
    doc["wall_seconds"] = seconds
    emit_json("BENCH_pipeline", doc)
    phase_names = {p["name"] for p in doc["phases"]}
    assert {"prepare/normalise", "prepare/layout", "reuse/build_table",
            "cme/estimate", "sim/batch"} <= phase_names
    assert all(p["seconds"] >= 0.0 for p in doc["phases"])
    assert len(doc["top_counters"]) == 3
    assert validate_snapshot(doc["metrics"]) == []


def test_speedup_scaling(benchmark):
    rows = once(benchmark, compute_rows)
    text = format_table(
        [
            "Steps",
            "Trace len",
            "Sampled",
            "Analysis t(s)",
            "Sim t(s)",
            "Sim/Analysis",
            "Reuse t(s)",
            "Sim/(Reuse+Analysis)",
            "Abs.Err",
        ],
        rows,
        title=(
            "Speedup scaling — Tomcatv-class, 4KB/32B direct "
            "(paper: Applu 128 s analysis vs ~5 h simulation)"
        ),
    )
    emit("speedup_scaling", text)
    # Trace length grows linearly with steps...
    assert rows[-1][1] > 6 * rows[0][1]
    # ...but the number of analysed points stays flat (sampling).
    assert rows[-1][2] <= rows[0][2] * 1.5
    # Therefore the simulator/analysis time ratio improves with scale.
    assert rows[-1][5] > rows[0][5]
