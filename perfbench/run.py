"""End-to-end and per-layer benchmark of ``repro``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table6-estimate --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs the same
work once untraced and once with benchmark-side spans around each layer's
public functions, prints each layer's self time and the per-layer metrics,
and writes the spans as a Chrome trace.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything the run writes goes under ``--out`` (default ``.perfbench``).
``--inject-fault`` replaces the first answer of every oracle check with a
wrong one; the run must then report ``failed > 0``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from statistics import median

sys.dont_write_bytecode = True  # keep the checkout clean

import tracing  # noqa: E402  (imports nothing from repro)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("table6-estimate", "table6-jobs2", "kernels-exact", "serve-mixed")

#: Nominal seconds of one pass of each workload on the reference machine;
#: ``--seconds`` buys ``round(seconds / nominal)`` passes (at least one),
#: so both commits of a comparison do the same work.
NOMINAL_PASS_S = {
    "table6-estimate": 30.0,
    "table6-jobs2": 30.0,
    "kernels-exact": 25.0,
    "serve-mixed": 12.5,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "analysis_s": "s",
    "sim_s": "s",
    "abs_err_max_pp": "pct-points",
    "req_per_s": "req/s",
    "cold_p50_s": "s",
    "warm_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "ratio",
}

#: Layers timed by the traced run (span name -> metric ``<name>_s``).
TIMED_LAYERS = tuple(dict.fromkeys(
    name for name, *_ in tracing.FUNCTIONS + tracing.METHODS
))

PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in TIMED_LAYERS},
    "reuse.vectors": "count",
    "cme.points": "count",
    "cme.points_per_s": "1/s",
    "polyhedra.region_coverage": "ratio",
    "cme.regions_fallback_share": "ratio",
    "sim.accesses_per_s": "1/s",
    "parallel.speedup": "ratio",
    "parallel.overhead_s": "s",
    "memo.hit_ratio": "ratio",
    "memo.replays": "count",
    "serve.server_p50_s": "s",
    "serve.client_overhead_s": "s",
    "serve.rejected": "count",
    "trace.overhead_share": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench")
    ap.add_argument("--inject-fault", action="store_true")
    return ap.parse_args(argv)


def quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile: a Beta-weighted
    mean of all order statistics.  With a few dozen latencies of unlike
    cost, a plain order statistic jumps from one sample to its neighbour
    when two swap ranks; on kernels-exact the plain median of the cold
    answers spread by 0.17 over five seeds, this estimate by 0.06-0.09
    over ten.

    SciPy is imported here, after every pass, so that the parent process
    of the pool workload has not imported it when the pool forks.
    """
    if len(values) == 1:  # hdquantiles masks the estimate of one sample
        return values[0]
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[q])[0])


def tail(values) -> tuple[float, int]:
    """``(value, percentile)``: the highest whole percentile with at least
    ten samples beyond it, never below the median."""
    n = len(values)
    q = max(50, math.floor(100 * (n - 10) / n))
    return quantile(values, q / 100), q


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process, plus its largest child on the pool
    workload, whose children are the program's workers (elsewhere the only
    children are the calibration samplers)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "table6-jobs2":
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def sim_seconds(result: dict, secs) -> float:
    """Summed simulator time: the median of each simulation's timings."""
    return sum(median(secs(a, b) for a, b in reps) for reps in result["sims"])


def ratio(num: float, den: float) -> dict:
    """A ratio with its base, so it is never read without it."""
    return {"value": num / den if den else None, "num": num, "den": den}


def make_workload(name: str, seed: int, scratch: str):
    import workloads

    if name == "table6-estimate":
        return workloads.Table6(seed, jobs=1)
    if name == "table6-jobs2":
        return workloads.Table6(seed, jobs=2)
    if name == "kernels-exact":
        return workloads.Kernels(seed)
    return workloads.Serve(seed, scratch)


def fresh_process_caches() -> None:
    """Empty the package's cross-call count cache, so every pass starts as
    a new process would, whatever ran before it."""
    from repro.polyhedra.space import clear_count_cache

    clear_count_cache()


def run_passes(wl, checker, passes: int, **kw) -> list:
    """``passes`` measured passes, each verified right after it."""
    results = []
    for _ in range(passes):
        fresh_process_caches()
        res = wl.measure(checker, **kw)
        res.update(wl.verify(checker))
        results.append(res)
    return results


def end_to_end(name: str, results: list, cal, checker) -> tuple[dict, dict]:
    """The end-to-end metrics of ``results`` (one dict per pass), in
    seconds calibrated by ``cal``."""
    secs = cal.scale

    def analysis(r, span):
        if name == "serve-mixed":
            return sum(span(a, b) for a, b in r["analyses"])
        return sum(span(a, b) for a, b, repeat, _ in r["answers"] if not repeat)

    answers = [x for r in results for x in r["answers"]]
    lat = [secs(a, b) for a, b, _, _ in answers]
    cold = [secs(a, b) for a, b, repeat, _ in answers if not repeat]
    warm = [secs(a, b) for a, b, repeat, _ in answers if repeat]
    warm += [secs(a, b) for r in results for a, b in r.get("extra_warm", ())]
    tail_s, tail_q = tail(lat)
    # The serve oracle runs under serial_cpu(), so at its one CPU's speed.
    analysis_secs = cal.scale_serial if name == "serve-mixed" else secs
    analysis_s = median(analysis(r, analysis_secs) for r in results)
    if name == "serve-mixed":
        req_per_s = sum(r["completed"] for r in results) / sum(
            secs(*r["wall"]) for r in results
        )
    else:  # one closed-loop caller: answers over the time spent answering
        req_per_s = len(lat) / sum(lat)
    values = {
        "setup_s": median(secs(a, b) for r in results for a, b in r["setup"]),
        "analysis_s": analysis_s,
        "sim_s": median(sim_seconds(r, cal.scale_serial) for r in results),
        "abs_err_max_pp": max(r["abs_err_max_pp"] for r in results),
        "req_per_s": req_per_s,
        "cold_p50_s": quantile(cold, 0.5),
        "warm_p50_s": quantile(warm, 0.5),
        "latency_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(name),
        "ok_share": (checker.attempted - checker.failed)
        / max(1, checker.attempted),
    }
    context = {
        "latency_tail_percentile": tail_q,
        "latency_samples": len(lat),
        "cold_samples": len(cold),
        "warm_samples": len(warm),
        "setup_samples": sum(len(r["setup"]) for r in results),
        "raw_analysis_s": median(
            analysis(r, lambda a, b: b - a) for r in results
        ),
        "ratios": {
            "sim_over_analysis": ratio(values["sim_s"], analysis_s),
            "warm_over_cold_p50": ratio(values["warm_p50_s"],
                                        values["cold_p50_s"]),
        },
    }
    if name == "kernels-exact":
        by_method = {
            m: sum(secs(a, b) for a, b, rep, meth in results[-1]["answers"]
                   if meth == m and not rep)
            for m in ("find", "regions")
        }
        context["ratios"]["regions_over_find"] = ratio(
            by_method["regions"], by_method["find"]
        )
    return values, context


def span_seconds(nodes, name: str, under: str, inside: bool = False):
    """Seconds of every ``name`` node of an obs span tree below ``under``."""
    for node in nodes:
        if inside and node["name"] == name:
            yield node["seconds"]
        yield from span_seconds(node["children"], name, under,
                                inside or node["name"] == under)


def per_layer(args, wl, checker, cal) -> tuple[dict, dict]:
    """After a warm-up, one untraced and one traced pass, one set-up each
    (and, for the pool workload, one serial pass); per-layer metrics come
    from the traced pass, ``trace.overhead_share`` from comparing the two."""
    from repro import obs
    from repro.cme.regions import regional_coverage

    import workloads

    workloads.warm_up(wl)
    plain = run_passes(wl, checker, 1, setup_reps=1)[0]
    tracer = tracing.Tracer()
    fresh_process_caches()
    obs.enable()
    obs.reset()
    tracer.install()
    try:
        with tracer.span("bench.run"):
            traced = wl.measure(checker, setup_reps=1)
    finally:
        tracer.uninstall()
    fallback_points = obs.counter("cme.regions.fallback_points").value
    worker_points = obs.counter("cme.points.classified").value
    worker_s = sum(span_seconds(obs.snapshot()["spans"], "cme/classify_ref",
                                under="parallel/solve"))
    obs.disable()
    traced.update(wl.verify(checker))
    serial = None
    if args.workload == "table6-jobs2":
        serial = run_passes(workloads.Table6(args.seed, jobs=1), checker, 1,
                            setup_reps=1)[0]
    cal.stop()
    secs = cal.scale

    self_s = tracer.self_times()
    incl = tracer.inclusive_times()
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    for layer in TIMED_LAYERS:
        m[layer + "_s"] = self_s.get(layer, 0.0)
    m["reuse.vectors"] = tracer.counts["reuse.vectors"]
    m["cme.points"] = tracer.counts["cme.points"]
    if incl.get("cme.estimate_ref"):
        m["cme.points_per_s"] = m["cme.points"] / incl["cme.estimate_ref"]
    sim_s = sim_seconds(traced, cal.scale_serial)
    if sim_s:
        m["sim.accesses_per_s"] = traced["accesses"] / sim_s
    context: dict = {}
    if args.workload == "kernels-exact":
        regions = wl.regions_answers()
        population = sum(r.population for _, a in regions
                         for r in a.report.results.values())
        m["cme.regions_fallback_share"] = fallback_points / population
        covs = [
            regional_coverage(prep.nprog, prep.layout,
                              workloads.cache_of(a.key[1]),
                              prep.reuse_table(32))
            for prep, a in regions
        ]
        m["polyhedra.region_coverage"] = sum(covs) / len(covs)
    if args.workload == "serve-mixed":
        server = traced["server_metrics"]
        server_p50 = server["latency_seconds"]["p50"]
        client_p50 = median([b - a for a, b, _, _ in traced["answers"]]
                            + [b - a for a, b in traced["extra_warm"]])
        m["serve.server_p50_s"] = server_p50
        m["serve.client_overhead_s"] = client_p50 - server_p50
        m["serve.rejected"] = server["requests"]["rejected"]
        hits, misses = traced["memo_hits"], traced["memo_misses"]
        m["memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["memo.replays"] = hits
    if serial is not None:
        # Pool workers record no benchmark spans; the pool merges the
        # program's own per-reference spans and counters back instead.
        m["cme.estimate_ref_s"] = worker_s
        m["cme.points"] = worker_points
        m["cme.points_per_s"] = worker_points / worker_s if worker_s else 0.0

        def analysis(res):
            return sum(secs(a, b) for a, b, rep, _ in res["answers"]
                       if not rep)

        m["parallel.speedup"] = analysis(serial) / analysis(plain)
        raw = sum(b - a for a, b, rep, _ in plain["answers"] if not rep)
        m["parallel.overhead_s"] = raw - plain["solver_s"] / 2
        context["ratios"] = {
            "jobs2_over_serial_analysis": ratio(analysis(plain),
                                                analysis(serial)),
        }
    m["trace.overhead_share"] = secs(*traced["wall"]) / secs(*plain["wall"]) - 1

    context["self_time_s"] = dict(sorted(self_s.items(), key=lambda kv: -kv[1]))
    context["traced_wall_s"] = traced["wall"][1] - traced["wall"][0]
    context["untraced_wall_s"] = plain["wall"][1] - plain["wall"][0]
    trace_path = os.path.join(
        args.out, f"trace-{args.workload}-seed{args.seed}.json"
    )
    tracing.write_chrome_trace(tracer, trace_path,
                               {"workload": args.workload, "seed": args.seed})
    context["chrome_trace"] = trace_path
    return m, context


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import calibrate
    import inputs
    import workloads

    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=args.out)
    started = time.perf_counter()
    wl = make_workload(args.workload, args.seed, scratch)
    checker = workloads.Checker(inject=args.inject_fault)
    cal = calibrate.Calibration(calibrate.workload_cpus(args.workload), scratch)
    try:
        if args.trace:
            metrics, context = per_layer(args, wl, checker, cal)
            units = PER_LAYER_UNITS
        else:
            passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
            results = run_passes(wl, checker, passes)
            cal.stop()
            metrics, context = end_to_end(args.workload, results, cal,
                                          checker)
            context["passes"] = passes
            units = END_TO_END_UNITS
    finally:
        cal.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_digest": inputs.digest(wl.inputs),
        "cpu_speed": cal.speed(),
        "run_seconds": time.perf_counter() - started,
        **context,
        "failures": checker.failures[:20],
    }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report(info, result)
    path = os.path.join(
        args.out, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=2)
    print(json.dumps(result))
    return 0


def report(info: dict, result: dict) -> None:
    """Human-readable summary and the run's context on standard output."""
    print(f"# {info['workload']} seed={info['seed']} "
          f"inputs={info['inputs_digest']} trace={info['trace']}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    if "self_time_s" in info:
        total = sum(info["self_time_s"].values())
        print(f"# self time by span (sum {total:.3f} s; traced wall "
              f"{info['traced_wall_s']:.3f} s, untraced "
              f"{info['untraced_wall_s']:.3f} s)")
        for name, seconds in info["self_time_s"].items():
            print(f"  {name:30s} {seconds:10.4f} s")
    print(f"# ok {result['attempted'] - result['failed']}/"
          f"{result['attempted']}")
    for failure in info["failures"]:
        print(f"# FAILED {failure}")
    print("# info " + json.dumps(info, default=str))


if __name__ == "__main__":
    sys.exit(main())
