"""Command-line interface: analyse, simulate and compare workloads.

Examples::

    repro-cache analyze hydro --cache 32:32:2 --size 64
    repro-cache analyze hydro --cache 32:32:2 --trace --metrics-out m.json
    repro-cache compare mmt --cache 8:32:1 --size 32
    repro-cache simulate path/to/kernel.f --cache 32:32:4 --sim-backend numpy
    repro-cache simulate hydro --cache 4:32:2 --policy plru
    repro-cache simulate hydro --cache 1:32:2 --l2-cache 16:32:8 --l2-policy random
    repro-cache stats applu
    repro-cache trace export swim --size 40 -o swim.trace
    repro-cache trace simulate swim.trace --cache 4:32:2 --policy fifo
    repro-cache trace import raw.addr --word-bytes 4 --byteorder big -o ext.trace
    repro-cache analyze hydro --jobs 4 --timeline-out t.json --ledger-out runs.jsonl
    repro-cache perf check runs.jsonl --threshold 1.5
    repro-cache perf report runs.jsonl -o perf_report.html
    repro-cache serve --port 8091 --workers 4 --cache-dir .serve-memo
    repro-cache submit hydro --size 32 --cache 4:32:2 --method find \
        --url http://127.0.0.1:8091
    repro-cache version

Cache specifications are ``SIZE_KB:LINE_BYTES:ASSOC``.

Observability flags (accepted by every subcommand):

* ``--trace`` — print the span tree and a per-phase timing table on stderr;
* ``--metrics-out PATH`` — write the ``repro.metrics/v1`` JSON document to
  ``PATH`` (``-`` writes it to stdout and moves all human output to stderr,
  so stdout stays machine-readable);
* ``--timeline-out PATH`` — write the run's span events as Chrome
  trace-event JSON (loadable in Perfetto / ``chrome://tracing``); with
  ``--jobs N`` each worker process renders as its own lane;
* ``--ledger-out PATH`` — append one ``repro.ledger/v1`` row (phase wall
  times, peak RSS, counters, code fingerprint) to the run ledger at
  ``PATH`` — the history ``perf check`` and ``perf report`` read;
* ``--profile-out PATH`` — collect ``cProfile`` stats (binary ``pstats``
  format); ``--profile-span NAME`` narrows collection to one span;
* ``--mem-profile`` — trace allocations with ``tracemalloc`` and print
  the top allocation sites on stderr;
* ``--quiet`` — silence diagnostics (the ``repro`` logger) so only the
  final table is printed.

The ``perf`` verbs close the loop: ``perf check`` statistically compares
the latest run of each benchmark key against its ledger history (min-of-k
baseline, configurable threshold) and exits non-zero on regression;
``perf report`` renders the ledger as a self-contained HTML dashboard.

Memoization flags (``analyze`` and ``compare``):

* ``--cache-dir DIR`` — content-addressed memoization of per-reference
  solutions with a persistent store under ``DIR``; a warm re-run replays
  stored results instead of re-solving (see README "Caching");
* ``--no-cache`` — switch memoization off.

Diagnostic lines go through :mod:`logging` (logger ``repro.cli``); final
tables are printed directly, so ``--quiet`` silences everything except the
result.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Callable, Optional, TextIO

from repro import obs
from repro.analysis import prepare, run_simulation
from repro.cme.solver import METHODS
from repro.inline import classify_program
from repro.ir import Program, program_stats
from repro.layout import CacheConfig
from repro.report import format_table, with_timing

log = logging.getLogger("repro.cli")


def _parse_cache(spec: str) -> CacheConfig:
    from repro.serve.protocol import ServeError, parse_cache_spec

    try:
        return parse_cache_spec(spec)
    except ServeError as exc:
        raise SystemExit(str(exc))


def _load_workload(name: str, size: Optional[int], steps: int) -> Program:
    from repro.serve.engine import load_kernel
    from repro.serve.protocol import UnknownKernel

    if name.endswith(".f"):
        from repro.frontend import parse_program

        with open(name) as fh:
            return parse_program(fh.read())
    try:
        return load_kernel(name, size, steps)
    except UnknownKernel as exc:
        raise SystemExit(f"{exc} (or pass a .f file)")


def _add_workload_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("workload", help="builtin name (hydro, mmt, swim, ...) or .f file")
    sub.add_argument("--size", type=int, default=None, help="problem size")
    sub.add_argument("--steps", type=int, default=2, help="time steps (programs)")
    sub.add_argument(
        "--cache", default="32:32:1", help="cache spec SIZE_KB:LINE_BYTES:ASSOC"
    )


def _add_backend_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--backend",
        choices=["scalar", "numpy"],
        default="numpy",
        help="classification backend: 'numpy' = vectorized batch solving "
        "(falls back to scalar when NumPy is not installed), 'scalar' = "
        "pure Python; results are bit-identical either way",
    )


def _add_sim_backend_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--sim-backend",
        choices=["scalar", "numpy"],
        default="numpy",
        help="simulator backend: 'numpy' = vectorized stack-distance "
        "kernel (falls back to scalar when NumPy is not installed), "
        "'scalar' = walker + LRU state machine; per-reference tallies "
        "are bit-identical either way",
    )


def _add_policy_args(sub: argparse.ArgumentParser) -> None:
    from repro.sim.policy import POLICIES

    sub.add_argument(
        "--policy",
        choices=list(POLICIES),
        default=None,
        help="replacement policy (default lru, the paper's model); "
        "plru needs a power-of-two associativity; per-reference "
        "tallies are bit-identical across --sim-backend values "
        "for every policy",
    )
    sub.add_argument(
        "--policy-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the random policy's deterministic victim draw "
        "(fixed seed = reproducible across backends, processes and "
        "--jobs; ignored by lru/fifo/plru)",
    )


def _add_jobs_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the per-reference solve "
        "(1 = serial, 0 = all CPUs); results are identical for any value",
    )


def _add_memo_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist memoized per-reference solutions under DIR; warm "
        "re-runs replay stored results (see README 'Caching')",
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="disable memoization entirely (in-run dedup included)",
    )


def _open_memoizer(args):
    """The memoizer implied by ``--cache-dir``/``--no-cache`` (or ``None``)."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return None
    from repro.memo import Memoizer

    return Memoizer.open(cache_dir)


def _close_memoizer(memo) -> None:
    """Flush new solutions and log the memoization tallies."""
    if memo is None:
        return
    written = memo.flush()
    log.info(
        "memo: %d hit(s), %d miss(es), %d group(s), %d from store, "
        "%d newly persisted",
        memo.hits,
        memo.misses,
        memo.groups,
        memo.store_hits,
        written,
    )


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree and per-phase timings on stderr",
    )
    sub.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the repro.metrics/v1 JSON document to PATH "
        "('-' = stdout; human output then moves to stderr)",
    )
    sub.add_argument(
        "--timeline-out",
        metavar="PATH",
        default=None,
        help="write the run's span events as Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing; --jobs N workers get "
        "their own lanes)",
    )
    sub.add_argument(
        "--ledger-out",
        metavar="PATH",
        default=None,
        help="append a repro.ledger/v1 row (phase times, peak RSS, "
        "counters) for this run to the JSON-lines ledger at PATH",
    )
    sub.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="collect cProfile stats and dump them (pstats format) to PATH",
    )
    sub.add_argument(
        "--mem-profile",
        action="store_true",
        help="trace allocations with tracemalloc; print the top sites "
        "on stderr",
    )
    sub.add_argument(
        "--profile-span",
        metavar="NAME",
        default=None,
        help="restrict --profile-out collection to the named span "
        "(e.g. cme/estimate, reuse/build_table)",
    )
    sub.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="silence diagnostics; only the final table is printed",
    )


def _configure_logging(quiet: bool, stream: TextIO) -> None:
    """Route the ``repro`` logger to ``stream`` (plain messages).

    Re-entrant: repeated ``main()`` calls (tests, library use) replace the
    handler instead of stacking duplicates.
    """
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING if quiet else logging.INFO)
    logger.propagate = False


# -- subcommands ---------------------------------------------------------------


def _cmd_stats(args, program: Program, echo: Callable[[str], None]) -> int:
    st = program_stats(program)
    cs = classify_program(program)
    echo(
        format_table(
            ["#lines", "#subroutines", "#calls", "#references"],
            [(st.lines, st.subroutines, st.call_statements, st.references)],
            title=f"{program.name} — program statistics (Table 5 columns)",
        )
    )
    echo("")
    echo(
        format_table(
            ["P-able", "R-able", "N-able", "Calls", "A-able"],
            [(cs.p_able, cs.r_able, cs.n_able, cs.calls_total, cs.calls_analysable)],
            title="Actual-parameter classification (Table 2 columns)",
        )
    )
    return 0


def _cmd_analyze(args, program: Program, echo: Callable[[str], None]) -> int:
    from repro.serve.engine import AnalysisEngine
    from repro.serve.protocol import AnalyzeRequest

    cache = _parse_cache(args.cache)
    memo = _open_memoizer(args)
    engine = AnalysisEngine(memo=memo)
    request = AnalyzeRequest(
        cache=cache,
        program=program,
        method=args.method,
        confidence=args.confidence,
        width=args.width,
        seed=args.seed,
        backend=args.backend,
    )
    report, _ = engine.run(request, jobs=args.jobs)
    _close_memoizer(memo)
    log.info(
        "%s on %s: miss ratio %.2f%% (%.0f of %d accesses, %s, %.2fs, "
        "%d points analysed, %d job(s), %.0f points/s)",
        program.name,
        cache.describe(),
        report.miss_ratio_percent,
        report.total_misses,
        report.total_accesses,
        report.method,
        report.elapsed_seconds,
        report.analysed_points,
        report.jobs,
        report.points_per_second,
    )
    rows = [
        (r.ref_name, r.population, f"{100 * r.miss_ratio:.2f}")
        for r in report.worst_refs(8)
    ]
    echo("")
    echo(
        format_table(
            ["Reference", "Accesses", "Miss %"],
            rows,
            title=(
                f"Worst references — {program.name} on {cache.describe()}, "
                f"{report.method}, miss ratio "
                f"{report.miss_ratio_percent:.2f}%"
            ),
        )
    )
    return 0


def _cmd_simulate(args, program: Program, echo: Callable[[str], None]) -> int:
    cache = _parse_cache(args.cache)
    prepared = prepare(program)
    l2_cache = (
        _parse_cache(args.l2_cache) if args.l2_cache is not None else None
    )
    report = run_simulation(
        prepared,
        cache,
        backend=args.sim_backend,
        policy=args.policy,
        seed=args.policy_seed,
        l2_cache=l2_cache,
        l2_policy=args.l2_policy,
    )
    if l2_cache is not None:
        echo(
            f"{program.name} on L1 {cache.describe()} ({report.l1.policy}) "
            f"-> L2 {l2_cache.describe()} ({report.l2.policy}): "
            f"L1 miss ratio {report.l1_miss_ratio_percent:.2f}%, "
            f"L2 local {report.l2_local_miss_ratio_percent:.2f}%, "
            f"global {report.global_miss_ratio_percent:.2f}% "
            f"({report.l2.total_misses} of {report.total_accesses} accesses "
            f"missed both levels, {report.elapsed_seconds:.2f}s)"
        )
        return 0
    echo(
        f"{program.name} on {cache.describe()} ({report.policy}): "
        f"miss ratio {report.miss_ratio_percent:.2f}% "
        f"({report.total_misses} of {report.total_accesses} accesses, "
        f"{report.elapsed_seconds:.2f}s)"
    )
    return 0


def _cmd_compare(args, program: Program, echo: Callable[[str], None]) -> int:
    from repro.serve.engine import AnalysisEngine
    from repro.serve.protocol import AnalyzeRequest

    cache = _parse_cache(args.cache)
    memo = _open_memoizer(args)
    engine = AnalysisEngine(memo=memo)
    request = AnalyzeRequest(
        cache=cache,
        program=program,
        method=args.method,
        backend=args.backend,
    )
    analytic, _ = engine.run(request, jobs=args.jobs)
    prepared = engine.prepared_for(request)
    _close_memoizer(memo)
    simulated = run_simulation(
        prepared,
        cache,
        backend=args.sim_backend,
        policy=args.policy,
        seed=args.policy_seed,
    )
    err = abs(analytic.miss_ratio_percent - simulated.miss_ratio_percent)
    echo(
        format_table(
            ["", "Miss %", "#misses", "Time (s)"],
            [
                (
                    analytic.method,
                    analytic.miss_ratio_percent,
                    int(analytic.total_misses),
                    analytic.elapsed_seconds,
                ),
                (
                    f"Simulator ({simulated.policy})",
                    simulated.miss_ratio_percent,
                    simulated.total_misses,
                    simulated.elapsed_seconds,
                ),
            ],
            title=f"{program.name} on {cache.describe()} (abs. error {err:.2f}pp)",
        )
    )
    return 0


def _cmd_version(args, echo: Callable[[str], None]) -> int:
    """Print package version, code fingerprint and schema versions."""
    from repro.serve.protocol import version_info

    echo(json.dumps(version_info(), indent=2))
    return 0


def _cmd_serve(args, echo: Callable[[str], None]) -> int:
    """Run the analysis daemon until interrupted."""
    import time

    from repro.serve import AnalysisServer

    cache_dir = None if getattr(args, "no_cache", False) else args.cache_dir
    server = AnalysisServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        dispatchers=args.dispatchers,
        queue_limit=args.queue_limit,
        cache_dir=cache_dir,
        default_timeout=args.timeout,
    )
    with server:
        server.start()
        echo(f"repro-cache serving on {server.url} (Ctrl-C to stop)")
        try:
            while True:
                time.sleep(0.5)
        except KeyboardInterrupt:
            log.info("shutting down")
    return 0


def _cmd_submit(args, echo: Callable[[str], None]) -> int:
    """Send one analysis request to a running daemon."""
    from repro.serve import ServeClient, ServeError

    doc: dict = {
        "cache": args.cache,
        "method": args.method,
        "confidence": args.confidence,
        "width": args.width,
        "seed": args.seed,
        "steps": args.steps,
        "timeout": args.timeout,
        "client": args.client,
    }
    if args.workload.endswith(".f"):
        with open(args.workload) as fh:
            doc["source"] = fh.read()
    else:
        doc["kernel"] = args.workload
    if args.size is not None:
        doc["size"] = args.size
    if args.backend != "auto":
        doc["backend"] = args.backend
    client = ServeClient(args.url, timeout=args.timeout + 5.0)
    try:
        resp = client.analyze(doc)
    except ServeError as exc:
        raise SystemExit(f"{exc.code}: {exc}")
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.url}: {exc}")
    report = resp["report"]
    server_info = resp.get("server", {})
    log.info(
        "%s via %s: %s, solve %.3fs, memo %s",
        args.workload,
        args.url,
        resp.get("job", "?"),
        server_info.get("solve_seconds", 0.0),
        server_info.get("memo"),
    )
    totals = report["totals"]
    echo(
        f"{args.workload} on {args.cache} ({report['method']}): "
        f"miss ratio {totals['miss_ratio_percent']:.2f}% "
        f"({totals['misses']:.0f} of {totals['accesses']} accesses)"
    )
    return 0


def _cmd_trace(args, echo: Callable[[str], None]) -> int:
    """The ``trace`` verbs: export, import and simulate binary traces."""
    from repro.errors import MissingDependencyError, TraceFormatError
    from repro.sim import (
        collect_walker_trace,
        import_address_trace,
        simulate_trace,
        write_trace,
    )

    try:
        if args.trace_command == "export":
            program = _load_workload(args.workload, args.size, args.steps)
            prepared = prepare(program)
            count = write_trace(
                args.output, collect_walker_trace(prepared.walker)
            )
            echo(
                f"{program.name}: exported {count} accesses "
                f"to {args.output}"
            )
            return 0
        if args.trace_command == "import":
            pairs = import_address_trace(
                args.input,
                word_bytes=args.word_bytes,
                byteorder=args.byteorder,
                ref_uid=args.ref_uid,
            )
            count = write_trace(args.output, pairs)
            echo(
                f"imported {count} {args.word_bytes}-byte "
                f"{args.byteorder}-endian addresses from {args.input} "
                f"to {args.output}"
            )
            return 0
        cache = _parse_cache(args.cache)
        report = simulate_trace(
            args.input,
            cache,
            backend=args.sim_backend,
            policy=args.policy,
            seed=args.policy_seed,
        )
        echo(
            f"{args.input} on {cache.describe()} ({report.policy}): "
            f"miss ratio {report.miss_ratio_percent:.2f}% "
            f"({report.total_misses} of {report.total_accesses} accesses, "
            f"{report.elapsed_seconds:.2f}s)"
        )
        return 0
    except (TraceFormatError, MissingDependencyError) as exc:
        raise SystemExit(str(exc))


def _cmd_perf(args, echo: Callable[[str], None]) -> int:
    """The ``perf`` verbs: regression check and HTML report of the ledger."""
    from repro.obs import regress
    from repro.obs.ledger import read_ledger

    if args.perf_command == "check":
        results = regress.check_ledger(
            args.ledger,
            current_path=args.current,
            threshold=args.threshold,
            hard_threshold=args.hard_threshold,
            confidence=args.confidence,
            baseline_k=args.baseline_k,
        )
        if not results:
            log.info("perf check: no rows to check in %s", args.ledger)
        for result in results:
            echo(result.describe())
        rc = regress.exit_code(results, warn_only=args.warn_only)
        checked = sum(1 for r in results if r.status in ("ok", "regression"))
        regressed = sum(1 for r in results if r.regressed)
        echo(
            f"perf check: {checked} run(s) checked, {regressed} "
            f"regression(s) -> {'FAIL' if rc else 'ok'}"
        )
        return rc

    rows = read_ledger(args.ledger)
    from repro.obs.htmlreport import write_report

    write_report(args.output, rows, title=args.title)
    log.info(
        "perf report: %d ledger row(s) rendered to %s", len(rows), args.output
    )
    return 0


# -- observability plumbing ----------------------------------------------------


def _emit_trace() -> None:
    """Print the span tree and a per-phase timing table on stderr."""
    print(obs.render(), file=sys.stderr)
    phases = obs.phase_times()
    if phases:
        headers, rows = with_timing(
            ["Phase", "Count"],
            [(name, count) for name, count, _ in phases],
            [seconds for _, _, seconds in phases],
        )
        print("", file=sys.stderr)
        print(
            format_table(headers, rows, title="Per-phase wall time"),
            file=sys.stderr,
        )


def _emit_metrics(path: str) -> None:
    """Write the metrics JSON document to ``path`` (``-`` = stdout)."""
    text = obs.to_json(obs.snapshot())
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        log.info("metrics written to %s", path)


def _emit_timeline(path: str) -> None:
    """Write the recorded span events as Chrome trace-event JSON."""
    from repro.obs.timeline import write_chrome_trace

    count = write_chrome_trace(path, obs.timeline_events())
    log.info("timeline (%d span event(s)) written to %s", count, path)


def _ledger_config(args) -> dict:
    """The solver/backend knobs that identify a run in the ledger.

    Only knobs the subcommand actually has are recorded, so rows key
    stably per command shape.
    """
    config = {"command": args.command}
    for knob in (
        "method",
        "backend",
        "sim_backend",
        "policy",
        "policy_seed",
        "l2_cache",
        "l2_policy",
        "jobs",
        "size",
        "steps",
        "confidence",
        "width",
        "seed",
    ):
        value = getattr(args, knob, None)
        if value is not None:
            config[knob] = value
    return config


def _append_ledger(args, wall_seconds: float) -> None:
    """Append this run's ``repro.ledger/v1`` row to ``--ledger-out``."""
    from repro.obs import ledger

    if args.command == "trace":
        workload = getattr(args, "workload", None) or getattr(
            args, "input", ""
        )
        label = f"trace-{args.trace_command}:{workload}"
    else:
        workload = getattr(args, "workload", "") or args.command
        label = f"{args.command}:{workload}"
    row = ledger.build_row(
        label,
        program=workload,
        cache=getattr(args, "cache", None),
        config=_ledger_config(args),
        wall_seconds=wall_seconds,
    )
    ledger.append_row(args.ledger_out, row)
    log.info("ledger row %s appended to %s", row["run_id"], args.ledger_out)


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point for the ``repro-cache`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Analytical whole-program cache behaviour prediction "
        "(Vera & Xue, HPCA 2002 reproduction)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="analytical miss prediction")
    _add_workload_args(p_analyze)
    p_analyze.add_argument("--method", choices=METHODS, default="estimate")
    p_analyze.add_argument("--confidence", type=float, default=0.95)
    p_analyze.add_argument("--width", type=float, default=0.05)
    p_analyze.add_argument("--seed", type=int, default=0)
    _add_backend_arg(p_analyze)
    _add_jobs_arg(p_analyze)
    _add_memo_args(p_analyze)
    _add_obs_args(p_analyze)

    p_sim = subs.add_parser("simulate", help="trace-driven cache simulation")
    _add_workload_args(p_sim)
    _add_sim_backend_arg(p_sim)
    _add_policy_args(p_sim)
    p_sim.add_argument(
        "--l2-cache",
        metavar="SPEC",
        default=None,
        help="simulate a two-level hierarchy: the L1 miss stream replays "
        "through this L2 cache (spec SIZE_KB:LINE_BYTES:ASSOC)",
    )
    p_sim.add_argument(
        "--l2-policy",
        choices=["lru", "fifo", "plru", "random"],
        default=None,
        help="L2 replacement policy (default: same as --policy)",
    )
    _add_obs_args(p_sim)

    p_cmp = subs.add_parser("compare", help="analytical vs simulated, side by side")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--method", choices=METHODS, default="estimate")
    _add_backend_arg(p_cmp)
    _add_sim_backend_arg(p_cmp)
    _add_policy_args(p_cmp)
    _add_jobs_arg(p_cmp)
    _add_memo_args(p_cmp)
    _add_obs_args(p_cmp)

    p_trace = subs.add_parser(
        "trace", help="export, import and simulate binary access traces"
    )
    tsubs = p_trace.add_subparsers(dest="trace_command", required=True)

    t_export = tsubs.add_parser(
        "export", help="walk a workload and write its binary trace"
    )
    t_export.add_argument(
        "workload", help="builtin name (hydro, mmt, swim, ...) or .f file"
    )
    t_export.add_argument("--size", type=int, default=None, help="problem size")
    t_export.add_argument("--steps", type=int, default=2, help="time steps")
    t_export.add_argument(
        "-o", "--output", required=True, help="trace file to write"
    )
    _add_obs_args(t_export)

    t_import = tsubs.add_parser(
        "import",
        help="convert a raw fixed-width address trace to the binary format",
    )
    t_import.add_argument("input", help="raw address trace file")
    t_import.add_argument(
        "-o", "--output", required=True, help="trace file to write"
    )
    t_import.add_argument(
        "--word-bytes", type=int, default=4, help="bytes per address word"
    )
    t_import.add_argument(
        "--byteorder", choices=["big", "little"], default="big"
    )
    t_import.add_argument(
        "--ref-uid",
        type=int,
        default=0,
        help="reference uid to attribute every access to",
    )
    _add_obs_args(t_import)

    t_sim = tsubs.add_parser(
        "simulate", help="replay a binary trace through the cache simulator"
    )
    t_sim.add_argument("input", help="binary trace file")
    t_sim.add_argument(
        "--cache", default="32:32:1", help="cache spec SIZE_KB:LINE_BYTES:ASSOC"
    )
    _add_sim_backend_arg(t_sim)
    _add_policy_args(t_sim)
    _add_obs_args(t_sim)

    p_version = subs.add_parser(
        "version",
        help="print package version, code fingerprint and schema versions",
    )
    _add_obs_args(p_version)

    p_serve = subs.add_parser(
        "serve", help="run the analysis-as-a-service HTTP daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8091, help="0 = ephemeral port"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="threads in the shared per-reference unit pool",
    )
    p_serve.add_argument(
        "--dispatchers",
        type=int,
        default=2,
        help="requests solved concurrently",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admission bound; requests past it get HTTP 429",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="default per-request deadline in seconds",
    )
    _add_memo_args(p_serve)
    _add_obs_args(p_serve)

    p_submit = subs.add_parser(
        "submit", help="send one analysis request to a running daemon"
    )
    _add_workload_args(p_submit)
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8091", help="daemon base URL"
    )
    p_submit.add_argument("--method", choices=METHODS, default="estimate")
    p_submit.add_argument("--confidence", type=float, default=0.95)
    p_submit.add_argument("--width", type=float, default=0.05)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument(
        "--backend", choices=["auto", "scalar", "numpy"], default="auto"
    )
    p_submit.add_argument(
        "--timeout", type=float, default=60.0, help="request deadline (s)"
    )
    p_submit.add_argument(
        "--client", default="cli", help="client id for fair scheduling"
    )
    _add_obs_args(p_submit)

    p_stats = subs.add_parser("stats", help="Table 5 / Table 2 style statistics")
    p_stats.add_argument("workload")
    p_stats.add_argument("--size", type=int, default=None)
    p_stats.add_argument("--steps", type=int, default=2)
    _add_obs_args(p_stats)

    p_perf = subs.add_parser(
        "perf", help="perf observatory: regression check and HTML report"
    )
    psubs = p_perf.add_subparsers(dest="perf_command", required=True)

    pf_check = psubs.add_parser(
        "check",
        help="statistically compare the latest run(s) against ledger "
        "history; exit non-zero on regression",
    )
    pf_check.add_argument("ledger", help="repro.ledger/v1 JSON-lines file")
    pf_check.add_argument(
        "--current",
        metavar="PATH",
        default=None,
        help="check the rows of this ledger against the history in the "
        "main one (CI: committed baseline vs throwaway run)",
    )
    pf_check.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="regression ratio over the min-of-k baseline (default 1.5)",
    )
    pf_check.add_argument(
        "--hard-threshold",
        type=float,
        default=None,
        help="ratio at which a regression is 'hard' and fails even with "
        "--warn-only (default: same as --threshold)",
    )
    pf_check.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level of the statistical noise gate",
    )
    pf_check.add_argument(
        "--baseline-k",
        type=int,
        default=5,
        help="baseline = min of the last K historical runs (default 5)",
    )
    pf_check.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit non-zero only on hard ones "
        "(noisy shared runners)",
    )
    _add_obs_args(pf_check)

    pf_report = psubs.add_parser(
        "report", help="render the ledger as a self-contained HTML dashboard"
    )
    pf_report.add_argument("ledger", help="repro.ledger/v1 JSON-lines file")
    pf_report.add_argument(
        "-o", "--output", default="perf_report.html", help="HTML file to write"
    )
    pf_report.add_argument("--title", default="repro perf report")
    _add_obs_args(pf_report)

    args = parser.parse_args(argv)

    metrics_out = args.metrics_out
    machine_stdout = metrics_out == "-"
    human_stream = sys.stderr if machine_stdout else sys.stdout
    _configure_logging(args.quiet, human_stream)

    def echo(line: str = "") -> None:
        print(line, file=human_stream)

    obs_wanted = (
        args.trace
        or metrics_out
        or args.profile_out
        or args.timeline_out
        or args.ledger_out
        or args.mem_profile
    )
    if obs_wanted:
        obs.enable()
        obs.reset()
        if args.timeline_out:
            obs.enable_timeline()

    profiler = None
    if args.profile_out:
        profiler = obs.SpanProfiler(args.profile_span)
        if args.profile_span:
            profiler.install(obs.tracer())
        else:
            profiler.start()
    elif args.profile_span:
        raise SystemExit("--profile-span requires --profile-out")

    # Installed after the profiler so the hooks chain (both share the
    # tracer's exit-hook slot).
    monitor = None
    if obs_wanted:
        from repro.obs.resource import SpanResourceMonitor

        monitor = SpanResourceMonitor()
        monitor.install(obs.tracer())

    mem_profiler = None
    if args.mem_profile:
        from repro.obs.resource import MemProfiler

        mem_profiler = MemProfiler()
        mem_profiler.start()

    commands = {
        "stats": _cmd_stats,
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
    }
    from time import perf_counter

    started = perf_counter()
    try:
        if args.command == "trace":
            rc = _cmd_trace(args, echo)
        elif args.command == "perf":
            rc = _cmd_perf(args, echo)
        elif args.command == "version":
            rc = _cmd_version(args, echo)
        elif args.command == "serve":
            rc = _cmd_serve(args, echo)
        elif args.command == "submit":
            rc = _cmd_submit(args, echo)
        else:
            program = _load_workload(
                args.workload, args.size, getattr(args, "steps", 2)
            )
            rc = commands[args.command](args, program, echo)
    finally:
        wall_seconds = perf_counter() - started
        if mem_profiler is not None:
            sites = mem_profiler.stop()
            print(mem_profiler.format_sites(sites), file=sys.stderr)
        if monitor is not None:
            monitor.uninstall()
            monitor.finalize()
        if profiler is not None:
            if args.profile_span:
                profiler.uninstall(obs.tracer())
            profiler.dump(args.profile_out)
            log.info("profile written to %s", args.profile_out)
        if args.trace:
            _emit_trace()
        if args.timeline_out:
            _emit_timeline(args.timeline_out)
        if args.ledger_out and args.command != "perf":
            _append_ledger(args, wall_seconds)
        if metrics_out:
            _emit_metrics(metrics_out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
