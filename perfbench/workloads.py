"""The four workloads: what each measures, and the oracle each answer meets.

Each workload has a ``measure`` step, which records the wall interval
``(start, end)`` of every set-up, answer and simulation, and a ``verify``
step, untimed except for the serve workload's offline reference runs, which
checks every answer against an oracle through a :class:`Checker`.  Answers
are ``analyze()`` calls for the batch workloads and HTTP requests for
``serve-mixed``.  Intervals are turned into seconds by the caller, after
CPU-speed calibration (:mod:`calibrate`).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
import urllib.error
import urllib.request

import repro.frontend
from repro import CacheConfig, analyze, estimate_misses, prepare, run_simulation
from repro.ir import ProgramBuilder
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.serve import (
    AnalysisServer,
    ServeClient,
    load_kernel,
    parse_cache_spec,
    program_from_source,
    report_doc,
)

import inputs
from calibrate import serial_cpu

#: ``benchmarks/bench_table6_whole_programs.py``'s bound on |E.M% - Sim%|.
TABLE6_ABS_ERR_BOUND = 3.0

#: Set-up repetitions per pass; ``setup_s`` is their median.
SETUP_REPS = 5
SERVE_SETUP_REPS = 15

#: Closed-loop clients in ``serve-mixed``.
SERVE_CLIENTS = 2

#: Spare ``serve-mixed`` servers closing at once during set-up.
SERVE_CLOSING = 8

#: Timings per simulation; ``sim_s`` sums the median of each.  A
#: simulation takes milliseconds, too short for one timing to be steady,
#: and the fastest of several moved by a fifth between runs, since the CPU
#: speed it is calibrated with is averaged over a second around it.
SIM_REPS = 9

#: ``serve-mixed`` simulates small kernels (milliseconds each), so it can
#: afford more timings.
SERVE_SIM_REPS = 25

#: The jobs=2 oracle re-solves every this-many-th reference serially.
JOBS_ORACLE_STRIDE = 6

BUILDERS = {
    "TOMCATV": build_tomcatv_like,
    "SWIM": build_swim_like,
    "APPLU": build_applu_like,
}


def cache_of(spec) -> CacheConfig:
    return CacheConfig.kb(*spec)


class Checker:
    """Counts operations and the ones that raised or failed their oracle.

    With ``inject`` set, the first answer of every check kind is replaced
    by a wrong one before it is compared, so the self-test can see
    ``failed`` rise.
    """

    def __init__(self, inject: bool = False):
        self.inject = inject
        self.attempted = 0
        self.failures: list[str] = []
        self._failed_ops: set[int] = set()
        self._injected: set[str] = set()
        self._lock = threading.Lock()

    @property
    def failed(self) -> int:
        return len(self._failed_ops)

    def op(self) -> int:
        """Register one operation (an answer or a simulation)."""
        with self._lock:
            self.attempted += 1
            return self.attempted

    def fail(self, op: int, detail: str) -> None:
        with self._lock:
            self._failed_ops.add(op)
            self.failures.append(detail)

    def _injecting(self, kind: str) -> bool:
        if self.inject and kind not in self._injected:
            self._injected.add(kind)
            return True
        return False

    def same(self, op: int, kind: str, label: str, got, want) -> None:
        if self._injecting(kind):
            got = {"injected": got}
        if got != want:
            self.fail(op, f"{kind}: {label} differs from its oracle")

    def within(self, op: int, kind: str, label: str, err: float, bound: float):
        if self._injecting(kind):
            err += bound + 1.0
        if not err <= bound:
            self.fail(op, f"{kind}: {label} error {err:.3f} > {bound}")


def tallies(report) -> dict:
    """Per-reference classification counts of a MissReport."""
    return {
        uid: (r.population, r.analysed, r.cold, r.replacement, r.hits)
        for uid, r in report.results.items()
    }


def time_reps(fn, *args, reps: int = SIM_REPS - 1) -> list:
    """Wall intervals of ``reps`` more calls of ``fn``."""
    intervals = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args)
        intervals.append((start, time.perf_counter()))
    return intervals


class Op:
    """One timed operation: an ``analyze()`` call or a simulation."""

    def __init__(self, checker: Checker, label: str, key, repeat=False):
        self.id = checker.op()
        self.label = label
        self.key = key  # (program, cache spec, method)
        self.repeat = repeat
        self.report = None
        self.start = self.end = 0.0

    def run(self, checker: Checker, fn, *args, **kwargs) -> "Op":
        """Run ``fn``; an exception counts the operation failed."""
        self.start = time.perf_counter()
        try:
            self.report = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is a measured outcome
            checker.fail(self.id, f"{self.label} raised "
                                  f"{type(exc).__name__}: {exc}")
        self.end = time.perf_counter()
        return self


# -- batch workloads ----------------------------------------------------------


class Batch:
    """Programs prepared in set-up, then every (program, cache, method)
    answered once, the ``warm`` triples answered again, and every
    (program, cache) simulated."""

    methods: tuple = ()

    def programs(self) -> list:
        """``[(name, build)]``, ``build()`` returning a fresh Program."""
        raise NotImplementedError

    def warm(self) -> list:
        """``[(program, cache spec, method)]`` answered a second time."""
        raise NotImplementedError

    def analyze_kwargs(self) -> dict:
        return {}

    def measure(self, checker: Checker, setup_reps: int = SETUP_REPS) -> dict:
        setup = []
        for _ in range(setup_reps):
            start = time.perf_counter()
            prepared = {}
            for name, build in self.programs():
                prep = prepare(build())
                prep.reuse_table(32)
                prepared[name] = prep
            setup.append((start, time.perf_counter()))
        kw = self.analyze_kwargs()
        answers, sims, sim_times = [], {}, []
        for name, prep in prepared.items():
            for spec in self.inputs["caches"]:
                cache = cache_of(spec)
                for method in self.methods:
                    op = Op(checker, f"{name} {method} {spec}",
                            (name, spec, method))
                    answers.append(op.run(checker, analyze, prep, cache,
                                          method=method, **kw))
                op = Op(checker, f"{name} sim {spec}", (name, spec, "sim"))
                with serial_cpu():
                    sims[name, spec] = op.run(checker, run_simulation, prep,
                                              cache)
                    sim_times.append([(op.start, op.end)]
                                     + time_reps(run_simulation, prep, cache))
        for name, spec, method in self.warm():
            op = Op(checker, f"{name} {method} {spec} (repeat)",
                    (name, spec, method), repeat=True)
            answers.append(op.run(checker, analyze, prepared[name],
                                  cache_of(spec), method=method, **kw))
        self._last = (prepared, answers, sims)
        cold = [a for a in answers if not a.repeat and a.report is not None]
        errs = [
            abs(a.report.miss_ratio_percent
                - sims[a.key[:2]].report.miss_ratio_percent)
            for a in cold if sims[a.key[:2]].report is not None
        ]
        return {
            "setup": setup,
            "answers": [(a.start, a.end, a.repeat, a.key[2]) for a in answers],
            "sims": sim_times,
            "wall": (setup[0][0], time.perf_counter()),
            "abs_err_max_pp": max(errs, default=0.0),
            "accesses": sum(
                s.report.total_accesses for s in sims.values()
                if s.report is not None
            ),
            "solver_s": sum(a.report.solver_seconds for a in cold),
        }

    def verify(self, checker: Checker) -> dict:
        _, answers, _ = self._last
        first = {a.key: a for a in answers if not a.repeat}
        for a in answers:  # a repeated request must answer the same
            cold = first.get(a.key)
            if a.repeat and a.report is not None and cold.report is not None:
                checker.same(a.id, "repeat", a.label, tallies(a.report),
                             tallies(cold.report))
        return {}


class Table6(Batch):
    """TOMCATV/SWIM/APPLU-like at Table 6 sizes, 4KB/32B x {1, 2, 4}-way,
    EstimateMisses plus the LRU simulator; ``jobs=2`` enters the pool."""

    methods = ("estimate",)

    def __init__(self, seed: int, jobs: int = 1):
        self.inputs = inputs.table6_inputs(seed)
        self.seed = seed
        self.jobs = jobs

    def programs(self) -> list:
        return [
            (name, lambda name=name, n=n, s=s: BUILDERS[name](n, s))
            for name, n, s in self.inputs["programs"]
        ]

    def warm(self) -> list:
        # One repeat: each Table 6 answer costs seconds, and a run should
        # stay near its nominal length.
        return [("APPLU", self.inputs["caches"][0], "estimate")]

    def analyze_kwargs(self) -> dict:
        return {"seed": self.inputs["sampling_seed"], "jobs": self.jobs}

    def verify(self, checker: Checker) -> dict:
        super().verify(checker)
        prepared, answers, sims = self._last
        cold = [a for a in answers if not a.repeat and a.report is not None]
        for index, a in enumerate(cold):
            sim = sims[a.key[:2]].report
            if sim is not None:
                err = abs(a.report.miss_ratio_percent - sim.miss_ratio_percent)
                checker.within(a.id, "estimate~sim", a.label, err,
                               TABLE6_ABS_ERR_BOUND)
            if self.jobs != 1:
                self._check_serial(checker, a, prepared[a.key[0]], index)
        return {}

    def _check_serial(self, checker, a, prep, index) -> None:
        """jobs=2 must equal serial; a rotating share of the references of
        each config is re-solved serially (the whole run would double it)."""
        refs = [
            r for k, r in enumerate(prep.nprog.refs)
            if (k + index + self.seed) % JOBS_ORACLE_STRIDE == 0
        ]
        serial = estimate_misses(
            prep.nprog,
            prep.layout,
            cache_of(a.key[1]),
            reuse=prep.reuse_table(32),
            walker=prep.walker,
            refs=refs,
            seed=self.inputs["sampling_seed"],
        )
        got = {r.uid: tallies(a.report)[r.uid] for r in refs}
        checker.same(a.id, "jobs2==serial", a.label, got, tallies(serial))


def build_stencil3(n: int):
    """1-D 3-point stencil chain (``benchmarks/bench_symbolic.py``'s
    family): stride-1, so every region is certified in closed form."""
    pb = ProgramBuilder("STENCIL3")
    a = pb.array("A", (n + 2,))
    b = pb.array("B", (n + 2,))
    c = pb.array("C", (n + 2,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 2, n) as i:
            pb.assign(a[i], b[i - 1], b[i], b[i + 1], label="S1")
            pb.assign(c[i], c[i], a[i - 1], a[i], label="S2")
    return pb.build()


def warm_up(wl) -> None:
    """One small untimed serial analysis per method of ``wl`` and one
    simulation.  The first analysis in a process imports SciPy and more
    (about a second); a traced run warms up first, so that its untraced
    pass, which runs first, does not pay a cost its traced pass skips.

    Forked pool workers inherit these imports.  An untraced
    ``table6-jobs2`` run never analyses in its parent process, so there
    every pool's workers import them anew; after the warm-up they do not.
    """
    prep = prepare(build_stencil3(64))
    cache = cache_of((1, 32, 1))
    for method in wl.methods:
        analyze(prep, cache, method=method)
    run_simulation(prep, cache)


#: (program, geometry) pairs where FindMisses does not equal the simulator
#: at the parent commit.  MMT's transposed B references are not uniformly
#: generated, so FindMisses over-estimates its misses (paper, Table 3).
FIND_DISAGREES_WITH_SIM = {("mmt", (4, 32, 2))}


class Kernels(Batch):
    """Fig. 8 Hydro/MGRID/MMT from rewritten FORTRAN plus a large-bound
    stencil, each solved by FindMisses and RegionMisses and simulated."""

    methods = ("find", "regions")

    def __init__(self, seed: int):
        self.inputs = inputs.kernel_inputs(seed)

    def programs(self) -> list:
        built = [
            # Looked up at call time, so the traced run's wrapper is used.
            (name, lambda src=src: repro.frontend.parse_program(src))
            for name, src in self.inputs["sources"].items()
        ]
        n = self.inputs["stencil_n"]
        return built + [("stencil3", lambda: build_stencil3(n))]

    def warm(self) -> list:
        return [
            (name, spec, method)
            for name in ("hydro", "mgrid", "stencil3")
            for spec in self.inputs["caches"]
            for method in self.methods
        ]

    def regions_answers(self) -> list:
        prepared, answers, _ = self._last
        return [
            (prepared[a.key[0]], a) for a in answers
            if a.key[2] == "regions" and not a.repeat and a.report is not None
        ]

    def verify(self, checker: Checker) -> dict:
        super().verify(checker)
        _, answers, sims = self._last
        cold = {a.key: a for a in answers if not a.repeat}
        for (name, spec, method), a in cold.items():
            if a.report is None:
                continue
            if method == "regions":
                find = cold[name, spec, "find"].report
                if find is not None:
                    checker.same(a.id, "regions==find", a.label,
                                 tallies(a.report), tallies(find))
                continue
            sim = sims[name, spec].report
            if sim is not None and (name, spec) not in FIND_DISAGREES_WITH_SIM:
                got = {u: r.cold + r.replacement
                       for u, r in a.report.results.items()}
                checker.same(a.id, "find==sim", a.label, got, dict(sim.misses))
        return {}


# -- serve-mixed ----------------------------------------------------------------


def _get_json(url: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


def start_server(scratch: str):
    """A fresh server over a fresh on-disk memo store, returned once
    ``/v1/healthz`` answers, with the wall interval that took."""
    store = tempfile.mkdtemp(prefix="memo-", dir=scratch)
    start = time.perf_counter()
    server = AnalysisServer(port=0, workers=2, dispatchers=2, cache_dir=store)
    server.start()
    while True:
        try:
            if _get_json(server.url + "/v1/healthz").get("status") == "ok":
                break
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.001)
    return server, store, (start, time.perf_counter())


def discard_server(server, store: str) -> None:
    server.close()
    shutil.rmtree(store)


def request_key(doc: dict) -> str:
    return json.dumps({k: v for k, v in doc.items() if k != "round"},
                      sort_keys=True)


def _is_mmt(doc: dict) -> bool:
    return doc.get("kernel") == "mmt" or "PROGRAM MMT" in doc.get("source", "")


class Serve:
    """An in-process daemon and two closed-loop clients sending a seeded
    mix of kernel and source requests over three methods and three
    geometries: each distinct request once, then once more, then in extra
    warm rounds that only ``warm_p50_s`` counts."""

    methods = tuple(inputs.SERVE_METHODS)

    def __init__(self, seed: int, scratch: str):
        self.inputs = inputs.serve_inputs(seed)
        self.scratch = scratch
        # The oracle, made once and reused by later passes: request key ->
        # (report doc, simulation); (program, cache) -> simulation; the
        # wall intervals of both.
        self._oracle = ({}, {}, [], [])

    def measure(self, checker: Checker, setup_reps: int = SERVE_SETUP_REPS):
        setup, closing = [], []
        for _ in range(setup_reps - 1):
            spare, spare_store, interval = start_server(self.scratch)
            setup.append(interval)
            # Closing a server waits out its 0.5 s accept poll: close each
            # spare one in the background, a few at a time.
            closing.append(threading.Thread(target=discard_server,
                                            args=(spare, spare_store)))
            closing[-1].start()
            if len(closing) >= SERVE_CLOSING:
                closing.pop(0).join()
        for t in closing:
            t.join()
        server, store, interval = start_server(self.scratch)
        setup.append(interval)
        try:
            result = self._drive(checker, server)
            metrics = _get_json(server.url + "/v1/metrics")
        finally:
            server.close()  # flushes the memo store
            shutil.rmtree(store)
        result.update(
            setup=setup,
            server_metrics=metrics,
            memo_hits=server.memo.hits,
            memo_misses=server.memo.misses,
        )
        return result

    def _drive(self, checker: Checker, server) -> dict:
        sequence = self.inputs["sequence"]
        replies: list = [None] * len(sequence)
        stamps: list = [None] * len(sequence)
        ops = [checker.op() for _ in sequence]
        # Each round starts once both clients are done with the one before,
        # as in ``benchmarks/bench_service.py``: a repeat sent while its
        # first request is still being solved would not be a memo read.
        rounds = sorted({doc["round"] for doc in sequence})
        cursors = [
            iter([i for i, doc in enumerate(sequence) if doc["round"] == r])
            for r in rounds
        ]
        lock = threading.Lock()
        round_ends: list = []
        round_done = threading.Barrier(
            SERVE_CLIENTS, action=lambda: round_ends.append(time.perf_counter())
        )

        def client(cid: int) -> None:
            conn = ServeClient(server.url, timeout=180.0)
            for cursor in cursors:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        break
                    doc = dict(sequence[i], client=f"client-{cid}")
                    del doc["round"]
                    start = time.perf_counter()
                    try:
                        replies[i] = conn.analyze(doc)
                    except Exception as exc:  # non-2xx or transport failure
                        checker.fail(ops[i], f"request {i} failed: {exc}")
                    stamps[i] = (start, time.perf_counter())
                round_done.wait()

        threads = [
            threading.Thread(target=client, args=(cid,))
            for cid in range(SERVE_CLIENTS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self._last = (ops, replies)
        done = [i for i, r in enumerate(replies) if r is not None]
        traffic = [i for i in done if sequence[i]["round"] <= 1]
        return {
            # The traffic mix: the cold round and the first warm one.
            "wall": (start, round_ends[1]),
            "completed": len(traffic),
            "answers": [
                (*stamps[i], sequence[i]["round"] > 0, sequence[i]["method"])
                for i in traffic
            ],
            "extra_warm": [stamps[i] for i in done
                           if sequence[i]["round"] > 1],
        }

    def verify(self, checker: Checker) -> dict:
        """Every reply must equal offline ``analyze`` of the same request
        byte for byte; find/regions replies on Hydro and MGRID must also
        equal the simulator.  The offline runs are timed: they are this
        workload's ``analysis_s`` and ``sim_s``.  They are made once per
        distinct request and reused by later passes, which report the
        same timings."""
        ops, replies = self._last
        with serial_cpu():
            return self._check_replies(checker, ops, replies)

    def _check_replies(self, checker: Checker, ops, replies) -> dict:
        offline, sims, analyses, sim_times = self._oracle
        errs = []
        for i, doc in enumerate(self.inputs["sequence"]):
            if replies[i] is None:
                continue
            key = request_key(doc)
            if key not in offline:
                if "source" in doc:
                    program = program_from_source(doc["source"])
                else:
                    program = load_kernel(doc["kernel"], doc.get("size"))
                prep = prepare(program)
                cache = parse_cache_spec(doc["cache"])
                start = time.perf_counter()
                report = analyze(prep, cache, method=doc["method"])
                analyses.append((start, time.perf_counter()))
                program_key = (doc.get("kernel"), doc.get("size"),
                               doc.get("source"), doc["cache"])
                if program_key not in sims:
                    start = time.perf_counter()
                    sims[program_key] = run_simulation(prep, cache)
                    sim_times.append([(start, time.perf_counter())]
                                     + time_reps(run_simulation, prep, cache,
                                                 reps=SERVE_SIM_REPS - 1))
                want = json.loads(json.dumps(report_doc(report)))
                offline[key] = (want, sims[program_key])
            want, sim = offline[key]
            reply = replies[i]["report"]
            checker.same(ops[i], "serve==offline", f"request {i}", reply, want)
            errs.append(abs(reply["totals"]["miss_ratio_percent"]
                            - sim.miss_ratio_percent))
            if doc["method"] != "estimate" and not _is_mmt(doc):
                got = {r["uid"]: r["cold"] + r["replacement"]
                       for r in reply["refs"]}
                checker.same(ops[i], "find==sim", f"request {i}", got,
                             dict(sim.misses))
        return {
            "analyses": list(analyses),
            "sims": list(sim_times),
            "accesses": sum(s.total_accesses for s in sims.values()),
            "abs_err_max_pp": max(errs, default=0.0),
        }
