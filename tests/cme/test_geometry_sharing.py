"""Geometry sweeps on one prepared program equal fresh per-geometry runs.

The batch classifier keeps everything it derives without reading the number
of sets or the associativity — the EstimateMisses sample, the cold
equations, the window-oracle choice and window ends, the line trace — in a
store per reuse table and line size (:mod:`repro.cme.decisions`), so a
later geometry only answers the replacement windows.  Sharing must change
speed only: every call's per-reference results and per-call counters equal
those of a fresh ``prepare`` for that geometry alone, in either sweep
order, for every method and across line sizes.  The concurrent daemon,
the byte budget and pickling are pinned here too.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

import repro.cme.decisions as decisions
from repro import CacheConfig, analyze, obs, prepare
from repro.cme import METHODS
from repro.kernels import build_hydro, build_mgrid, build_mmt
from repro.kernels.extra import build_lu
from repro.polyhedra.space import clear_count_cache
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.ir import Program, ProgramBuilder
from repro.serve.engine import AnalysisEngine, load_kernel
from repro.serve.protocol import AnalyzeRequest, parse_cache_spec, report_doc
from repro.sim.batch import TracePlan

PROGRAMS = {
    "tomcatv": lambda: build_tomcatv_like(6, 1),
    "swim": lambda: build_swim_like(6, 1),
    "applu": lambda: build_applu_like(4, 1),
    "hydro": lambda: build_hydro(12, 12),
    "mgrid": lambda: build_mgrid(8),
    "mmt": lambda: build_mmt(16, 8, 4),
    "lu": lambda: build_lu(12),  # triangular: the non-rectangular TracePlan
}

#: Two line sizes; at 32 bytes, 32 sets at 1 and 4 ways.
SWEEP = [(1, 32, 1), (4, 32, 4), (2, 64, 2)]

#: The one counter a shared sweep may lower: replayed samples and cold
#: equations count fewer polyhedra.
MAY_FALL = "polyhedra.count.cache_hits"

#: Replays from the store; a fresh prepare never has any.
SHARED = "cme.decisions.shared"


def solve(prepared, spec, method):
    """One call's results and counters.  The reuse table is built first,
    and the count cache emptied, so both runs count the analysis alone."""
    cache = CacheConfig.kb(*spec)
    prepared.reuse_table(cache.line_bytes)
    clear_count_cache()
    obs.enable()
    obs.reset()
    try:
        report = analyze(prepared, cache, method=method, seed=0)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    return report.results, counters


@pytest.fixture(scope="module")
def fresh():
    """Results and counters of a fresh ``prepare`` per geometry (memoized)."""
    done = {}

    def get(name, method, spec):
        key = (name, method, spec)
        if key not in done:
            done[key] = solve(prepare(PROGRAMS[name]()), spec, method)
        return done[key]

    return get


def test_lu_takes_the_general_trace_path():
    assert not TracePlan(prepare(PROGRAMS["lu"]()).nprog).rectangular


@pytest.mark.parametrize("order", ["forward", "reverse"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_sweep_equals_fresh_prepare(fresh, name, method, order):
    prepared = prepare(PROGRAMS[name]())
    sweep = SWEEP if order == "forward" else SWEEP[::-1]
    shared = 0
    for spec in sweep:
        results, counters = solve(prepared, spec, method)
        want_results, want = fresh(name, method, spec)
        want = dict(want)
        assert results == want_results, spec
        assert counters.pop(MAY_FALL, 0) <= want.pop(MAY_FALL, 0), spec
        assert want.pop(SHARED, 0) == 0
        shared += counters.pop(SHARED, 0)
        assert counters == want, spec
    if method != "regions":  # regions keeps its exact fallback unshared
        assert shared > 0


def request(spec: str, method: str) -> AnalyzeRequest:
    return AnalyzeRequest(
        cache=parse_cache_spec(spec), kernel="hydro", size=16, method=method
    )


@pytest.mark.parametrize("method", ["estimate", "find"])
def test_concurrent_geometries_match_offline(method):
    """Two dispatcher threads solve two geometries of one program at once,
    sharing its store; both answers equal offline ``analyze``."""
    engine = AnalysisEngine()
    specs = ["1:32:1", "4:32:4"]
    start = threading.Barrier(len(specs))
    docs, errors = {}, []

    def run(spec):
        try:
            start.wait()
            report, _ = engine.run(request(spec, method))
            docs[spec] = report_doc(report)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(s,)) for s in specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for spec in specs:
        offline = analyze(
            prepare(load_kernel("hydro", 16)), parse_cache_spec(spec),
            method=method,
        )
        assert docs[spec] == report_doc(offline), spec


def test_store_under_thread_contention(monkeypatch):
    """More threads than cores read and publish one store under a budget
    that forces constant eviction: every read is its key's value, and the
    byte count stays exact and inside the budget."""
    budget = 1024
    monkeypatch.setattr(decisions, "DECISION_STORE_BYTES", budget)
    store = decisions.DecisionStore()
    errors = []

    def work(seed):
        try:
            for i in range(2000):
                key = (seed * 7 + i) % 64
                value = store.get(key)
                if value is None:
                    value = store.put(key, np.full(8, key), 64)
                if int(value[0]) != key:
                    errors.append(key)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    ledger = sum(size for _, size in decisions._LEDGER.values())
    assert decisions.stored_bytes() == ledger <= budget


def build_stencil3(n: int) -> Program:
    """perfbench's large-bound stencil family: 1-D 3-point stencil chain."""
    pb = ProgramBuilder("STENCIL3")
    a = pb.array("A", (n + 2,))
    b = pb.array("B", (n + 2,))
    c = pb.array("C", (n + 2,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 2, n) as i:
            pb.assign(a[i], b[i - 1], b[i], b[i + 1], label="S1")
            pb.assign(c[i], c[i], a[i - 1], a[i], label="S2")
    return pb.build()


def tallies(report) -> dict:
    return {
        uid: (r.population, r.analysed, r.cold, r.replacement, r.hits)
        for uid, r in report.results.items()
    }


def test_large_find_sweep_stays_within_budget():
    """FindMisses on the 200k-bound stencil: the decisions of every
    reference with reuse exceed an eighth of the budget, so they are used
    once and not kept."""
    prepared = prepare(build_stencil3(200_000))
    for spec in [(1, 32, 1), (4, 32, 2)]:
        cache = CacheConfig.kb(*spec)
        report = analyze(prepared, cache, method="find")
        assert decisions.stored_bytes() <= decisions.DECISION_STORE_BYTES
        fresh = analyze(prepare(build_stencil3(200_000)), cache, method="find")
        assert tallies(report) == tallies(fresh), spec


def test_eviction_keeps_reports_and_the_budget(monkeypatch):
    """A budget far below one program's decisions evicts constantly; every
    report still equals a fresh prepare's."""
    monkeypatch.setattr(decisions, "DECISION_STORE_BYTES", 64 << 10)
    prepared = prepare(PROGRAMS["swim"]())
    for spec in SWEEP:
        cache = CacheConfig.kb(*spec)
        for method in ("estimate", "find"):
            report = analyze(prepared, cache, method=method, seed=0)
            assert decisions.stored_bytes() <= 64 << 10
            fresh = analyze(
                prepare(PROGRAMS["swim"]()), cache, method=method, seed=0
            )
            assert tallies(report) == tallies(fresh), (spec, method)


def test_pickled_table_ships_no_store():
    prepared = prepare(PROGRAMS["hydro"]())
    cache = CacheConfig.kb(2, 32, 2)
    analyze(prepared, cache, method="find")
    table = prepared.reuse_table(cache.line_bytes)
    assert table.derived((prepared.layout, cache.line_bytes))["decisions"]
    assert pickle.loads(pickle.dumps(table))._derived == {}
