"""One window query per replayed geometry equals one query per reference.

Before the first unit of a solve, :func:`repro.cme.solver.solve_misses`
hands the classifier every unit's decision key, and
:meth:`BatchClassifier.query_windows` answers every stored decision that
ends in trace times with a single :meth:`TraceIndex.conflicts_reach`; each
unit then takes its own outcomes.  Here that path is diffed against the
per-reference path (the query switched off): every report and every
``cme.*`` counter must be equal — ``cme.window.*``, ``cme.decisions.shared``
and ``cme.solver.vector_trials`` included — on Table 6, on the 210-case
pool at 1, 2 and 4 ways, under a memo plan that solves a subset of the
references, under a byte budget that evicts decisions between the query
and their units, and from two daemon threads solving two geometries of one
program at once.  The query must also leave the store untouched: no entry
moves in the eviction order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import pytest

import repro.cme.decisions as decisions
from repro import CacheConfig, Memoizer, obs, prepare
from repro.cme.batch import BatchClassifier
from repro.cme.solver import solve_misses, solver_for
from repro.iteration.batch import TraceIndex
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.reuse import build_reuse_table
from repro.serve.engine import AnalysisEngine
from repro.serve.protocol import AnalyzeRequest, parse_cache_spec, report_doc
from tests.harness.differential import FAMILIES, generate_cases


@pytest.fixture(autouse=True)
def own_ledger(monkeypatch):
    """A ledger of this test's stores alone, so budgets evict only them."""
    monkeypatch.setattr(decisions, "_LEDGER", OrderedDict())
    monkeypatch.setattr(decisions, "_BYTES", 0)


def query_off(monkeypatch):
    monkeypatch.setattr(
        BatchClassifier, "query_windows", lambda self, keys: None
    )


def counting_queries(monkeypatch) -> list:
    """Record the length of every ``conflicts_reach`` call."""
    calls = []
    reach = TraceIndex.conflicts_reach

    def spy(self, t_lo, t_hi, lines, k):
        calls.append(len(t_lo))
        return reach(self, t_lo, t_hi, lines, k)

    monkeypatch.setattr(TraceIndex, "conflicts_reach", spy)
    return calls


def solve(solver, nprog, layout, cache, reuse, memo=None, refs=None):
    """One solve's results, memo plan and ``cme.*`` counters."""
    obs.enable()
    obs.reset()
    try:
        report = solve_misses(
            solver, nprog, layout, cache, reuse, refs=refs, memo=memo
        )
        counters = {
            k: v for k, v in obs.snapshot()["counters"].items()
            if k.startswith("cme.")
        }
    finally:
        obs.disable()
    return report.results, report.memo, counters


def table6():
    for program in (build_tomcatv_like(40, 2), build_swim_like(40, 2),
                    build_applu_like(20, 2)):
        prep = prepare(program)
        yield prep.nprog, prep.layout, prep.reuse_table(32)


def sweep_table6(solver):
    return [
        solve(solver, nprog, layout, CacheConfig.kb(4, 32, k), reuse)
        for nprog, layout, reuse in table6() for k in (1, 2, 4)
    ]


def test_table6_one_query_per_replayed_geometry(monkeypatch):
    solver = solver_for("estimate")
    with monkeypatch.context() as m:
        query_off(m)
        calls = counting_queries(m)
        want = sweep_table6(solver)
    per_ref = len(calls)
    calls = counting_queries(monkeypatch)
    got = sweep_table6(solver)
    assert got == want
    # A replayed geometry queries the index once; the direct-mapped one,
    # which makes the decisions, once per reference as before.
    refs = sum(len(nprog.refs) for nprog, _, _ in table6())
    assert per_ref == 3 * refs
    assert len(calls) == refs + 2 * 3


def pool_geometries(case):
    """A first geometry that makes the decisions, then 1, 2 and 4 ways at
    the case's size (or the smallest size that holds them)."""
    c = case.cache
    first = CacheConfig(2 * c.size_bytes, c.line_bytes, 1)
    later = []
    for k in (1, 2, 4):
        size = max(c.size_bytes, c.line_bytes * k)
        later.append(CacheConfig(size, c.line_bytes, k))
    return [first] + later


def sweep_pool(method):
    solver = solver_for(method, seed=3)
    out = []
    for case in generate_cases(30 * len(FAMILIES)):
        nprog, layout = case.prepared()
        reuse = build_reuse_table(nprog, case.cache.line_bytes)
        for cache in pool_geometries(case):
            out.append(solve(solver, nprog, layout, cache, reuse))
    return out


@pytest.mark.parametrize("method", ["estimate", "find"])
def test_pool_at_one_two_and_four_ways(monkeypatch, method):
    with monkeypatch.context() as m:
        query_off(m)
        want = sweep_pool(method)
    answered = []
    query = BatchClassifier.query_windows

    def spy(self, keys):
        query(self, keys)
        answered.append(len(self._answers))

    monkeypatch.setattr(BatchClassifier, "query_windows", spy)
    assert sweep_pool(method) == want
    assert sum(answered) > 0


def test_memo_plan_solving_a_subset(monkeypatch):
    """References the memo already holds are not solved; the query gets
    the plan's targets alone."""
    solver = solver_for("estimate")

    def run():
        memo = Memoizer()
        out = []
        for nprog, layout, reuse in table6():
            direct = CacheConfig.kb(4, 32, 1)
            solve(solver, nprog, layout, direct, reuse)
            two_way = CacheConfig.kb(4, 32, 2)
            solve(solver, nprog, layout, two_way, reuse, memo,
                  refs=nprog.refs[::3])
            out.append(solve(solver, nprog, layout, two_way, reuse, memo))
        return out

    with monkeypatch.context() as m:
        query_off(m)
        want = run()
    got = run()
    assert got == want
    assert all(plan["hits"] and plan["misses"] for _, plan, _ in got)


def test_decision_evicted_between_query_and_unit(monkeypatch):
    """A budget the direct-mapped solve fills exactly: the later
    geometry's index evicts stored decisions after the query read them,
    and their units make them afresh — in the same order either way."""
    solver = solver_for("estimate")

    def run():
        out = []
        for nprog, layout, _ in table6():
            reuse = build_reuse_table(nprog, 32)
            with monkeypatch.context() as m:
                m.setattr(decisions, "DECISION_STORE_BYTES", 8 << 20)
                out.append(solve(solver, nprog, layout,
                                 CacheConfig.kb(4, 32, 1), reuse))
                m.setattr(decisions, "DECISION_STORE_BYTES",
                          decisions.stored_bytes())
                for k in (2, 4):
                    out.append(solve(solver, nprog, layout,
                                     CacheConfig.kb(4, 32, k), reuse))
        return out

    with monkeypatch.context() as m:
        query_off(m)
        want = run()
    evicted = []
    query, get = BatchClassifier.query_windows, decisions.DecisionStore.get
    answered: set = set()

    def spy_query(self, keys):
        query(self, keys)
        answered.update(self._answers)

    def spy_get(self, key):
        value = get(self, key)
        if value is None and key in answered:
            evicted.append(key)
        return value

    monkeypatch.setattr(BatchClassifier, "query_windows", spy_query)
    monkeypatch.setattr(decisions.DecisionStore, "get", spy_get)
    got = run()
    assert got == want
    assert evicted
    assert any(c.get("cme.decisions.shared", 0) for _, _, c in got)


def test_query_leaves_the_store_order_alone():
    nprog, layout, reuse = next(table6())
    solver = solver_for("estimate")
    solve(solver, nprog, layout, CacheConfig.kb(4, 32, 1), reuse)
    classifier = BatchClassifier(
        nprog, layout, CacheConfig.kb(4, 32, 2), reuse
    )
    keys = [solver.decision_key(classifier, ref) for ref in nprog.refs]
    order = list(decisions._LEDGER)
    classifier.query_windows(keys)
    assert list(decisions._LEDGER) == order
    assert len(classifier._answers) == len(nprog.refs)


def test_two_daemon_threads_two_geometries(monkeypatch):
    """After a direct-mapped request, a 2-way and a 4-way one of the same
    program run at once on two threads; answers and counters equal."""
    def run():
        engine = AnalysisEngine()

        def request(spec):
            return AnalyzeRequest(
                cache=parse_cache_spec(spec), kernel="swim", size=24,
                method="estimate",
            )

        engine.run(request("4:32:1"))
        specs = ["4:32:2", "4:32:4"]
        start = threading.Barrier(len(specs))
        docs, errors = {}, []

        def work(spec):
            try:
                start.wait()
                docs[spec] = report_doc(engine.run(request(spec))[0])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        obs.enable()
        obs.reset()
        try:
            threads = [threading.Thread(target=work, args=(s,))
                       for s in specs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            counters = {
                k: v for k, v in obs.snapshot()["counters"].items()
                if k.startswith("cme.")
            }
        finally:
            obs.disable()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        return docs, counters

    with monkeypatch.context() as m:
        query_off(m)
        want = run()
    got = run()
    assert got == want
    assert got[1]["cme.decisions.shared"] > 0
