"""The solver table, the shared unit runner and the unit lookup."""

import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.cme.find
from repro import CacheConfig, Memoizer, analyze, prepare
from repro.cme import METHODS, make_classifier, run_units, solver_for
from repro.kernels import build_hydro
from repro.serve.engine import AnalysisEngine
from repro.serve.protocol import AnalyzeRequest

CACHE = CacheConfig.kb(2, 32, assoc=2)


@pytest.fixture(scope="module")
def prepared():
    return prepare(build_hydro(12, 12))


class TestSolverTable:
    def test_methods(self):
        assert METHODS == ("estimate", "find", "regions")

    @pytest.mark.parametrize("method", METHODS)
    def test_solver_round_trips_through_pickle(self, method):
        solver = solver_for(method, 0.9, 0.1, 7)
        assert pickle.loads(pickle.dumps(solver)) == solver
        assert solver.method == method

    def test_memo_params(self, prepared):
        ref = prepared.nprog.refs[3]
        assert solver_for("find").memo_params(ref) == []
        assert solver_for("regions").memo_params(ref) == []
        estimate = solver_for("estimate", 0.9, 0.1, 7)
        assert estimate.memo_params(ref) == [0.9, 0.1, 7 ^ ref.uid]

    def test_report_and_span_names(self):
        names = {m: solver_for(m).report_name for m in METHODS}
        assert names == {
            "estimate": "EstimateMisses",
            "find": "FindMisses",
            "regions": "RegionMisses",
        }
        assert [solver_for(m).span for m in METHODS] == [
            "cme/estimate",
            "cme/find",
            "cme/regions",
        ]


class TestRunUnits:
    def test_executor_sees_only_the_plans_representatives(self, prepared):
        solver = solver_for("find")
        nprog = prepared.nprog
        reuse = prepared.reuse_table(CACHE.line_bytes)
        classifier = make_classifier(
            None, nprog, prepared.layout, CACHE, reuse, prepared.walker
        )
        batches = []

        def solve_refs(refs):
            batches.append(list(refs))
            return {r.uid: solver.solve_ref(classifier, nprog, r) for r in refs}

        memo = Memoizer()
        args = (solver, nprog, prepared.layout, CACHE, reuse, list(nprog.refs))
        cold = run_units(*args, memo, solve_refs)
        warm = run_units(*args, memo, solve_refs)
        assert cold == warm == analyze(prepared, CACHE, method="find")
        assert list(cold.results) == [ref.uid for ref in nprog.refs]
        assert cold.memo["misses"] == len(batches[0])
        assert cold.memo["hits"] + cold.memo["misses"] == len(nprog.refs)
        assert batches[1] == []
        assert warm.memo == {
            "hits": len(nprog.refs), "misses": 0, "store_hits": 0
        }
        assert run_units(*args, None, solve_refs).memo is None


class TestUnitLookup:
    """``Solver.solve_ref`` looks the unit up on its module at call time, so
    a wrapper installed there sees the units of every executor."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = repro.cme.find.find_ref_misses

        def wrapped(classifier, nprog, ref):
            seen.append(ref.uid)
            return original(classifier, nprog, ref)

        monkeypatch.setattr(repro.cme.find, "find_ref_misses", wrapped)
        return seen

    def test_serial(self, prepared, calls):
        analyze(prepared, CACHE, method="find")
        assert calls == [ref.uid for ref in prepared.nprog.refs]

    def test_daemon_pool(self, calls):
        request = AnalyzeRequest(
            cache=CACHE, kernel="hydro", size=12, method="find"
        )
        with ThreadPoolExecutor(max_workers=2) as pool:
            report, _ = AnalysisEngine().run(request, pool=pool)
        assert sorted(calls) == sorted(report.results)
