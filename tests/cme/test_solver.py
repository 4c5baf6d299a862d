"""The solver table, the solve driver's memo plan and the unit lookup."""

import pickle
from contextlib import contextmanager

import pytest

import repro.cme.find
from repro import CacheConfig, Memoizer, analyze, prepare
from repro.cme import METHODS, make_classifier, solver_for
from repro.cme.solver import solve_misses
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

    @pytest.mark.parametrize(
        "confidence, width", [(1.5, 0.05), (0.0, 0.05), (0.95, 2.0), (0.95, 0.0)]
    )
    def test_estimate_rejects_accuracy_outside_unit_interval(
        self, confidence, width
    ):
        with pytest.raises(ValueError, match=r"must be in \(0, 1\)"):
            solver_for("estimate", confidence, width)

    def test_exact_solvers_ignore_accuracy(self):
        assert solver_for("find", 1.5, 2.0).method == "find"
        assert solver_for("regions", 1.5, 2.0).method == "regions"

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


class TestSolveMisses:
    def test_units_run_only_for_the_plans_representatives(self, prepared):
        solver = solver_for("find")
        nprog = prepared.nprog
        reuse = prepared.reuse_table(CACHE.line_bytes)
        classifier = make_classifier(
            nprog, prepared.layout, CACHE, reuse, prepared.walker
        )
        solved = []

        @contextmanager
        def unit_guard(ref):
            solved[-1].append(ref)
            yield

        def solve(memo):
            solved.append([])
            return solve_misses(
                solver, nprog, prepared.layout, CACHE, reuse, memo=memo,
                classifier=classifier, unit_guard=unit_guard,
            )

        memo = Memoizer()
        cold = solve(memo)
        warm = solve(memo)
        assert cold == warm == analyze(prepared, CACHE, method="find")
        assert list(cold.results) == [ref.uid for ref in nprog.refs]
        assert cold.memo["misses"] == len(solved[0])
        assert cold.memo["hits"] + cold.memo["misses"] == len(nprog.refs)
        assert solved[1] == []
        assert warm.memo == {
            "hits": len(nprog.refs), "misses": 0, "store_hits": 0
        }
        plain = solve(None)
        assert plain.memo is None
        assert solved[2] == list(nprog.refs)


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
        """The daemon's engine runs every unit through the same lookup."""
        request = AnalyzeRequest(
            cache=CACHE, kernel="hydro", size=12, method="find"
        )
        report, _ = AnalysisEngine().run(request)
        assert calls == list(report.results)
