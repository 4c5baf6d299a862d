"""The span tracer: nesting, aggregation, exception safety, merging."""

import pytest

from repro import obs
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Tracer, traced


def names(spans):
    return [s["name"] for s in spans]


class TestNesting:
    def test_simple_nesting(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        snap = t.snapshot()
        assert names(snap) == ["outer"]
        assert names(snap[0]["children"]) == ["inner"]

    def test_repeated_spans_aggregate(self):
        t = Tracer()
        for _ in range(5):
            with t.span("phase"):
                pass
        (node,) = t.snapshot()
        assert node["count"] == 5
        assert node["seconds"] >= 0.0

    def test_siblings_stay_separate(self):
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("b"):
            pass
        assert names(t.snapshot()) == ["a", "b"]

    def test_current_name_follows_stack(self):
        t = Tracer()
        assert t.current_name() == "root"
        with t.span("outer"):
            assert t.current_name() == "outer"
            with t.span("inner"):
                assert t.current_name() == "inner"
            assert t.current_name() == "outer"
        assert t.current_name() == "root"


class TestExceptionSafety:
    def test_span_closes_on_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("risky"):
                raise ValueError("boom")
        assert t.current_name() == "root"
        (node,) = t.snapshot()
        assert node["count"] == 1

    def test_nested_exception_unwinds_both_levels(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                with t.span("inner"):
                    raise RuntimeError
        assert t.current_name() == "root"
        (outer,) = t.snapshot()
        assert outer["count"] == 1
        assert outer["children"][0]["count"] == 1


class TestDecorator:
    def test_traced_records_under_global_tracer(self):
        @traced("worker_fn")
        def fn(x):
            return x + 1

        obs.enable()
        assert fn(1) == 2
        assert names(obs.tracer().snapshot()) == ["worker_fn"]

    def test_traced_is_free_when_disabled(self):
        @traced("worker_fn")
        def fn(x):
            return x * 2

        assert fn(21) == 42
        assert obs.tracer() is NULL_TRACER


class TestMergeReset:
    def test_reset_clears_tree_and_stack(self):
        t = Tracer()
        with t.span("a"):
            pass
        t.reset()
        assert t.snapshot() == []
        with t.span("b"):
            assert t.current_name() == "b"
        assert names(t.snapshot()) == ["b"]

    def test_phase_times(self):
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("a"):
            pass
        with t.span("b"):
            pass
        phases = t.phase_times()
        assert [(n, c) for n, c, _ in phases] == [("a", 2), ("b", 1)]


class TestDisabledMode:
    def test_null_span_is_shared_and_reusable(self):
        assert obs.span("anything") is NULL_SPAN
        assert obs.span("other") is NULL_SPAN
        with obs.span("nested"):
            with obs.span("deeper"):
                pass
        assert obs.tracer().snapshot() == []

    def test_enable_swaps_live_tracer_in(self):
        obs.enable()
        with obs.span("live"):
            pass
        assert names(obs.tracer().snapshot()) == ["live"]
        obs.disable()
        assert obs.tracer() is NULL_TRACER
