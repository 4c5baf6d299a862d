"""Tests of the high-level façade (prepare / analyze / run_simulation)."""

import importlib
import multiprocessing

import pytest

from repro import (
    CacheConfig,
    ProgramBuilder,
    ReuseOptions,
    analyze,
    prepare,
    run_simulation,
)
from tests.fixtures import UNKNOWN_METHODS


def demo_program(n=32):
    pb = ProgramBuilder("DEMO")
    a = pb.array("A", (n, n))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, n) as j:
            with pb.do("I", 1, n) as i:
                pb.assign(a[i, j])
    return pb.build()


class TestPrepare:
    def test_prepare_returns_reusable_object(self):
        prepared = prepare(demo_program())
        assert prepared.nprog.depth == 2
        assert prepared.walker is not None
        assert prepared.inline_result.inlined_instances == 0

    def test_reuse_table_cached(self):
        prepared = prepare(demo_program())
        t1 = prepared.reuse_table(32)
        t2 = prepared.reuse_table(32)
        assert t1 is t2
        assert prepared.reuse_table(64) is not t1

    def test_reuse_table_options_are_part_of_key(self):
        prepared = prepare(demo_program())
        default = prepared.reuse_table(32)
        ablated = prepared.reuse_table(32, ReuseOptions(spatial=False))
        assert default is not ablated

    def test_stats(self):
        prepared = prepare(demo_program())
        assert prepared.stats().references == 1

    def test_padding_changes_layout(self):
        program = demo_program()
        p0 = prepare(program, pad_bytes=0)
        p1 = prepare(program, pad_bytes=64)
        assert p0.layout.total_bytes < p1.layout.total_bytes


class TestAnalyze:
    def test_program_accepted_directly(self):
        cache = CacheConfig.kb(8, 32, 1)
        report = analyze(demo_program(), cache, method="find")
        assert report.total_accesses == 32 * 32

    def test_prepared_accepted(self):
        cache = CacheConfig.kb(8, 32, 1)
        prepared = prepare(demo_program())
        a = analyze(prepared, cache, method="find")
        b = run_simulation(prepared, cache)
        assert a.total_misses == b.total_misses

    def test_unknown_method_rejected(self):
        prepared = prepare(demo_program())
        cache = CacheConfig.kb(8, 32, 1)
        for method in UNKNOWN_METHODS:
            with pytest.raises(ValueError, match="unknown method"):
                analyze(prepared, cache, method=method)

    @pytest.mark.parametrize("jobs", [0, 2, -1])
    def test_jobs_is_ignored(self, jobs):
        """``jobs`` is deprecated: accepted, unvalidated, always serial."""
        prepared = prepare(demo_program(48))
        cache = CacheConfig.kb(2, 32, 2)
        for method in ("estimate", "find"):
            report = analyze(prepared, cache, method=method, jobs=jobs)
            assert report == analyze(prepared, cache, method=method)
            assert multiprocessing.active_children() == []

    def test_no_process_pool_module(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.parallel")

    def test_seed_controls_sampling(self):
        prepared = prepare(demo_program(48))
        cache = CacheConfig.kb(2, 32, 1)
        r1 = analyze(prepared, cache, seed=1)
        r2 = analyze(prepared, cache, seed=1)
        r3 = analyze(prepared, cache, seed=2)
        assert r1.total_misses == r2.total_misses
        assert r1.analysed_points == r3.analysed_points

    def test_reuse_options_flow_through(self):
        prepared = prepare(demo_program())
        cache = CacheConfig.kb(8, 32, 1)
        full = analyze(prepared, cache, method="find")
        no_spatial = analyze(
            prepared, cache, method="find",
            reuse_options=ReuseOptions(spatial=False),
        )
        assert no_spatial.total_misses >= full.total_misses

    def test_sweeping_associativity_reuses_front_end(self):
        prepared = prepare(demo_program())
        ratios = []
        for assoc in (1, 2, 4):
            cache = CacheConfig.kb(1, 32, assoc)
            ratios.append(analyze(prepared, cache, method="find").miss_ratio)
        sims = [
            run_simulation(prepared, CacheConfig.kb(1, 32, assoc)).miss_ratio
            for assoc in (1, 2, 4)
        ]
        assert ratios == sims


class TestStackIntegration:
    def test_prepare_with_stack_model(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            pb.call("F", a)
        with pb.subroutine("F") as f:
            c = f.array_formal("C", (16,))
            with pb.do("I", 1, 16) as i:
                pb.assign(c[i])
        prepared = prepare(pb.build(), model_stack=True)
        assert prepared.inline_result.stack_array is not None
        cache = CacheConfig.kb(8, 32, 1)
        a_report = analyze(prepared, cache, method="find")
        s_report = run_simulation(prepared, cache)
        assert a_report.total_accesses == s_report.total_accesses
        # The stack stream adds accesses beyond the 16 array writes.
        assert s_report.total_accesses > 16
