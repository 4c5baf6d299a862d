"""Engine tests: pooled vs offline bit-identity, shared-memo dedup, errors."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis import analyze, prepare
from repro.memo import Memoizer
from repro.serve.engine import AnalysisEngine, load_kernel, program_from_source
from repro.serve.protocol import (
    AnalyzeRequest,
    ParseFailure,
    RequestTimeout,
    UnknownKernel,
    parse_cache_spec,
    report_doc,
)

CASES = [
    ("hydro", 16, "find"),
    ("hydro", 16, "estimate"),
    ("mgrid", 8, "find"),
    ("mgrid", 8, "estimate"),
    ("mmt", 12, "find"),
    ("mmt", 12, "estimate"),
]


def request_for(kernel, size, method, cache="4:32:2", **kw):
    return AnalyzeRequest(
        cache=parse_cache_spec(cache),
        kernel=kernel,
        size=size,
        method=method,
        **kw,
    )


def test_load_kernel_unknown():
    with pytest.raises(UnknownKernel):
        load_kernel("quantum")


def test_program_from_source_bad_text():
    with pytest.raises(ParseFailure):
        program_from_source("definitely not fortran (")


@pytest.mark.parametrize("kernel,size,method", CASES)
def test_pooled_report_bit_identical_to_offline(kernel, size, method):
    """The daemon's pooled path equals the library path, field for field."""
    offline = analyze(
        prepare(load_kernel(kernel, size)),
        parse_cache_spec("4:32:2"),
        method=method,
    )
    engine = AnalysisEngine(memo=Memoizer())
    with ThreadPoolExecutor(max_workers=4) as pool:
        pooled, info = engine.run(
            request_for(kernel, size, method), pool=pool
        )
    assert pooled == offline
    assert report_doc(pooled) == report_doc(offline)
    assert info["memo"]["misses"] > 0


@pytest.mark.parametrize("method", ["find", "estimate"])
def test_cross_request_memo_hits(method):
    """A repeated request replays entirely from the shared memo table."""
    engine = AnalysisEngine(memo=Memoizer())
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, info1 = engine.run(request_for("hydro", 16, method), pool=pool)
        second, info2 = engine.run(request_for("hydro", 16, method), pool=pool)
    assert first == second
    assert info1["memo"]["hits"] >= 0 and info1["memo"]["misses"] > 0
    assert info2["memo"]["misses"] == 0
    assert info2["memo"]["hits"] == len(second.results)


@pytest.mark.parametrize("method", ["find", "estimate", "regions"])
def test_warm_store_hits_are_the_requests_own(tmp_path, method):
    """On a warm store both solve modes report the plan's own counts: every
    reference is replayed from disk and counted once as a store hit."""
    request = request_for("hydro", 16, method)
    with Memoizer.open(str(tmp_path)) as cold:
        AnalysisEngine(memo=cold).run(request)
    offline_memo = Memoizer.open(str(tmp_path))
    _, offline = AnalysisEngine(memo=offline_memo).run(request)
    pooled_memo = Memoizer.open(str(tmp_path))
    with ThreadPoolExecutor(max_workers=2) as pool:
        report, pooled = AnalysisEngine(memo=pooled_memo).run(
            request, pool=pool
        )
    assert pooled["memo"] == offline["memo"]
    refs = len(report.results)
    assert pooled["memo"] == {"hits": refs, "misses": 0, "store_hits": refs}
    assert pooled_memo.store_hits == offline_memo.store_hits == refs


def test_memoized_pooled_report_identical_to_unmemoized():
    request = request_for("mmt", 12, "find")
    bare = AnalysisEngine()
    memod = AnalysisEngine(memo=Memoizer())
    with ThreadPoolExecutor(max_workers=2) as pool:
        a, _ = bare.run(request, pool=pool)
        b, _ = memod.run(request, pool=pool)
        c, _ = memod.run(request, pool=pool)  # warm replay
    assert report_doc(a) == report_doc(b) == report_doc(c)


def test_offline_path_matches_direct_analyze():
    request = request_for("hydro", 16, "estimate", seed=3)
    engine = AnalysisEngine()
    via_engine, info = engine.run(request)
    direct = analyze(
        prepare(load_kernel("hydro", 16)),
        parse_cache_spec("4:32:2"),
        method="estimate",
        seed=3,
    )
    assert via_engine == direct
    assert info["solve_seconds"] >= 0.0


def test_source_requests_share_the_prepared_cache():
    source = """\
      PROGRAM TINY
      REAL A(64)
      DO 10 I = 1, 64
      A(I) = 0.0
10    CONTINUE
      END
"""
    engine = AnalysisEngine(memo=Memoizer())
    req = AnalyzeRequest(
        cache=parse_cache_spec("1:16:1"), source=source, method="find"
    )
    with ThreadPoolExecutor(max_workers=2) as pool:
        a, _ = engine.run(req, pool=pool)
        b, info = engine.run(req, pool=pool)
    assert a == b
    assert info["memo"]["misses"] == 0
    assert len(engine._prepared) == 1


def test_expired_deadline_raises_timeout():
    engine = AnalysisEngine()
    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(RequestTimeout):
            engine.run(request_for("hydro", 16, "find"), pool=pool, deadline=0.0)


def test_prepared_lru_eviction():
    engine = AnalysisEngine(max_prepared=2)
    for size in (8, 10, 12):
        engine.prepared_for(request_for("hydro", size, "find"))
    assert len(engine._prepared) == 2
    assert "kernel:hydro:8:2" not in engine._prepared
