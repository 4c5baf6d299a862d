"""Engine tests: bit-identity with offline ``analyze`` (also under
concurrent callers), shared-memo dedup, deadlines, errors."""

import sys
import threading
import time

import pytest

import repro.cme.find

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
    """The engine over its cached state and the shared memo (the daemon's
    path) equals the library path, field for field."""
    offline = analyze(
        prepare(load_kernel(kernel, size)),
        parse_cache_spec("4:32:2"),
        method=method,
    )
    engine = AnalysisEngine(memo=Memoizer())
    report, info = engine.run(request_for(kernel, size, method))
    assert report == offline
    assert report_doc(report) == report_doc(offline)
    assert info["memo"]["misses"] > 0


@pytest.mark.parametrize("method", ["find", "estimate"])
def test_cross_request_memo_hits(method):
    """A repeated request replays entirely from the shared memo table."""
    engine = AnalysisEngine(memo=Memoizer())
    first, info1 = engine.run(request_for("hydro", 16, method))
    second, info2 = engine.run(request_for("hydro", 16, method))
    assert first == second
    assert info1["memo"]["hits"] >= 0 and info1["memo"]["misses"] > 0
    assert info2["memo"]["misses"] == 0
    assert info2["memo"]["hits"] == len(second.results)


@pytest.mark.parametrize("method", ["find", "estimate", "regions"])
def test_warm_store_hits_are_the_requests_own(tmp_path, method):
    """On a warm store the engine reports the plan's own counts: every
    reference is replayed from disk and counted once as a store hit, by a
    fresh engine and by one whose memo already holds other requests'."""
    request = request_for("hydro", 16, method)
    with Memoizer.open(str(tmp_path)) as cold:
        AnalysisEngine(memo=cold).run(request)
    fresh_memo = Memoizer.open(str(tmp_path))
    report, fresh = AnalysisEngine(memo=fresh_memo).run(request)
    busy_memo = Memoizer.open(str(tmp_path))
    busy = AnalysisEngine(memo=busy_memo)
    busy.run(request_for("mgrid", 8, method))
    before = busy_memo.store_hits
    _, warm = busy.run(request)
    refs = len(report.results)
    assert warm["memo"] == fresh["memo"]
    assert fresh["memo"] == {"hits": refs, "misses": 0, "store_hits": refs}
    assert fresh_memo.store_hits == busy_memo.store_hits - before == refs


def test_memoized_pooled_report_identical_to_unmemoized():
    request = request_for("mmt", 12, "find")
    bare = AnalysisEngine()
    memod = AnalysisEngine(memo=Memoizer())
    a, _ = bare.run(request)
    b, _ = memod.run(request)
    c, _ = memod.run(request)  # warm replay
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
    a, _ = engine.run(req)
    b, info = engine.run(req)
    assert a == b
    assert info["memo"]["misses"] == 0
    assert len(engine._prepared) == 1


def test_expired_deadline_raises_timeout():
    engine = AnalysisEngine()
    with pytest.raises(RequestTimeout):
        engine.run(request_for("hydro", 16, "find"), deadline=0.0)


def test_deadline_between_units_times_out_and_releases_the_lock(
    monkeypatch,
):
    """A deadline that passes after the first unit stops the request
    before the next one; the state's lock is free again afterwards."""
    request = request_for("hydro", 16, "find")
    engine = AnalysisEngine()
    state = engine._state_for(request)
    original = repro.cme.find.find_ref_misses
    solved = []

    def slow_unit(classifier, nprog, ref):
        solved.append(ref.uid)
        time.sleep(0.2)
        return original(classifier, nprog, ref)

    monkeypatch.setattr(repro.cme.find, "find_ref_misses", slow_unit)
    with pytest.raises(RequestTimeout, match="before solving"):
        engine.run(request, deadline=time.monotonic() + 0.1)
    assert len(solved) == 1
    assert not state.lock.locked()
    monkeypatch.undo()
    report, _ = engine.run(request, deadline=time.monotonic() + 60.0)
    offline = analyze(
        prepare(load_kernel("hydro", 16)), parse_cache_spec("4:32:2"),
        method="find",
    )
    assert report_doc(report) == report_doc(offline)


def test_concurrent_callers_on_shared_and_distinct_states():
    """Four threads call ``run`` at once: two pairs share a
    ``(program, geometry)`` state, the pairs differ.  Every report equals
    offline ``analyze``."""
    requests = [
        request_for("hydro", 16, "find"),
        request_for("hydro", 16, "estimate"),
        request_for("mmt", 12, "find", cache="2:32:1"),
        request_for("mmt", 12, "regions", cache="2:32:1"),
    ]
    engine = AnalysisEngine(memo=Memoizer())
    barrier = threading.Barrier(len(requests), timeout=30.0)
    docs, errors = {}, []

    def call(i):
        try:
            barrier.wait()
            docs[i] = report_doc(engine.run(requests[i])[0])
        except Exception as exc:  # surfaced after the join
            errors.append(exc)

    threads = [
        threading.Thread(target=call, args=(i,)) for i in range(len(requests))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside units too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(engine._states) == 2
    for i, req in enumerate(requests):
        offline = analyze(
            prepare(load_kernel(req.kernel, req.size)), req.cache,
            method=req.method,
        )
        assert docs[i] == report_doc(offline), (req.kernel, req.method)


def test_prepared_lru_eviction():
    engine = AnalysisEngine(max_prepared=2)
    for size in (8, 10, 12):
        engine.prepared_for(request_for("hydro", size, "find"))
    assert len(engine._prepared) == 2
    assert "kernel:hydro:8:2" not in engine._prepared
