"""Spliced memo keys against the one-shot oracle encoder.

:class:`repro.memo.KeyBuilder` encodes each interference span's structure
and each reference's tail once per (reuse table, layout) and splices them
with the per-geometry placements.  Every key it builds must equal the one
:mod:`tests.memo.key_oracle` builds by encoding each whole key document
with one ``json.dumps`` — on the Table 6 programs, the Fig. 8 kernels
(builders, bundled FORTRAN and FORTRAN rewritten to the daemon benchmark's
sizes) and the 210-case harness pool, at three geometries, for every
method and two sampling seeds.  Literal digests pin the bytes themselves:
changing them needs a ``KEY_SCHEMA`` bump.
"""

from __future__ import annotations

import re
import sys
import threading

import pytest

from repro import CacheConfig, Memoizer, prepare
from repro.cme.solver import solver_for
from repro.kernels import build_hydro, build_mgrid, build_mmt, fortran_source
from repro.frontend import parse_program
from repro.memo import KeyBuilder
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.reuse import build_reuse_table
from tests.harness.differential import generate_cases
from tests.memo.key_oracle import OracleKeyBuilder

GEOMETRIES = (
    CacheConfig.kb(1, 32, 1),
    CacheConfig.kb(4, 32, 2),
    CacheConfig.kb(8, 64, 4),
)

SOLVERS = (
    solver_for("find"),
    solver_for("regions"),
    solver_for("estimate", seed=0),
    solver_for("estimate", seed=7),
)


def rewritten(name: str, values: dict):
    """A bundled FORTRAN kernel with its ``PARAMETER`` statement replaced."""
    body = ", ".join(f"{key}={value}" for key, value in values.items())
    source, count = re.subn(
        r"PARAMETER \([^)]*\)", f"PARAMETER ({body})", fortran_source(name)
    )
    assert count == 1
    return parse_program(source)


PROGRAMS = {
    "TOMCATV": lambda: build_tomcatv_like(40, 2),
    "SWIM": lambda: build_swim_like(40, 2),
    "APPLU": lambda: build_applu_like(20, 2),
    "Hydro": lambda: build_hydro(32, 32),
    "MGRID": lambda: build_mgrid(12),
    "MMT": lambda: build_mmt(24, 24, 12),
    "hydro.f": lambda: parse_program(fortran_source("hydro")),
    "mgrid.f": lambda: parse_program(fortran_source("mgrid")),
    "mmt.f": lambda: parse_program(fortran_source("mmt")),
    "hydro.f@16": lambda: rewritten("hydro", {"JN": 16, "KN": 16}),
    "mgrid.f@8": lambda: rewritten("mgrid", {"M": 8, "MF": 15}),
    "mmt.f@16": lambda: rewritten("mmt", {"N": 16, "BJ": 8, "BK": 4}),
}


def key_mismatches(label, nprog, layout, reuse_of) -> list[str]:
    """Every (geometry, solver, reference) whose key differs from the
    oracle's; one production builder per geometry shares ``reuse_of``'s
    tables, as the sessions of a daemon do."""
    bad = []
    for cache in GEOMETRIES:
        reuse = reuse_of(cache.line_bytes)
        spliced = KeyBuilder(nprog, layout, cache, reuse)
        oracle = OracleKeyBuilder(nprog, layout, cache, reuse)
        for solver in SOLVERS:
            for ref in nprog.refs:
                params = solver.memo_params(ref)
                got = spliced.key(ref, solver.method, params)
                want = oracle.key(ref, solver.method, params)
                if got != want:
                    bad.append(f"{label} {cache} {solver.method} {ref.name()}")
    return bad


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_keys_match_the_oracle(name):
    prepared = prepare(PROGRAMS[name]())
    assert not key_mismatches(
        name, prepared.nprog, prepared.layout, prepared.reuse_table
    )


def test_case_pool_keys_match_the_oracle():
    bad = []
    for case in generate_cases(210):
        nprog, layout = case.prepared()
        tables = {}

        def reuse_of(line, nprog=nprog, tables=tables):
            if line not in tables:
                tables[line] = build_reuse_table(nprog, line)
            return tables[line]

        bad += key_mismatches(case.name, nprog, layout, reuse_of)
    assert not bad, bad[:10]


#: Keys built by the one-shot encoder before the splice; a change to any
#: byte of a key document must come with a ``KEY_SCHEMA`` bump.
GOLDEN = [
    (
        "Hydro", CacheConfig.kb(4, 32, 2), "find", 0, 0,
        "3a7cb8bb7be9d3b63d8728f5190448b836b9b3da9092f7bf96ae5d8cbe1dc3eb",
    ),
    (
        "SWIM", CacheConfig.kb(8, 64, 4), "estimate", 7, -1,
        "0fec7e206591aafdab4ff3707624b87add12fe0634b660a97b4e5b9254cd0026",
    ),
    (
        "mmt.f@16", CacheConfig.kb(1, 32, 1), "regions", 0, 3,
        "2e4aee44e406d7f7a86120f88f1ac17135c0e98fc1573d94a778d69ef8ff7a4a",
    ),
    (
        "APPLU", CacheConfig.kb(1, 32, 1), "estimate", 0, 11,
        "58d05da0b7cf9ac5e4d0ef7bc8fec599542f42727bfdb4b392f904f5d5f9cceb",
    ),
]


@pytest.mark.parametrize(
    "name, cache, method, seed, index, digest",
    GOLDEN,
    ids=[f"{row[0]}-{row[2]}" for row in GOLDEN],
)
def test_golden_key_digests(name, cache, method, seed, index, digest):
    prepared = prepare(PROGRAMS[name]())
    reuse = prepared.reuse_table(cache.line_bytes)
    ref = prepared.nprog.refs[index]
    params = solver_for(method, seed=seed).memo_params(ref)
    builder = KeyBuilder(prepared.nprog, prepared.layout, cache, reuse)
    assert builder.key(ref, method, params) == digest


def test_each_span_is_encoded_once_per_reuse_table(monkeypatch):
    """Every geometry of one line size, and every session, shares the
    encoded spans of that line size's reuse table."""
    encoded = []
    original = KeyBuilder._encode_span

    def spy(self, first, last):
        encoded.append((id(self.reuse), first, last))
        return original(self, first, last)

    monkeypatch.setattr(KeyBuilder, "_encode_span", spy)
    prepared = prepare(build_hydro(16, 16))
    caches = [
        CacheConfig.kb(size, line, assoc)
        for line in (32, 64)
        for size in (1, 4, 8)
        for assoc in (1, 2)
    ]
    for _session in range(2):
        for cache in caches:
            reuse = prepared.reuse_table(cache.line_bytes)
            builder = KeyBuilder(prepared.nprog, prepared.layout, cache, reuse)
            for ref in prepared.nprog.refs:
                builder.key(ref, "find")
    assert encoded
    assert len(encoded) == len(set(encoded))
    assert len({reuse for reuse, _, _ in encoded}) == 2  # one per line size


def test_threads_keying_one_reuse_table_match_the_oracle():
    """Builders at two geometries fill one reuse table's shared encodings
    at once (two threads per geometry, more than the cores CI has, with a
    short switch interval so they interleave inside the encoder)."""
    prepared = prepare(build_swim_like(40, 2))
    reuse = prepared.reuse_table(32)
    caches = (CacheConfig.kb(1, 32, 1), CacheConfig.kb(4, 32, 2)) * 2
    start = threading.Barrier(len(caches))
    got: dict = {}

    def run(slot, cache):
        builder = KeyBuilder(prepared.nprog, prepared.layout, cache, reuse)
        start.wait(timeout=30)
        got[slot] = [builder.key(ref, "find") for ref in prepared.nprog.refs]

    threads = [
        threading.Thread(target=run, args=(slot, cache))
        for slot, cache in enumerate(caches)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for slot, cache in enumerate(caches):
        oracle = OracleKeyBuilder(prepared.nprog, prepared.layout, cache, reuse)
        assert got[slot] == [
            oracle.key(ref, "find") for ref in prepared.nprog.refs
        ]


def test_keys_are_built_outside_the_memo_lock():
    """A session still encoding keys leaves the shared table free for
    other requests' probes."""
    prepared = prepare(build_mgrid(8))
    cache = CacheConfig.kb(4, 32, 2)
    memo = Memoizer()
    session = memo.session(
        solver_for("find"),
        prepared.nprog,
        prepared.layout,
        cache,
        prepared.reuse_table(cache.line_bytes),
    )
    free = []
    original = session._builder.key

    def probing_key(ref, method, params=()):
        if free:
            return original(ref, method, params)

        def other_request():
            if memo.lock.acquire(timeout=5):
                free.append(True)
                memo.lock.release()
            else:
                free.append(False)

        t = threading.Thread(target=other_request)
        t.start()
        t.join(timeout=10)
        return original(ref, method, params)

    session._builder.key = probing_key
    plan = session.plan(prepared.nprog.refs)
    assert len(plan.solve) + plan.replays == len(prepared.nprog.refs)
    assert free == [True]
