"""The shared reuse solve against the per-pair oracle.

:func:`repro.reuse.build_reuse_table` solves the reuse equations of each
uniformly generated set once per right-hand side ``Δm`` and filters the
solutions per (producer, consumer) pair.  The table it builds must equal
the one :mod:`tests.reuse.pair_oracle` builds by solving every pair from
scratch — the same consumers, vectors, producers, kinds and order — and
its ``reuse.vectors.*`` counters must read the oracle table's counts.

Inputs: the Table 6 programs at ``bench_table6_whole_programs.py``'s
sizes and the Fig. 8 kernels at ``bench_table3_findmisses.py``'s, each at
every line size and under every :class:`ReuseOptions` ablation, plus the
210-case harness pool, whose cases take the (line size, options) pairs in
turn so that every pair meets every family.
"""

from __future__ import annotations

import itertools

import pytest

from repro import obs, prepare
from repro.kernels import build_hydro, build_mgrid, build_mmt
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.reuse import SPATIAL, ReuseOptions, build_reuse_table
from tests.harness.differential import FAMILIES, generate_cases
from tests.reuse.pair_oracle import pairwise_reuse_table

LINE_SIZES = (8, 16, 32, 64)

ABLATIONS = (
    ReuseOptions(),
    ReuseOptions(temporal=False),
    ReuseOptions(spatial=False),
    ReuseOptions(cross_column=False),
    ReuseOptions(null_combo_bound=1),
    ReuseOptions(max_null_dims=1),
)

PROGRAMS = {
    "TOMCATV": lambda: build_tomcatv_like(40, 2),
    "SWIM": lambda: build_swim_like(40, 2),
    "APPLU": lambda: build_applu_like(20, 2),
    "Hydro": lambda: build_hydro(32, 32),
    "MGRID": lambda: build_mgrid(12),
    "MMT": lambda: build_mmt(24, 24, 12),
}


def canonical(nprog, table) -> list:
    """Each consumer's vectors, in table order, as plain tuples."""
    return [
        (
            ref.uid,
            [(rv.vec, rv.producer.uid, rv.kind) for rv in table.vectors_for(ref)],
        )
        for ref in nprog.refs
    ]


def vector_counts(table) -> dict[str, int]:
    """The ``reuse.vectors.*`` counters a build of ``table`` must record."""
    counts = {
        f"reuse.vectors.{key.replace('-', '_')}": n
        for key, n in table.counts().items()
    }
    vectors = table.all_vectors()
    counts["reuse.vectors.total"] = len(vectors)
    counts["reuse.vectors.cross_column"] = sum(
        1
        for rv in vectors
        if rv.kind == SPATIAL and sum(1 for c in rv.index_part() if c) >= 2
    )
    return counts


def mismatch(nprog, line_bytes: int, options: ReuseOptions) -> str | None:
    """Why the shared build differs from the oracle, or ``None``."""
    obs.enable()
    obs.reset()
    try:
        table = build_reuse_table(nprog, line_bytes, options)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    want = pairwise_reuse_table(nprog, line_bytes, options)
    if canonical(nprog, table) != canonical(nprog, want):
        return "table differs from the per-pair oracle"
    got = {k: v for k, v in counters.items() if k.startswith("reuse.vectors.")}
    if got != vector_counts(want):
        return f"reuse.vectors.* counters {got} != {vector_counts(want)}"
    return None


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_named_programs_match_oracle(name):
    nprog = prepare(PROGRAMS[name]()).nprog
    settings = [(ls, ABLATIONS[0]) for ls in LINE_SIZES]
    settings += [(32, options) for options in ABLATIONS[1:]]
    failures = []
    for line_bytes, options in settings:
        why = mismatch(nprog, line_bytes, options)
        if why:
            failures.append(f"{name} L={line_bytes} {options}: {why}")
    assert not failures, "\n".join(failures)


def test_harness_pool_matches_oracle():
    settings = list(itertools.product(LINE_SIZES, ABLATIONS))
    # 24 settings against 7 families: coprime strides, so each setting
    # meets every family across the pool.
    failures = []
    for k, case in enumerate(generate_cases(30 * len(FAMILIES))):
        line_bytes, options = settings[k % len(settings)]
        nprog, _ = case.prepared()
        why = mismatch(nprog, line_bytes, options)
        if why:
            failures.append(f"{case.name} L={line_bytes} {options}: {why}")
    assert not failures, "\n".join(failures[:20])
