"""``TraceIndex`` window queries against the walker, query by query.

:meth:`TraceIndex.conflicts_reach` answers the replacement equations'
question — at least ``k`` distinct other lines of the reused line's set
strictly between a producer and a consumer access — from three gathers
over the set-sorted trace.  Here every answer, and every window's
set-sorted slice itself, is diffed against
:meth:`Walker.distinct_conflicts_reach` and :meth:`Walker.walk_between`,
which walk the loop nest and share none of the index's machinery, over
the 210-case harness pool at ``k`` = 1, 2, 4 and 8.

The queries are the real reuse windows of the batch classifier's cold
equations (whose ends must touch the reused line: the invariant both
gathers rest on) plus constructed ones: empty windows, windows starting
at the first or ending at the last access of a set, and whole-lifetime
windows of a line.  A program that ping-pongs two lines of one set adds
windows longer than the probe cap that hold fewer than ``k`` lines, the
exact path.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np

from repro.cme.batch import BatchClassifier
from repro.ir import ProgramBuilder
from repro.iteration import Walker, interleave
from repro.iteration.batch import _PROBE_HOPS, LineTrace, TraceIndex
from repro.layout import CacheConfig, layout_for_refs
from repro.normalize import normalize
from repro.polyhedra.batch import enumerate_points_array
from repro.reuse import build_reuse_table
from tests.harness.differential import FAMILIES, generate_cases

KS = (1, 2, 4, 8)

#: Constructed windows drawn per kind and case (the pool's traces hold at
#: most a few hundred accesses, so every walk stays short).
DRAWS = 8


def positions(nprog, index):
    """Walker position ``(iteration vector, lexpos)`` of every trace time."""
    at = [None] * index.total
    for ref in nprog.refs:
        points = enumerate_points_array(nprog.ris(ref.leaf))
        if not len(points):
            continue
        for t, point in zip(index.t_of(ref, points).tolist(), points.tolist()):
            at[t] = (interleave(ref.label, tuple(point)), ref.lexpos)
    return at


def reuse_windows(nprog, layout, cache, index, lines):
    """The classifier's real reuse windows ``(t_producer, t_consumer)``,
    checked against the invariant: both ends access the consumer's line."""
    classifier = BatchClassifier(
        nprog, layout, cache, build_reuse_table(nprog, cache.line_bytes)
    )
    windows = []
    for ref in nprog.refs:
        points = enumerate_points_array(nprog.ris(ref.leaf))
        if not len(points):
            continue
        via, producers, lines_c, _ = classifier._cold(ref, points)
        vectors = classifier.reuse.vectors_for(ref)
        for j in np.unique(via[via >= 0]).tolist():
            rows = np.flatnonzero(via == j)
            t_p = index.t_of(vectors[j].producer, producers[rows])
            t_c = index.t_of(ref, points[rows])
            assert (lines[t_p] == lines_c[rows]).all(), ref
            assert (lines[t_c] == lines_c[rows]).all(), ref
            windows += zip(t_p.tolist(), t_c.tolist())
    return windows


def constructed_windows(index, lines, rng):
    """Windows between two accesses of one line, by kind."""
    by_line: dict[int, list[int]] = {}
    by_set: dict[int, list[int]] = {}
    for t, line in enumerate(lines.tolist()):
        by_line.setdefault(line, []).append(t)
        by_set.setdefault(line % index.num_sets, []).append(t)
    kinds: dict[str, list[tuple[int, int]]] = {
        "empty": [], "set_first": [], "set_last": [], "lifetime": [],
    }
    for times in by_line.values():
        if len(times) < 2:
            continue
        kinds["lifetime"].append((times[0], times[-1]))
        for a, b in zip(times, times[1:]):
            if index.rank[b] == index.rank[a] + 1:
                kinds["empty"].append((a, b))
    for times in by_set.values():
        first, last = times[0], times[-1]
        same = by_line[int(lines[first])]
        if len(same) > 1:
            kinds["set_first"].append((first, rng.choice(same[1:])))
        same = by_line[int(lines[last])]
        if len(same) > 1:
            kinds["set_last"].append((rng.choice(same[:-1]), last))
    return {
        kind: rng.sample(windows, min(DRAWS, len(windows)))
        for kind, windows in kinds.items()
    }


def check_windows(walker, index, lines, at, windows, line_bytes, seen):
    """Diff every window's slice and every ``k`` answer against the walker."""
    if not windows:
        return
    t_lo = np.array([w[0] for w in windows], dtype=np.int64)
    t_hi = np.array([w[1] for w in windows], dtype=np.int64)
    reused = lines[t_hi]
    assert (lines[t_lo] == reused).all()
    sets = index.num_sets
    lo, hi = index.bounds(t_lo, t_hi)
    answers = {k: index.conflicts_reach(t_lo, t_hi, reused, k) for k in KS}
    for q, (a, b) in enumerate(windows):
        line = int(reused[q])
        walked = []

        def visit(cr, addr, line=line, walked=walked):
            if (addr // line_bytes) % sets == line % sets:
                walked.append(addr // line_bytes)
            return False

        walker.walk_between(at[a], at[b], visit)
        window = index.lines_by_set[lo[q]:hi[q]]
        assert window.tolist() == walked, (a, b)
        runs = 1 + int(np.count_nonzero(window[1:] != window[:-1]))
        distinct = len(set(walked) - {line})
        for k in KS:
            expected = walker.distinct_conflicts_reach(
                at[a], at[b], line % sets, line, k, line_bytes, sets
            )
            assert expected == (distinct >= k)
            assert answers[k][q] == expected, (a, b, k)
            if len(walked) and runs > _PROBE_HOPS and distinct < k:
                seen["exact"] += 1
        seen["windows"] += 1
        seen["walked_empty"] += not walked


def check_case(nprog, layout, cache, rng, seen):
    walker = Walker(nprog, layout)
    trace = LineTrace(nprog, walker, cache.line_bytes)
    index = TraceIndex(
        nprog, walker, cache.line_bytes, cache.num_sets, trace
    )
    lines = trace.lines
    at = positions(nprog, index)
    real = reuse_windows(nprog, layout, cache, index, lines)
    windows = rng.sample(real, min(4 * DRAWS, len(real)))
    for kind, drawn in constructed_windows(index, lines, rng).items():
        seen[kind] += len(drawn)
        windows += drawn
    seen["reuse"] += len(real)
    check_windows(walker, index, lines, at, windows, cache.line_bytes, seen)


def build_ping_pong(n: int, cache: CacheConfig):
    """``A(1)`` and ``A(1 + one cache of elements)`` in turn, ``n`` times:
    two lines of one set, one run each per access."""
    stride = cache.size_bytes // cache.assoc // 8  # 8-byte elements
    pb = ProgramBuilder("PINGPONG")
    a = pb.array("A", (stride + 1,))
    s = pb.array("S", (1,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 1, n):
            pb.assign(s[1], a[1], a[stride + 1], label="S1")
    program = pb.build()
    nprog = normalize(program.main)
    layout = layout_for_refs(
        nprog.refs, declared_order=program.global_arrays, align=32
    )
    return nprog, layout


def test_queries_match_walker_on_pool():
    seen = Counter()
    rng = random.Random(25)
    for case in generate_cases(30 * len(FAMILIES)):
        nprog, layout = case.prepared()
        check_case(nprog, layout, case.cache, rng, seen)
    assert seen["reuse"] > 0 and seen["windows"] > 1000, seen
    for kind in ("empty", "walked_empty", "set_first", "set_last", "lifetime"):
        assert seen[kind] > 0, (kind, seen)


def test_long_windows_of_few_lines_take_the_exact_path():
    seen = Counter()
    cache = CacheConfig.kb(1, 32, 1)
    nprog, layout = build_ping_pong(4 * _PROBE_HOPS, cache)
    check_case(nprog, layout, cache, random.Random(25), seen)
    assert seen["exact"] > 0, seen
