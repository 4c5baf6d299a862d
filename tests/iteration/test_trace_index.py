"""``TraceIndex`` positions against the walker's execution order.

The index is built by the simulator's trace builder: on rectangular
programs ``t_of`` is the exact affine time plan, elsewhere the rank of a
box time among the builder's sorted keys.  Over the 210-case harness pool
(both kinds of program), every access of every reference must land on the
walker-stream slot holding that reference and address, the slots must
tile the trace exactly once, and one reference's slots must increase in
lexicographic point order.

The line trace keeps its lines as int32 when every line fits and as int64
otherwise: a program whose last line is past 2³¹ pins the choice, and the
pool checks run again on int64 lines (``_with_int64_lines``).
"""

from __future__ import annotations

import numpy as np

import repro.iteration.batch as iteration_batch
from repro.ir import ProgramBuilder
from repro.iteration import Walker
from repro.iteration.batch import LineTrace, TraceIndex
from repro.layout import layout_for_refs
from repro.normalize import normalize
from repro.polyhedra.batch import enumerate_points_array
from repro.sim import collect_walker_trace
from repro.sim.batch import TracePlan
from tests.harness.differential import FAMILIES, generate_cases


def keep_int64_lines(monkeypatch):
    """Line traces keep int64 lines, as past 2³¹ lines they must."""
    monkeypatch.setattr(iteration_batch, "narrow_lines", lambda a: a)


def test_lines_are_int32_until_a_line_needs_more():
    """``A(1…4)`` and ``A(n−3…n)`` of an 8-byte array of ``n = 2³³ + 8``
    elements: on 32-byte lines the last line is 2³¹ + 1, on 64-byte ones
    it fits."""
    n = (1 << 33) + 8
    pb = ProgramBuilder("FAR")
    a = pb.array("A", (n,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 1, 4) as i:
            pb.assign(a[i], a[n - 4 + i])
    program = pb.build()
    nprog = normalize(program.main)
    layout = layout_for_refs(
        nprog.refs, declared_order=program.global_arrays, align=32
    )
    walker = Walker(nprog, layout)
    wide = LineTrace(nprog, walker, 32)
    assert wide.lines.dtype == np.int64
    assert int(wide.lines.max()) >= 1 << 31
    narrow = LineTrace(nprog, walker, 64)
    assert narrow.lines.dtype == np.int32
    assert (narrow.lines == wide.lines // 2).all()
    for trace, line_bytes in ((wide, 32), (narrow, 64)):
        index = TraceIndex(nprog, walker, line_bytes, 4, trace)
        assert index.lines_by_set.dtype == trace.lines.dtype
        assert index.nbytes == (trace.lines.itemsize + 8) * index.total


def check_t_of(line_dtype):
    kinds = {True: 0, False: 0}
    for case in generate_cases(30 * len(FAMILIES)):
        nprog, layout = case.prepared()
        walker = Walker(nprog, layout)
        stream = collect_walker_trace(walker)
        index = TraceIndex(
            nprog, walker, case.cache.line_bytes, case.cache.num_sets
        )
        assert index.lines_by_set.dtype == line_dtype, case.name
        kinds[TracePlan(nprog).rectangular] += 1
        assert index.total == len(stream), case.name
        seen = np.zeros(len(stream), dtype=np.int64)
        for ref in nprog.refs:
            points = enumerate_points_array(nprog.ris(ref.leaf))
            if not len(points):
                continue
            t = index.t_of(ref, points)
            assert (np.diff(t) > 0).all(), f"{case.name}: {ref} out of order"
            addr = walker.compiled_ref(ref).addr
            for time, point in zip(t.tolist(), points.tolist()):
                expected = (ref.uid, addr.const + sum(
                    coeff * point[d] for d, coeff in addr.terms
                ))
                assert stream[time] == expected, f"{case.name}: {ref} at {time}"
            np.add.at(seen, t, 1)
        assert (seen == 1).all(), f"{case.name}: slots do not tile the trace"
    assert kinds[True] and kinds[False], kinds


def check_footprint(line_dtype):
    per_access = 12 if line_dtype == np.int32 else 16
    for case in generate_cases(2 * len(FAMILIES)):
        nprog, layout = case.prepared()
        walker = Walker(nprog, layout)
        trace = LineTrace(nprog, walker, case.cache.line_bytes)
        index = TraceIndex(
            nprog, walker, case.cache.line_bytes, case.cache.num_sets, trace
        )
        assert trace.lines.dtype == line_dtype, case.name
        assert index.rank.dtype == np.int32, case.name
        assert index.run_end.dtype == np.int32, case.name
        keys = 0 if trace.keys is None else trace.keys.nbytes
        assert index.nbytes <= per_access * index.total + keys, case.name


def test_t_of_matches_walker_order_on_pool():
    check_t_of(np.int32)


def test_t_of_matches_walker_order_with_int64_lines(monkeypatch):
    keep_int64_lines(monkeypatch)
    check_t_of(np.int64)


def test_footprint_is_sixteen_bytes_per_access():
    """``rank`` and ``run_end`` are int32: with the int32 lines of these
    programs the index takes 12 bytes per access, with int64 lines the 16
    it used to take, plus the sorted box times of a non-rectangular
    program."""
    check_footprint(np.int32)


def test_footprint_with_int64_lines(monkeypatch):
    keep_int64_lines(monkeypatch)
    check_footprint(np.int64)


def test_set_sort_equals_a_lexsort_at_every_key_width():
    """The per-set order is a stable sort of the set numbers as 8-bit,
    16-bit or full-width keys, by the set count, through a mask or a
    modulo; each must equal sorting ``(set, t)`` directly."""
    for case in generate_cases(2 * len(FAMILIES)):
        nprog, layout = case.prepared()
        walker = Walker(nprog, layout)
        trace = LineTrace(nprog, walker, case.cache.line_bytes)
        lines = trace.lines.astype(np.int64)
        for sets in (1, 3, 64, 256, 257, 1 << 16, (1 << 16) + 1, 1 << 20):
            index = TraceIndex(
                nprog, walker, case.cache.line_bytes, sets, trace
            )
            order = np.lexsort((np.arange(len(lines)), lines % sets))
            assert (index.lines_by_set == lines[order]).all(), (case, sets)
            assert (index.rank[order] == np.arange(len(lines))).all()
