"""``TraceIndex`` positions against the walker's execution order.

The index is built by the simulator's trace builder: on rectangular
programs ``t_of`` is the exact affine time plan, elsewhere the rank of a
box time among the builder's sorted keys.  Over the 210-case harness pool
(both kinds of program), every access of every reference must land on the
walker-stream slot holding that reference and address, the slots must
tile the trace exactly once, and one reference's slots must increase in
lexicographic point order.
"""

from __future__ import annotations

import pytest

from repro.iteration import Walker
from repro.polyhedra.batch import enumerate_points_array
from repro.sim import collect_walker_trace
from tests.harness.differential import FAMILIES, generate_cases

np = pytest.importorskip("numpy", reason="the trace index needs NumPy")

from repro.iteration.batch import TraceIndex  # noqa: E402
from repro.sim.batch import TracePlan  # noqa: E402


def test_t_of_matches_walker_order_on_pool():
    kinds = {True: 0, False: 0}
    for case in generate_cases(30 * len(FAMILIES)):
        nprog, layout = case.prepared()
        walker = Walker(nprog, layout)
        stream = collect_walker_trace(walker)
        index = TraceIndex(
            nprog, walker, case.cache.line_bytes, case.cache.num_sets
        )
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
