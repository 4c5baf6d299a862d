"""Parity of the vectorized enumerator with the scalar Space API.

:func:`~repro.polyhedra.batch.enumerate_points_array` must reproduce
:meth:`BoundedSpace.enumerate_points` exactly — same points, same
lexicographic order (the trace index depends on the order, not just the
set), guards included.
"""

from __future__ import annotations

import pytest

from repro.ir import ProgramBuilder
from repro.normalize import normalize

from repro.polyhedra.batch import enumerate_points_array


def _spaces():
    """RIS spaces covering rectangular, triangular, guarded and 1-point."""
    pb = ProgramBuilder("BATCH")
    a = pb.array("A", (20, 20))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, 6) as j:  # rectangular
            with pb.do("I", 1, 5) as i:
                pb.assign(a[i, j])
        with pb.do("J", 1, 7) as j:  # triangular (I >= J)
            with pb.do("I", j, 7) as i:
                pb.assign(a[i, j])
        with pb.do("J", 1, 6) as j:  # guarded (EQ and GEQ mix)
            with pb.do("I", 1, 6) as i:
                with pb.if_(i.le(j)):
                    pb.assign(a[i, j])
        with pb.do("J", 4, 4) as j:  # degenerate single point
            with pb.do("I", 2, 2) as i:
                pb.assign(a[i, j])
    nprog = normalize(pb.build().main)
    return [(leaf, nprog.ris(leaf)) for leaf in nprog.leaves]


@pytest.mark.parametrize(
    "index", range(4), ids=["rect", "tri", "guarded", "point"]
)
def test_enumerate_points_array_matches_scalar_order(index):
    _, space = _spaces()[index]
    batch = enumerate_points_array(space)
    scalar = list(space.enumerate_points())
    assert batch.shape == (len(scalar), space.ndim)
    assert [tuple(row) for row in batch.tolist()] == scalar
