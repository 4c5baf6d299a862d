"""Guard edge cases for the compiled RIS membership tests.

:class:`~repro.cme.batch._BatchRIS` is the membership test the cold
equations run on every candidate producer point, built from the RIS's
integer rows, and ``_CompiledRIS`` (:mod:`tests.cme.scalar_oracle`) the
oracle's scalar twin compiled from the loop bounds.  Both must agree
with the polyhedral :meth:`Space.contains` oracle — in particular around
the guard-kind split (an ``EQ`` guard admits only ``expr == 0``, a ``GEQ``
guard everything with ``expr >= 0``), empty guard tuples, and degenerate
one-point loop bounds.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.ir import ProgramBuilder
from repro.normalize import normalize
from tests.cme.scalar_oracle import _CompiledRIS


def _leafspace(build):
    """Normalize a one-leaf program; return (nprog, leaf, its RIS space)."""
    pb = ProgramBuilder("RIS")
    build(pb)
    nprog = normalize(pb.build().main)
    assert len(nprog.leaves) == 1
    leaf = nprog.leaves[0]
    return nprog, leaf, nprog.ris(leaf)


def _grid(space, margin=2):
    """Every integer point of the bounding box widened by ``margin``."""
    ranges = [space.var_ranges()[v] for v in space.dims]
    return list(
        itertools.product(
            *[range(lo - margin, hi + margin + 1) for lo, hi in ranges]
        )
    )


def _eq_guarded(pb):
    a = pb.array("A", (10, 10))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, 8) as j:
            with pb.do("I", 1, 8) as i:
                with pb.if_(i.eq(j)):
                    pb.assign(a[i, j])


def _geq_guarded(pb):
    a = pb.array("A", (10, 10))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, 8) as j:
            with pb.do("I", 1, 8) as i:
                with pb.if_(i.ge(j)):
                    pb.assign(a[i, j])


def _unguarded(pb):
    a = pb.array("A", (10,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 1, 8) as i:
            pb.assign(a[i])


def _degenerate(pb):
    # Both loops span exactly one iteration: a one-point RIS.
    a = pb.array("A", (10, 10))
    with pb.subroutine("MAIN"):
        with pb.do("J", 5, 5) as j:
            with pb.do("I", 3, 3) as i:
                pb.assign(a[i, j])


BUILDERS = [_eq_guarded, _geq_guarded, _unguarded, _degenerate]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__[1:])
def test_scalar_contains_matches_space_oracle(build):
    nprog, leaf, space = _leafspace(build)
    ris = _CompiledRIS(nprog, leaf)
    for point in _grid(space):
        assert ris.contains(point) == space.contains(point), point


def test_eq_guard_admits_only_the_diagonal():
    nprog, leaf, _ = _leafspace(_eq_guarded)
    ris = _CompiledRIS(nprog, leaf)
    assert len(ris.guard) == 1 and ris.guard[0][0] is True  # one EQ guard
    assert ris.contains((4, 4))
    assert not ris.contains((4, 5)) and not ris.contains((5, 4))


def test_geq_guard_admits_the_half_space():
    nprog, leaf, _ = _leafspace(_geq_guarded)
    ris = _CompiledRIS(nprog, leaf)
    assert len(ris.guard) == 1 and ris.guard[0][0] is False  # one GEQ guard
    # Points are (J, I) — normalized outer-to-inner order; I >= J admitted.
    assert ris.contains((4, 5)) and ris.contains((4, 4))
    assert not ris.contains((5, 4))


def test_empty_guard_reduces_to_bounds():
    nprog, leaf, _ = _leafspace(_unguarded)
    ris = _CompiledRIS(nprog, leaf)
    assert ris.guard == ()
    assert ris.contains((1,)) and ris.contains((8,))
    assert not ris.contains((0,)) and not ris.contains((9,))


def test_degenerate_bounds_admit_exactly_one_point():
    nprog, leaf, space = _leafspace(_degenerate)
    ris = _CompiledRIS(nprog, leaf)
    assert space.count() == 1
    inside = [p for p in _grid(space) if ris.contains(p)]
    assert inside == [(3, 5)] or inside == [(5, 3)]  # (I, J) vs (J, I) order
    assert len(inside) == 1


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__[1:])
def test_batch_ris_agrees_with_scalar_entrywise(build):
    from repro.cme.batch import _BatchRIS

    nprog, leaf, space = _leafspace(build)
    scalar = _CompiledRIS(nprog, leaf)
    batch = _BatchRIS(space)
    grid = _grid(space)
    mask = batch.contains(np.array(grid, dtype=np.int64))
    for point, got in zip(grid, mask.tolist()):
        assert got == scalar.contains(point), point
