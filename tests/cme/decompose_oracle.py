"""The regional decomposition on ``Affine`` objects: the oracle of the rows.

:meth:`repro.cme.regions.RegionSolver.decompose` builds its cells from
integer rows compiled once per (reference, line size): translated producer
conjuncts, their negations and the line-residue intervals all stay
:class:`~repro.polyhedra.space.RowConstraint` /
:class:`~repro.polyhedra.space.RowResidue` rows.  This module derives the
same cells the way the solver did before, on symbolic expressions: the
producer's loop bounds and guard become :class:`Constraint` objects,
translated by substitution ``i ↦ i − x``, pruned by interval arithmetic
over the consumer's box (:meth:`Affine.bounds`), negated by
:func:`negate_constraint`, and every cell is grown by
:meth:`BoundedSpace.conjoin` and :meth:`BoundedSpace.with_residue` on those
objects.  The two must give the same cells, in the same order, with equal
signatures and counts.
"""

from __future__ import annotations

from repro.cme.regions import MAX_CELLS, RegionSolver
from repro.normalize.nprogram import NRef
from repro.polyhedra.affine import Affine
from repro.polyhedra.constraints import Constraint, EQ
from repro.reuse.vectors import ReuseVector


def negate_constraint(c: Constraint) -> list[Constraint]:
    """The complement of one affine constraint over integer points.

    ``expr >= 0`` negates to the single constraint ``expr <= -1``;
    ``expr == 0`` negates to the *disjunction* ``expr >= 1 | expr <= -1``,
    returned as a list — the regional decomposition turns each disjunct
    into its own cell (sequential set difference keeps cells disjoint).
    """
    if c.kind == EQ:
        return [
            Constraint.inequality(c.expr - 1),
            Constraint.inequality(-c.expr - 1),
        ]
    return [Constraint.inequality(-c.expr - 1)]


def address(solver: RegionSolver, ref: NRef) -> Affine:
    """``ref``'s byte address over the index variables."""
    array = ref.array
    return (
        array.element_offset(ref.subscripts) * array.element_size
        + solver.layout.base_of(array)
    )


def cold_condition(solver: RegionSolver, ref: NRef, rv: ReuseVector):
    """``(kind, [(constraint, negations)], (lo, hi) or None)`` of one
    vector: ``kind`` is ``"never"``, ``"regular"`` or ``"irregular"`` as
    in :meth:`RegionSolver._cold_condition`, the residue interval of the
    consumer address mod the line size kept apart."""
    nprog = solver.nprog
    x = rv.index_part()
    shift = {v: Affine.var(v) - dx for v, dx in zip(nprog.index_vars, x)}
    producer = nprog.ris(rv.producer.leaf)
    box = nprog.ris(ref.leaf).var_ranges()
    conjuncts = []
    for v, (lo, hi) in zip(producer.dims, producer.bounds):
        conjuncts.append(Constraint.inequality(Affine.var(v) - lo))
        conjuncts.append(Constraint.inequality(hi - Affine.var(v)))
    conjuncts.extend(producer.constraints)
    kept = []
    for c in conjuncts:
        c = c.substitute(shift)
        lo_v, hi_v = c.expr.bounds(box)
        if c.kind == EQ:
            if lo_v == 0 and hi_v == 0:
                continue
            if lo_v > 0 or hi_v < 0:
                return ("never", (), None)
        else:
            if lo_v >= 0:
                continue
            if hi_v < 0:
                return ("never", (), None)
        kept.append((c, tuple(negate_constraint(c))))
    delta = address(solver, rv.producer).substitute(shift) - address(solver, ref)
    if not delta.is_constant():
        return ("irregular", tuple(kept), None)
    d = delta.constant
    line_bytes = solver.cache.line_bytes
    if d == 0:
        return ("regular", tuple(kept), None)
    if abs(d) >= line_bytes:
        return ("never", (), None)
    return (
        "regular",
        tuple(kept),
        (max(0, -d), min(line_bytes - 1, line_bytes - 1 - d)),
    )


def decompose(solver: RegionSolver, ref: NRef):
    """``(cold, decided, irregular)`` cells of ``ref``, as
    :meth:`RegionSolver.decompose` returns them."""
    vectors = solver.reuse.vectors_for(ref)
    conds = [cold_condition(solver, ref, rv) for rv in vectors]
    line_bytes = solver.cache.line_bytes
    a_expr = address(solver, ref)
    cold, decided, irregular = [], [], []
    work = [(solver.nprog.ris(ref.leaf), 0)]
    produced = 1
    while work:
        cell, t = work.pop()
        if cell.count() == 0:
            continue
        if t == len(vectors):
            cold.append(cell)
            continue
        kind, cons, residue = conds[t]
        if kind == "never":
            work.append((cell, t + 1))
            continue
        if kind == "irregular":
            irregular.append((cell, "irregular"))
            continue
        prefix = cell
        pieces = []
        for c, negs in cons:
            for neg in negs:
                pieces.append(prefix.conjoin(neg))
            prefix = prefix.conjoin(c)
        if residue is not None:
            lo_r, hi_r = residue
            if lo_r > 0:
                pieces.append(prefix.with_residue(a_expr, line_bytes, 0, lo_r - 1))
            if hi_r < line_bytes - 1:
                pieces.append(
                    prefix.with_residue(a_expr, line_bytes, hi_r + 1, line_bytes - 1)
                )
            prefix = prefix.with_residue(a_expr, line_bytes, lo_r, hi_r)
        if prefix.count() == 0:
            work.append((cell, t + 1))
            continue
        produced += len(pieces) + 1
        if produced > MAX_CELLS:
            irregular.append((cell, "cell_cap"))
            continue
        decided.append((prefix, t))
        for piece in pieces:
            work.append((piece, t + 1))
    return cold, decided, irregular
