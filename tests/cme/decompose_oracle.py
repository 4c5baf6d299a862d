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

:func:`row_cold_condition` is the per-vector derivation on integer rows
that the solver ran before its condition table: the oracle of
:meth:`RegionSolver._condition_rows` and :meth:`RegionSolver._condition`
(``tests/cme/test_condition_arrays.py``).
"""

from __future__ import annotations

from operator import mul

from repro.cme.regions import MAX_CELLS, RegionSolver
from repro.normalize.nprogram import NRef
from repro.polyhedra.affine import Affine
from repro.polyhedra.constraints import Constraint, EQ
from repro.polyhedra.space import RowConstraint, RowResidue
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
    in :func:`row_cold_condition`, the residue interval of the consumer
    address mod the line size kept apart."""
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


def producer_spans(solver: RegionSolver, producer: NRef, ref: NRef) -> list:
    """The producer RIS's conjuncts as ``(row, lo, hi, is_eq,
    conjunct)``, ``[lo, hi]`` the range of ``row·i + const`` over the
    consumer's bounding box."""
    producer_cons, _ = solver._ris_of(producer)
    _, box = solver._ris_of(ref)
    spans = []
    for row, const, kind in producer_cons:
        lo = hi = const
        for c, (b_lo, b_hi) in zip(row, box):
            if c > 0:
                lo += c * b_lo
                hi += c * b_hi
            elif c < 0:
                lo += c * b_hi
                hi += c * b_lo
        conjunct = RowConstraint.make(row, const, kind)
        spans.append((row, lo, hi, kind == EQ, conjunct))
    return spans


def row_cold_condition(
    solver: RegionSolver,
    ref: NRef,
    rv: ReuseVector,
    spans: dict,
    residues: dict,
):
    """The cold equations of one vector as compiled region constraints,
    one vector at a time on integer rows (how the solver derived them
    before its condition table).

    Returns ``(kind, conjuncts)`` with ``kind`` one of ``"never"``,
    ``"regular"`` or ``"irregular"`` (a producer with another address
    row, so the line equality is not a residue condition); ``conjuncts``
    pairs each kept condition with the disjuncts of its complement: the
    translated producer conjuncts, then the residue interval and the one
    or two intervals outside it.  The consumer's vectors share ``spans``
    (per producer uid) and ``residues`` (per interval).
    """
    x = rv.index_part()
    row_c, const_c = solver._address(ref)
    row_p, const_p = solver._address(rv.producer)
    line_bytes = solver.cache.line_bytes
    producer = spans.get(rv.producer.uid)
    if producer is None:
        producer = spans[rv.producer.uid] = producer_spans(
            solver, rv.producer, ref
        )
    kept = []
    for row, lo, hi, is_eq, c in producer:
        shift = sum(map(mul, row, x))
        if is_eq:
            if lo == shift == hi:
                continue
            if lo > shift or hi < shift:
                return ("never", ())
        else:
            if lo >= shift:
                continue
            if hi < shift:
                return ("never", ())
        shifted = RowConstraint(row, c.const - shift, c.kind, c.anchor, c.mask)
        kept.append((shifted, shifted.negated()))
    if row_p != row_c:
        return ("irregular", tuple(kept))
    d = const_p - sum(map(mul, row_p, x)) - const_c
    if abs(d) >= line_bytes:
        return ("never", ())
    if d:
        lo_r, hi_r = max(0, -d), min(line_bytes - 1, line_bytes - 1 - d)
        intervals = [(lo_r, hi_r)]
        if lo_r > 0:
            intervals.append((0, lo_r - 1))
        if hi_r < line_bytes - 1:
            intervals.append((hi_r + 1, line_bytes - 1))
        for interval in intervals:
            if interval not in residues:
                residues[interval] = RowResidue.make(
                    row_c, const_c, line_bytes, *interval
                )
        inside, *outside = (residues[i] for i in intervals)
        kept.append((inside, tuple(outside)))
    return ("regular", tuple(kept))


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
