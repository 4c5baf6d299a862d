"""The per-pair reuse-vector generator: the oracle of the shared solve.

:func:`generate_pair_vectors` solves the reuse equations of one
(producer, consumer) pair from scratch — the temporal ``x0`` plus
null-space combinations and the spatial e × d1 × v1 × d2 search — exactly
as :func:`repro.reuse.build_reuse_table` did before it solved each
uniformly generated set once per ``Δm``.  :func:`pairwise_reuse_table`
builds a whole table of :class:`ReuseVector` objects from it, pair by
pair, so tests can require the production table to equal it vector for
vector and its counters to equal an object-side count.
"""

from __future__ import annotations

import itertools

from repro.iteration.position import interleave, lex_positive
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.polyhedra.intsolve import matvec, nullspace_basis, solve_integer
from repro.reuse import (
    SPATIAL,
    TEMPORAL,
    ReuseOptions,
    ReuseVector,
    constant_part,
    linear_part,
    uniformly_generated_sets,
)
from repro.reuse.generator import _depth_extents


def _valid_direction(r: tuple[int, ...], rp: NRef, rc: NRef) -> bool:
    """r ≻ 0, or r = 0 with the producer lexically before the consumer."""
    if lex_positive(r):
        return True
    if any(c != 0 for c in r):
        return False
    return rp.lexpos < rc.lexpos


def _within_extents(x: tuple[int, ...], extents: list[int]) -> bool:
    return all(abs(c) < max(2, e + 1) for c, e in zip(x, extents))


def generate_pair_vectors(
    rp: NRef,
    rc: NRef,
    depth: int,
    line_bytes: int,
    extents: list[int],
    options: ReuseOptions,
) -> list[ReuseVector]:
    """All reuse vectors from producer ``rp`` to consumer ``rc``."""
    m_rows = [list(row) for row in linear_part(rc, depth)]
    delta_m = [p - c for p, c in zip(constant_part(rp), constant_part(rc))]
    label_diff = tuple(lc - lp for lc, lp in zip(rc.label, rp.label))
    out: dict[tuple[int, ...], ReuseVector] = {}

    def consider(x: tuple[int, ...], kind: str) -> None:
        if not _within_extents(x, extents):
            return
        r = interleave(label_diff, x)
        if not _valid_direction(r, rp, rc):
            return
        if r not in out:
            out[r] = ReuseVector(r, rp, rc, kind)

    # -- temporal: M x = m_p - m_c -------------------------------------------
    x0 = solve_integer(m_rows, delta_m)
    if x0 is not None:
        basis = nullspace_basis(m_rows)[: options.max_null_dims]
        b = options.null_combo_bound
        combos: list[tuple[int, ...]] = [()]
        if basis:
            combos = list(itertools.product(range(-b, b + 1), repeat=len(basis)))
        for coeffs in combos:
            x = list(x0)
            for c, vec in zip(coeffs, basis):
                for j in range(depth):
                    x[j] += c * vec[j]
            if options.temporal:
                consider(tuple(x), TEMPORAL)

    # -- spatial: |Δm_lin − S·x| < Ls ------------------------------------------
    if options.spatial:
        esize = rc.array.element_size
        le = line_bytes // esize
        if le > 1:
            strides = rc.array.strides()
            s_row = [
                sum(strides[dim] * m_rows[dim][j] for dim in range(len(m_rows)))
                for j in range(depth)
            ]
            dm_lin = sum(strides[dim] * delta_m[dim] for dim in range(len(delta_m)))
            small = max(2, le - 1)

            def spatial_consider(x: tuple[int, ...]) -> None:
                if matvec(m_rows, list(x)) == delta_m:
                    return  # exact solutions of (1) are temporal, not spatial
                consider(x, SPATIAL)

            for e in range(-(le - 1), le):
                t = dm_lin - e
                # support-1 solutions
                if t == 0:
                    spatial_consider(tuple([0] * depth))
                for d in range(depth):
                    if s_row[d] != 0 and t % s_row[d] == 0:
                        x = [0] * depth
                        x[d] = t // s_row[d]
                        spatial_consider(tuple(x))
                    elif s_row[d] == 0 and t == 0:
                        x = [0] * depth
                        x[d] = 1
                        spatial_consider(tuple(x))
                # support-2 solutions (cross-column and friends)
                if not options.cross_column:
                    continue
                for d1 in range(depth):
                    if s_row[d1] == 0:
                        continue
                    for v1 in range(-small, small + 1):
                        if v1 == 0:
                            continue
                        rem = t - s_row[d1] * v1
                        for d2 in range(depth):
                            if d2 == d1 or s_row[d2] == 0:
                                continue
                            if rem % s_row[d2] == 0:
                                x = [0] * depth
                                x[d1] = v1
                                x[d2] = rem // s_row[d2]
                                spatial_consider(tuple(x))
    return list(out.values())



class ObjectTable:
    """A reuse table kept as :class:`ReuseVector` lists by consumer uid,
    with :class:`~repro.reuse.ReuseTable`'s object-side reads."""

    def __init__(self, by_consumer: dict[int, list[ReuseVector]]):
        self._by_consumer = by_consumer

    def vectors_for(self, ref: NRef) -> list[ReuseVector]:
        return self._by_consumer.get(ref.uid, [])

    def all_vectors(self) -> list[ReuseVector]:
        return [rv for vectors in self._by_consumer.values() for rv in vectors]

    def counts(self) -> dict[str, int]:
        """Temporal/spatial × self/group, counted vector by vector."""
        counts = dict.fromkeys(
            ("temporal-self", "temporal-group", "spatial-self", "spatial-group"),
            0,
        )
        for rv in self.all_vectors():
            counts[f"{rv.kind}-{'self' if rv.is_self else 'group'}"] += 1
        return counts


def pairwise_reuse_table(
    nprog: NormalizedProgram,
    line_bytes: int,
    options: ReuseOptions | None = None,
) -> ObjectTable:
    """The reuse table built pair by pair with :func:`generate_pair_vectors`."""
    options = options if options is not None else ReuseOptions()
    extents = _depth_extents(nprog)
    by_consumer: dict[int, list[ReuseVector]] = {r.uid: [] for r in nprog.refs}
    for group in uniformly_generated_sets(nprog):
        for rc in group:
            vectors = by_consumer[rc.uid]
            for rp in group:
                vectors.extend(
                    generate_pair_vectors(
                        rp, rc, nprog.depth, line_bytes, extents, options
                    )
                )
    for vectors in by_consumer.values():
        vectors.sort(key=lambda rv: rv.sort_key())
    return ObjectTable(by_consumer)
