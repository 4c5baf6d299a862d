"""The reuse-vector generator (Section 3.5 of the paper).

For every ordered producer/consumer pair inside a uniformly generated set the
generator derives:

* **temporal** vectors — integer solutions of ``M·x = m_p − m_c`` (a
  particular solution plus small null-space lattice combinations, so
  self-temporal directions like ``(0, …, 0, 1)`` appear naturally as the
  null-space case with ``Δm = 0``);
* **spatial** vectors — small ``x`` with ``|Δm_lin − S·x| < Ls`` where ``S``
  is the stride-weighted subscript row.  The search enumerates solutions
  supported on at most two index dimensions, which covers both of the
  paper's spatial kinds: the intra-column family
  ``(0,0,1,−2) … (0,0,1,−(Ls−1))`` *and* the cross-column vectors of Fig. 3
  such as ``(0, 1, 0, 1−N)``.

Over-generation is harmless — the cold equations re-verify memory-line
equality at every iteration point — while *missing* vectors can only
over-estimate misses (the conservatism the paper acknowledges for guarded
group reuse).  Options exist to disable vector families for the ablation
benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

from repro import obs
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.polyhedra.intsolve import matvec, nullspace_basis, solve_integer
from repro.iteration.position import interleave, lex_positive
from repro.reuse.ugs import constant_part, linear_part, uniformly_generated_sets
from repro.reuse.vectors import SPATIAL, TEMPORAL, ReuseVector


@dataclass(frozen=True)
class ReuseOptions:
    """Knobs for the generator (ablation studies switch families off)."""

    temporal: bool = True
    spatial: bool = True
    cross_column: bool = True  # spatial solutions supported on two dimensions
    null_combo_bound: int = 2  # lattice coefficients searched in [-b, b]
    max_null_dims: int = 3  # cap on enumerated null-space dimensions

    def signature(self) -> tuple:
        """Canonical ``(field, value)`` pairs in field-name order.

        Stable across field *declaration* reordering (unlike the frozen
        dataclass's positional hash), so serialized caches keyed on option
        signatures survive refactors that merely reorder fields.
        """
        return tuple(
            (f.name, getattr(self, f.name))
            for f in sorted(fields(self), key=lambda f: f.name)
        )


class ReuseTable:
    """All reuse vectors of a program, indexed by consumer reference."""

    def __init__(self, by_consumer: dict[int, list[ReuseVector]]):
        self._by_consumer = by_consumer
        self._derived: dict = {}

    def __getstate__(self) -> dict:
        # Derived facts are a cache: a process that unpickles the table
        # rebuilds what it needs.
        return {"_by_consumer": self._by_consumer, "_derived": {}}

    def derived(self, key) -> dict:
        """The dict of facts a solver derives from this table under ``key``.

        Lives and dies with the table, so facts computed once per program
        (for one layout and line size, say) are shared by every solve
        that uses the table: the regional solver's cold conditions and
        certificates, the trace plan, and the batch classifier's
        byte-budgeted :class:`~repro.cme.decisions.DecisionStore`.
        Entries must be pure functions of ``key`` and their own sub-key:
        concurrent solvers publish them with ``dict.setdefault``, without
        a lock (the decision store evicts under its own).  Never pickled.
        """
        return self._derived.setdefault(key, {})

    def vectors_for(self, ref: NRef) -> list[ReuseVector]:
        """The consumer's reuse vectors, sorted in increasing ``≺``."""
        return self._by_consumer.get(ref.uid, [])

    def all_vectors(self) -> list[ReuseVector]:
        """Every vector in the table."""
        out: list[ReuseVector] = []
        for vectors in self._by_consumer.values():
            out.extend(vectors)
        return out

    def counts(self) -> dict[str, int]:
        """Summary counts: temporal/spatial × self/group."""
        counts = {
            "temporal-self": 0,
            "temporal-group": 0,
            "spatial-self": 0,
            "spatial-group": 0,
        }
        for rv in self.all_vectors():
            tag = "self" if rv.is_self else "group"
            counts[f"{rv.kind}-{tag}"] += 1
        return counts


def _depth_extents(nprog: NormalizedProgram) -> list[int]:
    """A global per-depth bound on reuse distances (iteration range sizes)."""
    lo = [None] * nprog.depth
    hi = [None] * nprog.depth
    for leaf in nprog.leaves:
        ranges = nprog.ris(leaf).var_ranges()
        for d, var in enumerate(nprog.index_vars):
            vlo, vhi = ranges[var]
            lo[d] = vlo if lo[d] is None else min(lo[d], vlo)
            hi[d] = vhi if hi[d] is None else max(hi[d], vhi)
    return [
        (h - l + 1) if l is not None and h is not None else 1
        for l, h in zip(lo, hi)
    ]


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


def build_reuse_table(
    nprog: NormalizedProgram,
    line_bytes: int,
    options: ReuseOptions | None = None,
) -> ReuseTable:
    """Generate and sort all reuse vectors of a normalised program.

    Observability: runs under the ``reuse/build_table`` span and records
    ``reuse.ugs.count``, the ``reuse.ugs.size`` histogram and the
    ``reuse.vectors.*`` per-kind counters.
    """
    options = options if options is not None else ReuseOptions()
    with obs.span("reuse/build_table"):
        extents = _depth_extents(nprog)
        by_consumer: dict[int, list[ReuseVector]] = {
            r.uid: [] for r in nprog.refs
        }
        groups = uniformly_generated_sets(nprog)
        obs.counter("reuse.ugs.count").inc(len(groups))
        size_hist = obs.histogram("reuse.ugs.size")
        for group in groups:
            size_hist.observe(len(group))
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
        table = ReuseTable(by_consumer)
        _record_vector_metrics(table)
    return table


def _record_vector_metrics(table: ReuseTable) -> None:
    """Bulk per-kind vector counters (no-ops while observability is off)."""
    if not obs.is_enabled():
        return
    counts = table.counts()
    for key, n in counts.items():
        obs.counter(f"reuse.vectors.{key.replace('-', '_')}").inc(n)
    obs.counter("reuse.vectors.total").inc(sum(counts.values()))
    # Cross-column spatial vectors are exactly the spatial solutions
    # supported on two or more index dimensions (Fig. 3).
    cross = sum(
        1
        for rv in table.all_vectors()
        if rv.kind == SPATIAL
        and sum(1 for c in rv.index_part() if c != 0) >= 2
    )
    obs.counter("reuse.vectors.cross_column").inc(cross)
