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

The pairs of one set share ``M``, so their equations differ only in the
right-hand side ``Δm = m_p − m_c``: each distinct ``Δm`` of a set is
solved once, and each pair only filters those solutions by direction.

Over-generation is harmless — the cold equations re-verify memory-line
equality at every iteration point — while *missing* vectors can only
over-estimate misses (the conservatism the paper acknowledges for guarded
group reuse).  Options exist to disable vector families for the ablation
benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

from repro import obs
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.polyhedra.intsolve import matvec, nullspace_basis, solve_integer
from repro.iteration.position import interleave
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


def _lead(vec: Sequence[int]) -> tuple[int, bool]:
    """The index of ``vec``'s first non-zero component (``len(vec)`` when
    ``vec`` is zero) and whether that component is positive."""
    for k, c in enumerate(vec):
        if c:
            return k, c > 0
    return len(vec), False


def _multiples(lo: int, hi: int, s: int, limit: int) -> range:
    """The integers ``q`` with ``lo ≤ q·s ≤ hi`` and ``|q| < limit``
    (``s ≠ 0``)."""
    if s < 0:
        lo, hi, s = -hi, -lo, -s
    return range(max(-(-lo // s), 1 - limit), min(hi // s, limit - 1) + 1)


#: One index-part solution: ``(x, kind, lead, positive)``, ``lead`` and
#: ``positive`` being :func:`_lead` of ``x``.
Solution = tuple[tuple[int, ...], str, int, bool]


class _SetEquations:
    """The reuse equations of one uniformly generated set.

    Every pair of the set shares the array and the linear part ``M``, so
    its index-part solutions ``x`` depend on the pair only through the
    right-hand side ``Δm = m_p − m_c``: :meth:`solutions` solves each
    distinct ``Δm`` once, and only the label difference, the direction
    test and the :class:`ReuseVector` records are left per pair.
    """

    def __init__(
        self,
        ref: NRef,
        depth: int,
        line_bytes: int,
        extents: list[int],
        options: ReuseOptions,
    ):
        self.m_rows = [list(row) for row in linear_part(ref, depth)]
        self.depth = depth
        self.options = options
        # |x_j| < limit_j: the per-depth reach of a reuse distance.
        self.limits = [max(2, e + 1) for e in extents]
        self.le = line_bytes // ref.array.element_size
        self.strides = strides = ref.array.strides()
        self.s_row = [
            sum(strides[dim] * row[j] for dim, row in enumerate(self.m_rows))
            for j in range(depth)
        ]
        self._basis: list | None = None
        self._solved: dict[tuple[int, ...], list[Solution]] = {}

    @property
    def solves(self) -> int:
        """Distinct right-hand sides solved so far."""
        return len(self._solved)

    def solutions(self, delta_m: tuple[int, ...]) -> list[Solution]:
        """Every index-part solution for ``Δm``, each ``x`` once, temporal
        before spatial (the first kind found wins)."""
        found = self._solved.get(delta_m)
        if found is None:
            found = self._solved[delta_m] = [
                (x, kind, *_lead(x)) for x, kind in self._solve(delta_m).items()
            ]
        return found

    def _solve(self, delta_m: tuple[int, ...]) -> dict[tuple[int, ...], str]:
        found: dict[tuple[int, ...], str] = {}
        options = self.options
        rhs = list(delta_m)
        # -- temporal: M x = m_p - m_c ---------------------------------------
        x0 = solve_integer(self.m_rows, rhs) if options.temporal else None
        if x0 is not None:
            if self._basis is None:
                self._basis = nullspace_basis(self.m_rows)
            basis = self._basis[: options.max_null_dims]
            b = options.null_combo_bound
            for coeffs in itertools.product(range(-b, b + 1), repeat=len(basis)):
                x = list(x0)
                for c, vec in zip(coeffs, basis):
                    for j in range(self.depth):
                        x[j] += c * vec[j]
                if all(abs(c) < lim for c, lim in zip(x, self.limits)):
                    found.setdefault(tuple(x), TEMPORAL)
        # -- spatial: |Δm_lin − S·x| < Ls, x on at most two dimensions -------
        if options.spatial and self.le > 1:
            dm_lin = sum(s * d for s, d in zip(self.strides, delta_m))
            for x in self._spatial_candidates(dm_lin):
                if x not in found and matvec(self.m_rows, x) != rhs:
                    # (exact solutions of (1) are temporal, not spatial)
                    found[x] = SPATIAL
        return found

    def _spatial_candidates(self, dm_lin: int) -> Iterator[tuple[int, ...]]:
        """The spatial candidates within the extents: every ``x`` on one
        dimension ``S`` reads (two with ``cross_column``) whose ``S·x`` is
        within ``Ls − 1`` of ``dm_lin``; and, when ``0`` is, ``x = 0`` and
        the unit step along each dimension ``S`` does not read."""
        depth, s_row, limits = self.depth, self.s_row, self.limits
        lo, hi = dm_lin - (self.le - 1), dm_lin + (self.le - 1)
        zero = [0] * depth

        def point(*entries: tuple[int, int]) -> tuple[int, ...]:
            x = list(zero)
            for d, v in entries:
                x[d] = v
            return tuple(x)

        if lo <= 0 <= hi:
            yield point()
        for d in range(depth):
            if s_row[d]:
                for q in _multiples(lo, hi, s_row[d], limits[d]):
                    yield point((d, q))
            elif lo <= 0 <= hi:
                yield point((d, 1))
        if not self.options.cross_column:
            return
        small = max(2, self.le - 1)
        for d1 in range(depth):
            if not s_row[d1]:
                continue
            reach = min(small, limits[d1] - 1)
            for v1 in range(-reach, reach + 1):
                if not v1:
                    continue
                shift = s_row[d1] * v1
                for d2 in range(depth):
                    if d2 != d1 and s_row[d2]:
                        for q in _multiples(
                            lo - shift, hi - shift, s_row[d2], limits[d2]
                        ):
                            yield point((d1, v1), (d2, q))


def _pair_vectors(
    rp: NRef, rc: NRef, solutions: list[Solution]
) -> list[ReuseVector]:
    """The reuse vectors from ``rp`` to ``rc`` among ``solutions``.

    ``r = interleave(ℓc − ℓp, x)`` must be lexically positive, or zero
    with the producer lexically before the consumer.  The first non-zero
    component of ``r`` is the label difference's at ``2k`` or ``x``'s at
    ``2k + 1``, whichever comes first, so the test reads the leads alone.
    """
    label_diff = tuple(lc - lp for lc, lp in zip(rc.label, rp.label))
    lead, label_up = _lead(label_diff)
    if lead == len(label_diff):
        label_up = rp.lexpos < rc.lexpos
    return [
        ReuseVector(interleave(label_diff, x), rp, rc, kind)
        for x, kind, x_lead, x_up in solutions
        if (x_up if x_lead < lead else label_up)
    ]


def build_reuse_table(
    nprog: NormalizedProgram,
    line_bytes: int,
    options: ReuseOptions | None = None,
) -> ReuseTable:
    """Generate and sort all reuse vectors of a normalised program.

    The reuse equations of a uniformly generated set are solved once per
    distinct right-hand side ``Δm`` and filtered per (producer, consumer)
    pair; each consumer's vectors are then sorted by
    :meth:`ReuseVector.sort_key`, which no two of them tie on.

    Observability: runs under the ``reuse/build_table`` span and records
    ``reuse.ugs.count``, the ``reuse.ugs.size`` histogram, the
    ``reuse.vectors.*`` per-kind counters, ``reuse.pairs`` (producer,
    consumer pairs considered) and ``reuse.solves`` (distinct (set, ``Δm``)
    equations solved).
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
        pairs = solves = 0
        for group in groups:
            size_hist.observe(len(group))
            equations = _SetEquations(
                group[0], nprog.depth, line_bytes, extents, options
            )
            for rc in group:
                vectors = by_consumer[rc.uid]
                m_c = constant_part(rc)
                for rp in group:
                    delta_m = tuple(
                        p - c for p, c in zip(constant_part(rp), m_c)
                    )
                    vectors.extend(
                        _pair_vectors(rp, rc, equations.solutions(delta_m))
                    )
            pairs += len(group) ** 2
            solves += equations.solves
        for vectors in by_consumer.values():
            vectors.sort(key=lambda rv: rv.sort_key())
        table = ReuseTable(by_consumer)
        _record_vector_metrics(table, pairs, solves)
    return table


def _record_vector_metrics(
    table: ReuseTable, pairs: int, solves: int
) -> None:
    """Bulk vector, pair and solve counters (no-ops while observability is
    off)."""
    if not obs.is_enabled():
        return
    obs.counter("reuse.pairs").inc(pairs)
    obs.counter("reuse.solves").inc(solves)
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
