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
solved once (:class:`_SetEquations`), into an array of solutions ``x``.
Everything after the solves is array arithmetic over the whole program:
every (pair, solution) row is expanded with ``np.repeat``, the direction
test reads the leads of the label difference and of ``x``, and one
``np.lexsort`` orders each consumer's vectors.  :class:`ReuseTable` keeps
the rows grouped by consumer and builds :class:`ReuseVector` objects only
when asked for them.

Over-generation is harmless — the cold equations re-verify memory-line
equality at every iteration point — while *missing* vectors can only
over-estimate misses (the conservatism the paper acknowledges for guarded
group reuse).  Options exist to disable vector families for the ablation
benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro import obs
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.polyhedra.intsolve import nullspace_basis, solve_integer
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
    """All reuse vectors of a program, as rows grouped by consumer.

    The consumer with uid ``u`` owns the rows ``starts[u]:starts[u + 1]``
    (:meth:`rows`), sorted in increasing ``≺``
    (:meth:`ReuseVector.sort_key`): row ``i`` is the interleaved vector
    ``vecs[i]`` (int64, length ``2n``) from the reference with uid
    ``producers[i]``, spatial iff ``spatial[i]``.  The solvers' hot paths
    read these arrays; :meth:`vectors_for` builds a consumer's
    :class:`ReuseVector` objects from its rows on the first call and keeps
    them, for the API, the regional solver and the baselines.
    """

    def __init__(
        self,
        refs: Sequence[NRef],
        starts: "np.ndarray",
        vecs: "np.ndarray",
        producers: "np.ndarray",
        spatial: "np.ndarray",
    ):
        self.refs = tuple(refs)  # by uid
        self.starts = starts
        self.vecs = vecs
        self.producers = producers
        self.spatial = spatial
        self._objects: dict[int, list[ReuseVector]] = {}
        self._derived: dict = {}

    def __getstate__(self) -> dict:
        # Built objects and derived facts are caches: a process that
        # unpickles the table rebuilds what it needs.
        return {**self.__dict__, "_objects": {}, "_derived": {}}

    def derived(self, key) -> dict:
        """The dict of facts a solver derives from this table under ``key``.

        Lives and dies with the table, so facts computed once per program
        (for one layout and line size, say) are shared by every solve
        that uses the table: the regional solver's cold conditions and
        certificates, the trace plan, and the batch classifier's cold
        table and byte-budgeted :class:`~repro.cme.decisions.DecisionStore`.
        Entries must be pure functions of ``key`` and their own sub-key:
        concurrent solvers publish them with ``dict.setdefault``, without
        a lock (the decision store evicts under its own).  Never pickled.
        """
        return self._derived.setdefault(key, {})

    def rows(self, ref: NRef) -> slice:
        """The rows of the consumer's vectors."""
        return slice(int(self.starts[ref.uid]), int(self.starts[ref.uid + 1]))

    def consumers(self) -> "np.ndarray":
        """Every row's consumer uid."""
        return np.repeat(
            np.arange(len(self.refs), dtype=np.int64), np.diff(self.starts)
        )

    def vectors_for(self, ref: NRef) -> list[ReuseVector]:
        """The consumer's reuse vectors, sorted in increasing ``≺`` (built
        from its rows on the first call, then kept)."""
        found = self._objects.get(ref.uid)
        if found is None:
            found = self._objects.setdefault(ref.uid, self._materialise(ref))
        return found

    def _materialise(self, ref: NRef) -> list[ReuseVector]:
        rows = self.rows(ref)
        refs = self.refs
        consumer = refs[ref.uid]
        return [
            ReuseVector(tuple(vec), refs[p], consumer, SPATIAL if s else TEMPORAL)
            for vec, p, s in zip(
                self.vecs[rows].tolist(),
                self.producers[rows].tolist(),
                self.spatial[rows].tolist(),
            )
        ]

    def all_vectors(self) -> list[ReuseVector]:
        """Every vector in the table, as objects."""
        return [rv for ref in self.refs for rv in self.vectors_for(ref)]

    def counts(self) -> dict[str, int]:
        """Summary counts: temporal/spatial × self/group."""
        group = self.producers != self.consumers()
        n = np.bincount(2 * self.spatial + group, minlength=4).tolist()
        return {
            "temporal-self": n[0],
            "temporal-group": n[1],
            "spatial-self": n[2],
            "spatial-group": n[3],
        }


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


def _leads(rows: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """Per row, the index of its first non-zero component (the row length
    when the row is zero) and whether that component is positive."""
    nonzero = rows != 0
    width = rows.shape[1]
    lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), width)
    first = rows[np.arange(len(rows)), np.minimum(lead, width - 1)]
    return lead, (lead < width) & (first > 0)


def _no_solutions(depth: int) -> tuple:
    """An empty ``(owner, x, spatial)``."""
    return (
        np.zeros(0, dtype=np.int64),
        np.zeros((0, depth), dtype=np.int64),
        np.zeros(0, dtype=bool),
    )


def _expand(counts: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """``(owner, rank)`` of ``counts.sum()`` rows: ``counts[k]`` rows owned
    by each ``k`` in turn, ranked ``0, 1, …`` within their owner."""
    owner = np.repeat(np.arange(len(counts)), counts)
    firsts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - firsts[owner]


class _SetEquations:
    """The reuse equations of one uniformly generated set.

    Every pair of the set shares the array and the linear part ``M``, so
    its index-part solutions ``x`` depend on the pair only through the
    right-hand side ``Δm = m_p − m_c``: :meth:`solutions` solves each
    distinct ``Δm`` once, and only the label difference and the direction
    test are left per pair.
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
        self.m = np.array(self.m_rows, dtype=np.int64).reshape(
            len(self.m_rows), depth
        )
        self.depth = depth
        self.options = options
        # |x_j| < limit_j: the per-depth reach of a reuse distance.
        self.limits = [max(2, e + 1) for e in extents]
        self.le = line_bytes // ref.array.element_size
        self.strides = np.array(ref.array.strides(), dtype=np.int64)
        self.s_row = (self.strides @ self.m).tolist()

    def solutions(
        self, delta_ms: "np.ndarray"
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Every index-part solution of each right-hand side (a row of
        ``delta_ms``), each ``x`` once per row.

        Returns ``(owner, x, spatial)``: the row each solution ``x`` solves
        and whether it is spatial.  Exact solutions of ``M·x = Δm`` are
        temporal, never spatial.
        """
        options = self.options
        found = [_no_solutions(self.depth)]
        if options.temporal:
            owner, x = self._temporal(delta_ms)
            found.append((owner, x, np.zeros(len(owner), dtype=bool)))
        if options.spatial and self.le > 1:
            owner, x = self._spatial(delta_ms)
            found.append((owner, x, np.ones(len(owner), dtype=bool)))
        return tuple(np.concatenate(part) for part in zip(*found))

    def _temporal(self, delta_ms: "np.ndarray") -> tuple:
        """``M·x = Δm``: a particular solution plus the null-space lattice
        combinations, within the extents."""
        owners, particular = [], []
        for k, rhs in enumerate(delta_ms.tolist()):
            x0 = solve_integer(self.m_rows, rhs)
            if x0 is not None:
                owners.append(k)
                particular.append(x0)
        lattice = self._lattice() if owners else np.zeros((0, self.depth))
        x = (
            np.array(particular, dtype=np.int64).reshape(-1, 1, self.depth)
            + lattice
        ).reshape(-1, self.depth)
        owner = np.repeat(np.array(owners, dtype=np.int64), len(lattice))
        inside = (np.abs(x) < self.limits).all(axis=1)
        return owner[inside], x[inside]

    def _lattice(self) -> "np.ndarray":
        """Every combination of the first ``max_null_dims`` null-space basis
        vectors with coefficients in ``[-b, b]`` (linearly independent, so
        no two combinations coincide)."""
        options = self.options
        basis = nullspace_basis(self.m_rows)[: options.max_null_dims]
        b = options.null_combo_bound
        coeffs = list(itertools.product(range(-b, b + 1), repeat=len(basis)))
        return np.array(coeffs, dtype=np.int64).reshape(
            len(coeffs), len(basis)
        ) @ np.array(basis, dtype=np.int64).reshape(len(basis), self.depth)

    def _spatial(self, delta_ms: "np.ndarray") -> tuple:
        """``|Δm_lin − S·x| < Ls`` with ``M·x ≠ Δm``, within the extents:
        every ``x`` on one dimension ``S`` reads (two with
        ``cross_column``); and, when ``Δm_lin`` is within ``Ls − 1`` of
        ``0``, ``x = 0`` and the unit step along each dimension ``S`` does
        not read.

        Each :meth:`_slots` row is a family ``base + q·e_axis``; per
        (``Δm``, slot) the admitted ``q`` form one range, so every
        candidate of every ``Δm`` is one ``np.repeat`` away.
        """
        base, shift, axis, step, floor = self._slots()
        reach = self.le - 1
        dm_lin = delta_ms @ self.strides
        lo = (dm_lin[:, None] - reach) - shift  # (Δm, slot)
        hi = lo + 2 * reach
        # q with q·step in [lo, hi] (a negative step flips the interval)
        # and |q| < limit.
        neg = step < 0
        a, b = np.where(neg, -hi, lo), np.where(neg, -lo, hi)
        size = np.abs(step)
        limit = np.array(self.limits, dtype=np.int64)[axis]
        q_lo = np.maximum(-(-a // size), 1 - limit).ravel()
        q_hi = np.minimum(b // size, limit - 1).ravel()
        cell, rank = _expand(np.maximum(q_hi - q_lo + 1, 0))
        q = q_lo[cell] + rank
        owner, slot = np.divmod(cell, len(shift))
        # q = 0 is the zero vector or a one-dimension candidate, and a
        # two-dimension candidate with |q| <= floor is also found with
        # its dimensions swapped: each x is generated once.
        once = np.abs(q) > floor[slot]
        owner, slot, q = owner[once], slot[once], q[once]
        x = base[slot]
        x[np.arange(len(x)), axis[slot]] += q
        near = np.flatnonzero(np.abs(dm_lin) <= reach)
        if len(near):
            points = self._points()
            owner = np.concatenate([owner, np.repeat(near, len(points))])
            x = np.concatenate([x, np.tile(points, (len(near), 1))])
        inexact = (x @ self.m.T != delta_ms[owner]).any(axis=1)
        return owner[inexact], x[inexact]

    def _slots(self) -> tuple:
        """The spatial candidate families ``base + q·e_axis`` (``q·step``
        near ``Δm_lin − shift``, ``|q| > floor``): one per dimension ``S``
        reads, and with ``cross_column`` one per (``d1``, ``v1``, ``d2``)
        with ``0 < |v1| <= min(Ls − 2, …)`` and ``d2 ≠ d1`` both read."""
        depth, s_row, limits = self.depth, self.s_row, self.limits
        read = [d for d in range(depth) if s_row[d]]
        # (base entries, shift, axis, floor)
        slots = [((), 0, d, 0) for d in read]
        if self.options.cross_column:
            small = max(2, self.le - 1)
            for d1 in read:
                reach = min(small, limits[d1] - 1)
                for v1 in range(-reach, reach + 1):
                    for d2 in read:
                        if v1 and d2 != d1:
                            floor = min(small, limits[d2] - 1) if d1 > d2 else 0
                            slots.append((((d1, v1),), s_row[d1] * v1, d2, floor))
        base = np.zeros((len(slots), depth), dtype=np.int64)
        for k, (entries, _, _, _) in enumerate(slots):
            for d, v in entries:
                base[k, d] = v
        shift, axis, floor = (
            np.array([s[i] for s in slots], dtype=np.int64) for i in (1, 2, 3)
        )
        step = np.array(s_row, dtype=np.int64)[axis]
        return base, shift, axis, step, floor

    def _points(self) -> "np.ndarray":
        """``x = 0`` and the unit step along each dimension ``S`` does not
        read."""
        units = [d for d in range(self.depth) if not self.s_row[d]]
        points = np.zeros((1 + len(units), self.depth), dtype=np.int64)
        points[np.arange(1, 1 + len(units)), units] = 1
        return points


def build_reuse_table(
    nprog: NormalizedProgram,
    line_bytes: int,
    options: ReuseOptions | None = None,
) -> ReuseTable:
    """Generate and sort all reuse vectors of a normalised program.

    Every ordered (producer, consumer) pair of every uniformly generated
    set is one row of a pair array; the reuse equations of a set are
    solved once per distinct right-hand side ``Δm`` (:class:`_SetEquations`).
    Each pair's row is then repeated once per solution of its ``Δm``,
    kept when ``r = interleave(ℓc − ℓp, x)`` is lexically positive, or
    zero with the producer lexically before the consumer (the first
    non-zero component of ``r`` is the label difference's at ``2k`` or
    ``x``'s at ``2k + 1``, whichever comes first, so the test reads the
    leads alone), and ordered per consumer by one ``np.lexsort`` on
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
        refs, depth = nprog.refs, nprog.depth
        groups = uniformly_generated_sets(nprog)
        obs.counter("reuse.ugs.count").inc(len(groups))
        size_hist = obs.histogram("reuse.ugs.size")
        for group in groups:
            size_hist.observe(len(group))
        # Every ordered pair of every set, consumer-major within a set.
        sizes = np.array([len(g) for g in groups], dtype=np.int64)
        members = np.array([r.uid for g in groups for r in g], dtype=np.int64)
        pair_set, rank = _expand(sizes * sizes)
        first = (np.cumsum(sizes) - sizes)[pair_set]
        consumers = members[first + rank // sizes[pair_set]]
        producers = members[first + rank % sizes[pair_set]]
        # The distinct (set, Δm) right-hand sides, constants zero-padded.
        consts = [constant_part(r) for r in refs]
        width = max((len(c) for c in consts), default=0)
        m = np.array(
            [c + (0,) * (width - len(c)) for c in consts], dtype=np.int64
        ).reshape(len(refs), width)
        rhs, pair_rhs = np.unique(
            np.column_stack([pair_set, m[producers] - m[consumers]]),
            axis=0,
            return_inverse=True,
        )
        pair_rhs = pair_rhs.reshape(-1)
        # Solve each set's right-hand sides at once.
        bounds = np.searchsorted(rhs[:, 0], np.arange(len(groups) + 1))
        solved = [_no_solutions(depth)]
        for s, group in enumerate(groups):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            equations = _SetEquations(
                group[0], depth, line_bytes, extents, options
            )
            owner, x, spatial = equations.solutions(
                rhs[lo:hi, 1 : 1 + len(group[0].subscripts)]
            )
            solved.append((owner + lo, x, spatial))
        owner, xs, spatial = (np.concatenate(part) for part in zip(*solved))
        order = np.argsort(owner, kind="stable")
        xs, spatial = xs[order], spatial[order]
        per_rhs = np.bincount(owner, minlength=len(rhs))
        x_lead, x_up = _leads(xs)
        # Each pair repeated once per solution of its Δm, then the
        # direction test.
        lexpos = np.array([r.lexpos for r in refs], dtype=np.int64)
        labels = np.array([r.label for r in refs], dtype=np.int64).reshape(
            len(refs), depth
        )
        label_diff = labels[consumers] - labels[producers]
        label_lead, label_up = _leads(label_diff)
        tie = label_lead == depth
        label_up[tie] = lexpos[producers[tie]] < lexpos[consumers[tie]]
        pair, rank = _expand(per_rhs[pair_rhs])
        sol = (np.cumsum(per_rhs) - per_rhs)[pair_rhs[pair]] + rank
        keep = np.where(
            x_lead[sol] < label_lead[pair], x_up[sol], label_up[pair]
        )
        pair, sol = pair[keep], sol[keep]
        vecs = np.empty((len(pair), 2 * depth), dtype=np.int64)
        vecs[:, 0::2] = label_diff[pair]
        vecs[:, 1::2] = xs[sol]
        row_consumers, row_producers = consumers[pair], producers[pair]
        # Per consumer, increasing vec, then the later producer first.
        order = np.lexsort(
            np.vstack([-lexpos[row_producers], vecs.T[::-1], row_consumers])
        )
        starts = np.zeros(len(refs) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(row_consumers, minlength=len(refs)), out=starts[1:]
        )
        table = ReuseTable(
            refs, starts, vecs[order], row_producers[order], spatial[sol][order]
        )
        _record_vector_metrics(table, len(pair_set), len(rhs))
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
    supports = np.count_nonzero(table.vecs[:, 1::2], axis=1)
    obs.counter("reuse.vectors.cross_column").inc(
        int(np.count_nonzero(table.spatial & (supports >= 2)))
    )
