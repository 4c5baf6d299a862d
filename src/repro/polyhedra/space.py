"""Bounded integer spaces: per-dimension affine bounds plus conjuncts.

A :class:`BoundedSpace` represents the set of integer points

    { (v₁, …, vₙ) | lbₖ(v₁..vₖ₋₁) ≤ vₖ ≤ ubₖ(v₁..vₖ₋₁), C(v), R(v) }

with ``C`` a conjunction of affine constraints and ``R`` one of residue
constraints ``(c·v + k) mod m ∈ [a, b]``.  A reference iteration space
(RIS, Section 3.3) is one: normalised loop bounds are affine in the outer
indices and IF guards are its affine constraints.  The cells of the
regional solver (:mod:`repro.cme.regions`) are the same set with more
conjuncts — translated producer bounds, negated cold conditions and the
memory-line residue intervals of the cold equations, after Zhu et al.,
*Fully Symbolic Analysis of Loop Locality*.

Every bound and conjunct is compiled once into an integer coefficient row
over ``dims`` and anchored at the deepest dimension it mentions; every
operation below evaluates rows against the list of fixed outer values.
The operations the solvers of Fig. 6 need:

* :meth:`contains` — membership test;
* :meth:`count` — the exact number of integer points (the "volume of a
  RIS"), at a cost that is a function of the space's *structure*, never of
  its loop bounds: an affine constraint anchored at a dimension reduces,
  once the outer dimensions are fixed, to ``c·v + k ⋈ 0`` and so to an
  interval adjustment (**bound tightening**); satisfaction of a residue
  constraint is periodic in ``v`` with period ``m / gcd(c, m)``, so one
  period is scanned and each class weighted in closed form (**periodic
  counting**); and memo keys use, for outer variables that matter only
  through a residue, the partial sum modulo the modulus instead of the raw
  value;
* :meth:`enumerate_points` — lexicographic enumeration, the scalar oracle
  of :func:`repro.polyhedra.batch.enumerate_points_array`;
* :meth:`representative` — one point, by count-guided lexmin descent
  (:meth:`descent_probes` prices that descent when the lexmin is known);
* :meth:`sample` — *uniform* sampling of integer points
  (``EstimateMisses``).  A space of constant extent (no conjunct, every
  level's ``hi − lo`` a constant) draws the whole sample at once in NumPy
  (:func:`repro.polyhedra.batch.sample_points_array`); any other space
  descends the dimensions count-weighted, so triangular and guarded spaces
  are sampled without bias, each level a ``bisect`` into a
  cumulative-weight table cached next to the counts.  Both consume the
  generator identically and return the same points.

Integer rows are the representation: affine conjuncts are kept as
:class:`RowConstraint` and residues as :class:`RowResidue` (reduced mod
the modulus), and :meth:`signature` is taken over them and the bound rows.
:class:`Constraint` / :class:`ResidueConstraint` objects go in through the
constructor and come out of :attr:`constraints` / :attr:`residues`, built
on each read.  :meth:`conjoin` folds one conjunct into a copy of an
already validated space — the step the constructor folds over its
arguments — given as a :class:`Constraint` or compiled in advance, which
costs no compilation; the copy rebuilds a depth's memo-key layout only
where the conjunct widens that depth's relevance.
"""

from __future__ import annotations

import math
import random
import threading
from bisect import bisect_right
from operator import mul, neg
from typing import (
    Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union,
)

import numpy as np

from repro import obs
from repro.polyhedra.affine import Affine
from repro.polyhedra.constraints import Constraint, EQ, GE, ResidueConstraint
from repro.polyhedra.intsolve import count_range_residue, residue_period

#: Cross-instance count cache keyed by canonical constraint-system signature.
#: Spaces are built afresh per reference (and per region cell in the regional
#: solver), but structurally identical systems recur constantly — translated
#: producer spaces, residue cells differing only in dead constraints.
#: Caching per *signature* rather than per instance means a count is
#: computed once while it stays cached.
_COUNT_CACHE: dict[tuple, int] = {}

#: Entries the count cache keeps; beyond it the oldest are evicted first,
#: so a long-lived process (the daemon) holds at most this many however
#: many distinct programs it analyses.  A whole ``kernels-exact`` pass of
#: ``perfbench`` uses about 2,000.
COUNT_CACHE_CAP = 16_384

_COUNT_CACHE_LOCK = threading.Lock()

#: Default cap on subtree-count probes during representative search.
REPRESENTATIVE_BUDGET = 4096


def cached_count(signature: tuple, compute: Callable[[], int]) -> int:
    """Return the memoized count for ``signature``, computing on first use.

    Hits are observable as ``polyhedra.count.cache_hits``.
    """
    cached = _COUNT_CACHE.get(signature)
    if cached is not None:
        obs.counter("polyhedra.count.cache_hits").inc()
        return cached
    value = compute()
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE[signature] = value
        while len(_COUNT_CACHE) > COUNT_CACHE_CAP:
            del _COUNT_CACHE[next(iter(_COUNT_CACHE))]
    return value


def count_cache_size() -> int:
    """Number of cached constraint-system counts (for tests/diagnostics)."""
    return len(_COUNT_CACHE)


def clear_count_cache() -> None:
    """Drop every cached count (tests and benchmarks)."""
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE.clear()


def _deepest(row: tuple[int, ...]) -> int:
    """The deepest dimension index with a non-zero coefficient (``-1`` for
    an all-zero row)."""
    k = len(row) - 1
    while k >= 0 and not row[k]:
        k -= 1
    return k


def _mask(row: tuple[int, ...]) -> int:
    """Bit ``k`` set for every dimension ``k`` with a non-zero coefficient."""
    return sum(1 << k for k, c in enumerate(row) if c)


def _fixed(mask: int, d: int) -> tuple[int, ...]:
    """The dimensions below ``d`` whose bit is set in ``mask``."""
    return tuple(k for k in range(d) if mask >> k & 1)


class RowConstraint(NamedTuple):
    """An affine conjunct ``row·v + const ⋈ 0`` compiled over a space's
    :attr:`~BoundedSpace.dims`, with ``⋈`` the ``kind`` (``==`` or ``>=``).

    ``anchor`` is the deepest dimension with a non-zero coefficient (``-1``
    for a constant conjunct) and ``mask`` has bit ``k`` set per non-zero
    one; :meth:`make` derives both, and a caller that varies only
    ``const`` reuses them.
    """

    row: tuple[int, ...]
    const: int
    kind: str
    anchor: int
    mask: int

    @classmethod
    def make(cls, row: tuple[int, ...], const: int, kind: str):
        return cls(row, const, kind, _deepest(row), _mask(row))

    def negated(self) -> tuple["RowConstraint", ...]:
        """The complement over integer points, one disjunct per entry:
        ``e >= 0`` negates to ``-e - 1 >= 0`` and ``e == 0`` to ``e - 1 >=
        0`` or ``-e - 1 >= 0``, where ``e = row·v + const``."""
        row, const, kind, anchor, mask = self
        below = RowConstraint(tuple(map(neg, row)), -const - 1, GE, anchor, mask)
        if kind == EQ:
            return (RowConstraint(row, const - 1, GE, anchor, mask), below)
        return (below,)


class RowResidue(NamedTuple):
    """A residue conjunct ``(row·v + const) mod modulus ∈ [lo, hi]`` over a
    space's :attr:`~BoundedSpace.dims`, row and constant reduced into
    ``[0, modulus)`` so equal conditions compare equal.  ``anchor`` as in
    :class:`RowConstraint`: ``-1`` when the reduced row is all zero."""

    row: tuple[int, ...]
    const: int
    modulus: int
    lo: int
    hi: int
    anchor: int

    @classmethod
    def make(
        cls, row: tuple[int, ...], const: int, modulus: int, lo: int, hi: int
    ) -> "RowResidue":
        """Reduce and validate (the interval must lie in ``[0, modulus)``)."""
        if modulus <= 0:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if not (0 <= lo <= hi < modulus):
            raise ValueError(
                f"residue interval [{lo}, {hi}] not within [0, {modulus})"
            )
        row = tuple(c % modulus for c in row)
        return cls(row, const % modulus, modulus, lo, hi, _deepest(row))


def _interval(
    row: tuple[int, ...], const: int, los: list[int], his: list[int]
) -> tuple[int, int]:
    """Interval bounds of ``const + Σ row[k]·v_k`` over ``v_k ∈ [los[k],
    his[k]]`` (only the ``len(los)`` outer dimensions are read)."""
    lo = hi = const
    for c, v_lo, v_hi in zip(row, los, his):
        if c >= 0:
            lo += c * v_lo
            hi += c * v_hi
        else:
            lo += c * v_hi
            hi += c * v_lo
    return lo, hi


def _passes(checks: list[tuple[int, int, int, int, int]], value: int) -> bool:
    """True if ``value`` satisfies every reduced residue check
    ``(coeff, rest, m, lo, hi)``: ``(coeff·value + rest) mod m ∈ [lo, hi]``."""
    return all(
        rl <= (cf * value + rest) % m <= rh for cf, rest, m, rl, rh in checks
    )


def _admitted(
    checks: list[tuple[int, int, int, int, int]], lo: int, hi: int
) -> Iterable[int]:
    """The values of ``[lo, hi]`` that pass every residue check, in order."""
    if not checks:
        return range(lo, hi + 1)
    return (v for v in range(lo, hi + 1) if _passes(checks, v))


class BoundedSpace:
    """An integer space: per-dimension bounds + affine + residue constraints.

    Parameters
    ----------
    dims:
        Ordered variable names ``(v1, …, vn)``.
    bounds:
        One affine ``(lower, upper)`` pair per dimension; the bounds of
        dimension ``k`` may reference only ``v1..v(k-1)``.
    constraints:
        Affine constraints over any of the dimensions (IF guards,
        translated producer bounds, negated cold conditions).
    residues:
        :class:`~repro.polyhedra.constraints.ResidueConstraint` conjuncts
        (memory-line conditions).
    """

    def __init__(
        self,
        dims: Sequence[str],
        bounds: Sequence[tuple[Affine, Affine]],
        constraints: Iterable[Constraint] = (),
        residues: Iterable[ResidueConstraint] = (),
    ):
        if len(dims) != len(bounds):
            raise ValueError("one (lower, upper) bound pair required per dimension")
        self.dims = tuple(dims)
        self.bounds = tuple(
            (Affine.coerce(lo), Affine.coerce(hi)) for lo, hi in bounds
        )
        n = self._n = len(self.dims)
        self._dim_index = {name: k for k, name in enumerate(self.dims)}
        # Relevance, per depth d: a bit per dimension whose *value* the
        # subproblem at depth d depends on (bounds or affine constraints
        # anchored at >= d); residues anchored at >= d contribute their
        # partial sum mod m to the memo key instead (``_res_from``).
        raw = [0] * (n + 1)
        bound_rows = []
        for k, pair in enumerate(self.bounds):
            compiled = []
            for expr in pair:
                extra = sorted(
                    v for v, _ in expr.terms if self._dim_index.get(v, n) >= k
                )
                if extra:
                    raise ValueError(
                        f"bound {expr} of dimension {self.dims[k]} references "
                        f"non-outer variables {extra}"
                    )
                row = self._row(expr)
                compiled.append((row, expr.constant))
                mask = _mask(row)
                for d in range(k + 1):
                    raw[d] |= mask
            bound_rows.append(tuple(compiled))
        self._bound_rows = tuple(bound_rows)
        self._raw = tuple(raw)
        self._raw_idx = tuple(_fixed(m, d) for d, m in enumerate(raw))
        self._empty = False
        self._cons: tuple[RowConstraint, ...] = ()
        self._res: tuple[RowResidue, ...] = ()
        self._cons_at: tuple[tuple, ...] = ((),) * n
        self._res_at: tuple[tuple, ...] = ((),) * n
        self._res_from: tuple[tuple, ...] = ((),) * (n + 1)
        for c in constraints:
            self._add_constraint(self._compile(c))
        for r in residues:
            self._add_residue(
                RowResidue.make(
                    self._row(r.expr, "residue", r), r.expr.constant,
                    r.modulus, r.lo, r.hi,
                )
            )
        self._reset_memos()

    # -- construction steps (shared by __init__ and derivation) -----------------

    def _row(self, expr: Affine, what: str = "", owner=None) -> tuple[int, ...]:
        """``expr``'s coefficients as a row over ``dims`` (``what`` and
        ``owner`` name the conjunct in the unknown-variable error)."""
        row = [0] * self._n
        for name, c in expr.terms:
            k = self._dim_index.get(name)
            if k is None:
                extra = sorted(expr.variables() - set(self.dims))
                raise ValueError(
                    f"{what} {owner!r} references unknown variables {extra}"
                )
            row[k] = c
        return tuple(row)

    def _compile(self, c: Constraint) -> RowConstraint:
        """An affine constraint as a :class:`RowConstraint` over ``dims``."""
        return RowConstraint.make(
            self._row(c.expr, "constraint", c), c.expr.constant, c.kind
        )

    def _add_constraint(self, c: RowConstraint) -> None:
        """Fold one affine constraint in: drop it if trivially true; a
        trivially false one empties the space (and stays listed, so readers
        of :attr:`constraints` see the emptiness too); anchor the rest at
        their deepest dimension."""
        anchor = c.anchor
        if anchor < 0 and (c.const == 0 if c.kind == EQ else c.const >= 0):
            return
        self._cons += (c,)
        if anchor < 0:
            self._empty = True
            return
        row = c.row
        cons_at = list(self._cons_at)
        cons_at[anchor] += ((row[anchor], row, c.const, c.kind == EQ, c),)
        self._cons_at = tuple(cons_at)
        mask = c.mask
        raw = self._raw
        # Relevance only shrinks with depth, so depths above the anchor
        # already hold every bit ``raw[anchor]`` holds.
        if raw[anchor] | mask != raw[anchor]:
            # Only the depths whose relevance grows get a new key layout.
            self._raw = tuple(
                m | mask if d <= anchor else m for d, m in enumerate(raw)
            )
            self._raw_idx = tuple(
                idx if old == new else _fixed(new, d)
                for d, (idx, old, new) in enumerate(
                    zip(self._raw_idx, raw, self._raw)
                )
            )

    def _add_residue(self, r: RowResidue) -> None:
        """Fold one residue constraint in: a constant one resolves now, the
        rest anchor like affine constraints."""
        anchor = r.anchor
        if anchor < 0:
            if not (r.lo <= r.const <= r.hi):
                self._empty = True
            return
        self._res += (r,)
        row = r.row
        compiled = (row[anchor], row, r.const, r.modulus, r.lo, r.hi, r)
        res_at = list(self._res_at)
        res_at[anchor] += (compiled,)
        self._res_at = tuple(res_at)
        self._res_from = tuple(
            rs + (compiled,) if d <= anchor else rs
            for d, rs in enumerate(self._res_from)
        )

    def _reset_memos(self) -> None:
        self._count_memo: dict[tuple, int] = {}
        self._weight_memo: dict[tuple, tuple[Sequence[int], Sequence[int]]] = {}
        self._signature: Optional[tuple] = None
        self._periods: Optional[list] = None

    def _derived(self) -> "BoundedSpace":
        """A copy sharing every compiled table, with fresh memos."""
        new = object.__new__(type(self))
        new.__dict__ = self.__dict__.copy()
        new._reset_memos()
        return new

    def _affine(self, row: tuple[int, ...], const: int) -> Affine:
        """The inverse of :meth:`_row`."""
        return Affine({v: c for v, c in zip(self.dims, row) if c}, const)

    # -- basic queries ---------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self._n

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The affine conjuncts as :class:`Constraint` objects, in the order
        they were added (built on each read; the space keeps rows)."""
        return tuple(
            Constraint(self._affine(c.row, c.const), c.kind) for c in self._cons
        )

    @property
    def residues(self) -> tuple[ResidueConstraint, ...]:
        """The non-constant residue conjuncts as canonical
        :class:`ResidueConstraint` objects (built on each read)."""
        return tuple(
            ResidueConstraint(
                self._affine(r.row, r.const), r.modulus, r.lo, r.hi
            )
            for r in self._res
        )

    def is_trivially_empty(self) -> bool:
        """True if a constant conjunct already rules out all points."""
        return self._empty

    def constant_extents(self) -> tuple[int, ...] | None:
        """Each level's ``hi − lo + 1`` if the space has constant extent.

        A space has constant extent when it has no conjunct and every
        level's ``hi − lo`` is a constant: rectangular spaces, and tiled
        ones whose bounds translate with the outer indices.  ``None``
        otherwise.
        """
        if self._empty or self._cons or self._res:
            return None
        extents = []
        for (lo_row, lo_c), (hi_row, hi_c) in self._bound_rows:
            if lo_row != hi_row:
                return None
            extents.append(hi_c - lo_c + 1)
        return tuple(extents)

    def constraints_at(self, level: int) -> tuple[RowConstraint, ...]:
        """The affine conjuncts anchored at dimension ``level``.

        A constraint is anchored at the deepest dimension it mentions, so
        it becomes checkable as soon as that dimension is fixed — the
        schedule every walk here uses, exposed for the vectorized helpers
        of :mod:`repro.polyhedra.batch`.
        """
        return tuple(entry[-1] for entry in self._cons_at[level])

    def residues_at(self, level: int) -> tuple[RowResidue, ...]:
        """The residue conjuncts anchored at dimension ``level``."""
        return tuple(entry[-1] for entry in self._res_at[level])

    def rows(self) -> tuple[tuple, tuple]:
        """The compiled integer rows, read-only: ``(bounds, constraints)``.

        ``bounds`` holds one ``((lo_row, lo_const), (hi_row, hi_const))``
        pair per dimension and ``constraints`` one ``(row, const, kind)``
        per entry of :attr:`constraints`, in that order (a trivially false
        one has an all-zero row); every row is over :attr:`dims`.
        """
        return self._bound_rows, tuple(c[:3] for c in self._cons)

    def conjunct_rows(self) -> tuple[tuple, ...]:
        """:meth:`rows` as one tuple of ``(row, const, kind)`` conjuncts:
        ``Iₖ − lo ≥ 0`` and ``hi − Iₖ ≥ 0`` per dimension, then the
        constraints."""
        bounds, constraints = self.rows()
        conjuncts = []
        for k, ((lo_row, lo_c), (hi_row, hi_c)) in enumerate(bounds):
            unit = tuple(int(j == k) for j in range(self._n))
            conjuncts.append(
                (tuple(u - c for u, c in zip(unit, lo_row)), -lo_c, GE)
            )
            conjuncts.append(
                (tuple(c - u for u, c in zip(unit, hi_row)), hi_c, GE)
            )
        return tuple(conjuncts) + constraints

    def conjoin(
        self, conjunct: Union[Constraint, RowConstraint, RowResidue]
    ) -> "BoundedSpace":
        """A new space with one more conjunct: an affine
        :class:`Constraint`, or a conjunct already compiled over
        :attr:`dims` (:class:`RowConstraint`, :class:`RowResidue`), which
        is folded in without compiling anything."""
        new = self._derived()
        if isinstance(conjunct, RowResidue):
            new._add_residue(conjunct)
        elif isinstance(conjunct, RowConstraint):
            new._add_constraint(conjunct)
        else:
            new._add_constraint(self._compile(conjunct))
        return new

    def with_residue(
        self, expr: Affine, modulus: int, lo: int, hi: int
    ) -> "BoundedSpace":
        """A new space additionally requiring ``expr mod modulus ∈ [lo, hi]``."""
        row = self._row(expr, "residue", expr)
        return self.conjoin(RowResidue.make(row, expr.constant, modulus, lo, hi))

    def var_ranges(self) -> dict[str, tuple[int, int]]:
        """Conservative per-dimension ``(min, max)`` box of the bounds alone
        (interval arithmetic, one forward pass)."""
        return self._box(tighten=False)

    def tight_ranges(self) -> dict[str, tuple[int, int]]:
        """Conservative per-dimension ``(min, max)`` box, constraint-aware.

        Like :meth:`var_ranges` but each affine constraint anchored at a
        dimension also narrows that dimension's interval.  Crucial for the
        crossing-window certificate: a decided cell's thinness lives in its
        *constraints* (negated earlier cold conditions, producer
        containment), not in the raw loop bounds.
        """
        return self._box(tighten=True)

    def _box(self, tighten: bool) -> dict[str, tuple[int, int]]:
        los: list[int] = []
        his: list[int] = []
        for d, ((lo_row, lo_c), (hi_row, hi_c)) in enumerate(self._bound_rows):
            lo = _interval(lo_row, lo_c, los, his)[0]
            hi = _interval(hi_row, hi_c, los, his)[1]
            for coeff, row, const, is_eq, _ in self._cons_at[d] if tighten else ():
                r_lo, r_hi = _interval(row, const, los, his)
                # coeff·v + rest >= 0 over rest ∈ [r_lo, r_hi] (weakest case).
                if coeff > 0:
                    lo = max(lo, -(r_hi // coeff))
                else:
                    hi = min(hi, r_hi // -coeff)
                if is_eq:  # also -coeff·v - rest >= 0
                    if coeff > 0:
                        hi = min(hi, (-r_lo) // coeff)
                    else:
                        lo = max(lo, -((-r_lo) // -coeff))
            los.append(lo)
            his.append(max(lo, hi))
        return {var: (lo, hi) for var, lo, hi in zip(self.dims, los, his)}

    def contains(self, point: Sequence[int]) -> bool:
        """True if ``point`` (one integer per dimension) lies in the space."""
        if len(point) != self._n or self._empty:
            return False
        for k, ((lo_row, lo_c), (hi_row, hi_c)) in enumerate(self._bound_rows):
            value = point[k]
            if not (
                lo_c + sum(map(mul, lo_row, point))
                <= value
                <= hi_c + sum(map(mul, hi_row, point))
            ):
                return False
        for level in self._cons_at:
            for _, row, const, is_eq, _ in level:
                value = const + sum(map(mul, row, point))
                if value != 0 if is_eq else value < 0:
                    return False
        for level in self._res_at:
            for _, row, const, m, lo, hi, _ in level:
                if not lo <= (const + sum(map(mul, row, point))) % m <= hi:
                    return False
        return True

    # -- counting ----------------------------------------------------------------

    def signature(self) -> tuple:
        """A canonical, hashable signature of the constraint system.

        Two spaces with equal signatures contain exactly the same points, so
        counts may be shared across instances (:func:`cached_count`).  The
        conjuncts are sets — their order never affects the point set.
        """
        sig = self._signature
        if sig is None:
            sig = self._signature = (
                "space",
                self.dims,
                self._bound_rows,
                frozenset(self._cons),
                frozenset(self._res),
            )
        return sig

    def count(self) -> int:
        """The exact number of integer points in the space.

        Memoized per instance *and*, keyed by :meth:`signature`, across
        instances (``polyhedra.count.cache_hits``) — repeated region counts
        inside one solve never recompute structurally identical systems.
        """
        if self._empty:
            return 0
        return cached_count(
            self.signature(), lambda: self._count_from(0, [])
        )

    def _memo_key(self, d: int, vals: list[int]) -> tuple:
        """Depth, relevant raw values, then residue partials (the
        fixed-variable part of each residue expression, mod its modulus)."""
        key = (d, *[vals[k] for k in self._raw_idx[d]])
        residues = self._res_from[d]
        if residues:
            key += tuple(
                (const + sum(map(mul, row, vals))) % m
                for _, row, const, m, _, _, _ in residues
            )
        return key

    def _tightened_range(
        self, d: int, vals: list[int]
    ) -> Optional[tuple[int, int]]:
        """The value range of dimension ``d`` under bounds + anchored affine
        constraints, given the fixed outer values ``vals`` (``None`` =
        provably empty).

        Every affine constraint anchored at ``d`` mentions only already-fixed
        variables besides ``dims[d]``, so it always reduces to an interval
        adjustment — never to a per-value check.
        """
        (lo_row, lo_c), (hi_row, hi_c) = self._bound_rows[d]
        lo = lo_c + sum(map(mul, lo_row, vals))
        hi = hi_c + sum(map(mul, hi_row, vals))
        for coeff, row, const, is_eq, _ in self._cons_at[d]:
            # coeff·v + rest (row[d] is not read: len(vals) == d).
            rest = const + sum(map(mul, row, vals))
            if is_eq:
                if rest % coeff:
                    return None
                pinned = -rest // coeff
                lo = max(lo, pinned)
                hi = min(hi, pinned)
            elif coeff > 0:
                lo = max(lo, -(rest // coeff))
            else:
                hi = min(hi, rest // -coeff)
        return (lo, hi) if hi >= lo else None

    def _anchored_checks(
        self, d: int, vals: list[int]
    ) -> list[tuple[int, int, int, int, int]]:
        """Residues anchored at ``d`` reduced to ``(coeff, rest, m, lo, hi)``."""
        return [
            (coeff, const + sum(map(mul, row, vals)), m, lo, hi)
            for coeff, row, const, m, lo, hi, _ in self._res_at[d]
        ]

    def _values(self, d: int, vals: list[int]) -> Iterable[int]:
        """The values of dimension ``d`` every conjunct anchored there
        admits, given the fixed outer values ``vals``, in order."""
        rng = self._tightened_range(d, vals)
        if rng is None:
            return ()
        return _admitted(self._anchored_checks(d, vals), *rng)

    def _period(self, d: int) -> int:
        """The period in ``dims[d]`` of every residue test at or below ``d``."""
        periods = self._periods
        if periods is None:
            periods = self._periods = [0] * self._n
        period = periods[d]
        if not period:
            period = 1
            for coeff, _, _, m, _, _, _ in self._res_at[d]:
                period = math.lcm(period, residue_period(coeff, m))
            for _, row, _, m, _, _, _ in self._res_from[d + 1]:
                if row[d]:
                    period = math.lcm(period, residue_period(row[d], m))
            periods[d] = period
        return period

    def _count_from(self, d: int, vals: list[int]) -> int:
        if d == self._n:
            return 1
        key = self._memo_key(d, vals)
        cached = self._count_memo.get(key)
        if cached is not None:
            return cached
        total = 0
        rng = self._tightened_range(d, vals)
        if rng is not None:
            lo, hi = rng
            # A dimension that matters below (if at all) only through
            # residue partials makes satisfaction and every deeper count
            # periodic in it: scan one period and weight each class by its
            # closed-form multiplicity.
            period = 0 if self._raw[d + 1] >> d & 1 else self._period(d)
            if period == 1 and not self._res_at[d]:
                # Nothing reads the value: every value has the same subtree.
                vals.append(lo)
                total = (hi - lo + 1) * self._count_from(d + 1, vals)
                vals.pop()
            elif period and period < hi - lo + 1:
                checks = self._anchored_checks(d, vals)
                for w in _admitted(checks, lo, lo + period - 1):
                    vals.append(w)
                    inner = self._count_from(d + 1, vals)
                    vals.pop()
                    if inner:
                        total += inner * count_range_residue(
                            lo, hi, period, w % period
                        )
            else:
                checks = self._anchored_checks(d, vals)
                for value in _admitted(checks, lo, hi):
                    vals.append(value)
                    total += self._count_from(d + 1, vals)
                    vals.pop()
        self._count_memo[key] = total
        return total

    # -- enumeration ---------------------------------------------------------------

    def enumerate_points(self) -> Iterator[tuple[int, ...]]:
        """Yield every integer point in lexicographic order."""
        if self._empty:
            return
        yield from self._enumerate_from(0, [])

    def _enumerate_from(
        self, d: int, vals: list[int]
    ) -> Iterator[tuple[int, ...]]:
        if d == self._n:
            yield tuple(vals)
            return
        for value in self._values(d, vals):
            vals.append(value)
            yield from self._enumerate_from(d + 1, vals)
            vals.pop()

    # -- representative search ----------------------------------------------------

    def representative(
        self, budget: int = REPRESENTATIVE_BUDGET
    ) -> Optional[tuple[int, ...]]:
        """One point of the space, or ``None`` if empty or over budget.

        Count-guided lexmin descent: at each dimension the first value whose
        subtree is non-empty is fixed.  Subtree probes share the counting
        memo, so a successful search after a :meth:`count` call costs almost
        nothing extra.  ``budget`` caps the total number of candidate-value
        probes — exhaustion returns ``None`` and the caller falls back to
        enumeration, so the search can never silently degrade to a scan of
        the loop bounds.
        """
        if self._empty or self.count() == 0:
            return None
        vals: list[int] = []
        for d in range(self._n):
            rng = self._tightened_range(d, vals)
            if rng is None:
                return None  # unreachable after the count() > 0 check
            lo, hi = rng
            checks = self._anchored_checks(d, vals)
            for value in range(lo, hi + 1):
                budget -= 1
                if budget < 0:
                    return None
                if not _passes(checks, value):
                    continue
                vals.append(value)
                if self._count_from(d + 1, vals) > 0:
                    break
                vals.pop()
            else:
                return None
        return tuple(vals)

    def descent_probes(self, point: Sequence[int]) -> int:
        """The candidate-value probes :meth:`representative` spends to
        reach ``point``, which must be the space's lexmin.

        The descent fixes the lexmin's coordinates in turn, probing at
        each dimension every value from the tightened lower bound up to
        the lexmin's, so it returns ``point`` iff this is at most its
        budget.  Lets a caller that already has the lexmin (the first of
        the space's points in lexicographic order) reproduce the budget
        verdict without descending.
        """
        vals: list[int] = []
        probes = 0
        for value in point:
            lo = self._tightened_range(len(vals), vals)[0]
            probes += value - lo + 1
            vals.append(value)
        return probes

    # -- uniform sampling -------------------------------------------------------------

    def sample(self, n: int, rng: random.Random | None = None) -> np.ndarray:
        """Draw ``n`` points uniformly at random (with replacement).

        Returns an ``(n, ndim)`` int64 array.  Sampling descends the
        dimensions weighting each candidate value by the exact count of the
        subtree below it, which yields an exactly uniform distribution over
        the integer points even for triangular or guarded spaces.  Each
        dimension costs one ``rng.randrange(total)`` and one
        :func:`bisect.bisect_right` into a cumulative-weight table, built
        once per memo key and kept next to the counts; a level whose
        subtree count does not depend on the value needs no table at all
        (``lo + pick // inner``).

        On a space of :meth:`constant_extents` every level's ``randrange``
        bound is a constant, so when ``rng`` is exactly
        :class:`random.Random` and the space holds fewer than ``2**32``
        points the whole sample is drawn at once from the same Mersenne
        Twister words (:func:`repro.polyhedra.batch.sample_points_array`):
        the same points, and the same generator state afterwards, as the
        descent.  Raises ``ValueError`` on an empty space.
        """
        rng = rng if rng is not None else random.Random()
        total = self.count()
        if total == 0:
            raise ValueError("cannot sample from an empty space")
        if (
            self.constant_extents() is not None
            and type(rng) is random.Random
            and total < 1 << 32
        ):
            # Imported here: repro.polyhedra.batch imports this module.
            from repro.polyhedra.batch import sample_points_array

            return sample_points_array(self, n, rng)
        points = [self._sample_one(rng) for _ in range(n)]
        return np.array(points, dtype=np.int64).reshape(n, self._n)

    def _sample_one(self, rng: random.Random) -> tuple[int, ...]:
        vals: list[int] = []
        for d in range(self._n):
            values, cumulative = self._weights(d, vals)
            pick = rng.randrange(cumulative[-1])
            vals.append(values[bisect_right(cumulative, pick)])
        return tuple(vals)

    def _weights(
        self, d: int, vals: list[int]
    ) -> tuple[Sequence[int], Sequence[int]]:
        """Candidate values of dimension ``d`` and their cumulative weights.

        Zero-weight values (an empty subtree) are dropped.  A level whose
        subtree count does not depend on the value (no deeper bound,
        affine constraint or residue reads it) gets two ranges instead of
        tables: every value weighs the same ``inner``, so the ``k``-th
        value's cumulative weight is ``(k+1)·inner``.  Cached per memo key
        like :meth:`_count_from`.
        """
        key = self._memo_key(d, vals)
        table = self._weight_memo.get(key)
        if table is not None:
            return table
        if not (self._raw[d + 1] >> d & 1 or self._res_from[d]):
            span = self._tightened_range(d, vals)
            inner = 0
            if span is not None:
                lo, hi = span
                vals.append(lo)
                inner = self._count_from(d + 1, vals)
                vals.pop()
            if not inner:
                raise ValueError("cannot sample from an empty space")
            table = (
                range(lo, hi + 1),
                range(inner, (hi - lo + 1) * inner + 1, inner),
            )
        else:
            values: list[int] = []
            cumulative: list[int] = []
            running = 0
            for value in self._values(d, vals):
                vals.append(value)
                w = self._count_from(d + 1, vals)
                vals.pop()
                if w:
                    running += w
                    values.append(value)
                    cumulative.append(running)
            if not values:
                raise ValueError("cannot sample from an empty space")
            table = (values, cumulative)
        self._weight_memo[key] = table
        return table

    def __repr__(self) -> str:
        parts = [
            f"{lo} <= {v} <= {hi}"
            for v, (lo, hi) in zip(self.dims, self.bounds)
        ]
        parts.extend(map(repr, self.constraints))
        parts.extend(map(repr, self.residues))
        return "BoundedSpace(" + ", ".join(parts) + ")"
