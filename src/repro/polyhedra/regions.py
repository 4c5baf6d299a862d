"""Region cells: bounded spaces extended with residue-class constraints.

The regional CME solver (:mod:`repro.cme.regions`) decomposes a reference
iteration space into disjoint *cells*: the per-dimension bounds of the RIS
conjoined with translated producer-RIS constraints (general affine
equalities/inequalities over all dimensions) and with *residue constraints*
— the memory-line equality of the cold equations confines the consumer's
byte address modulo the line size to an interval.  A :class:`RegionSpace`
is one such cell, and its operations are engineered so that exact counting
costs a function of the cell's *structure*, never of the loop bounds:

* affine constraints are resolved by **bound tightening** — a constraint
  anchored at its deepest dimension reduces, once the outer dimensions are
  fixed, to ``c·v + k ⋈ 0`` and therefore to an interval adjustment, so no
  constraint ever forces per-value iteration;
* residue constraints are resolved by **periodic counting** — satisfaction
  of ``(c·v + k) mod m ∈ [a, b]`` is periodic in ``v`` with period
  ``m / gcd(c, m)``, so one period is scanned and each class is weighted by
  the closed-form :func:`~repro.polyhedra.intsolve.count_range_residue`;
* memo keys at each depth use, for outer variables that matter only through
  a residue constraint, the *partial sum modulo the modulus* instead of the
  raw value — so an outer loop of a million iterations collapses onto at
  most ``m`` distinct subproblems.

Counts are memoized per instance and shared across instances through the
canonical-signature cache of :mod:`repro.polyhedra.space`
(``polyhedra.count.cache_hits``).  Representative search serves the
solver's probes; the solver's fallback enumerates cells with
:func:`repro.polyhedra.batch.enumerate_points_array`, for which
:meth:`RegionSpace.enumerate_points` is the scalar oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.polyhedra.affine import Affine
from repro.polyhedra.constraints import Constraint, ConstraintSet, EQ
from repro.polyhedra.intsolve import count_range_residue, residue_period
from repro.polyhedra.space import cached_count

#: Default cap on subtree-count probes during representative search.
REPRESENTATIVE_BUDGET = 4096


@dataclass(frozen=True)
class ResidueConstraint:
    """The constraint ``(expr mod modulus) ∈ [lo, hi]``.

    ``expr`` is canonicalised modulo ``modulus`` at construction (every
    coefficient and the constant reduced into ``[0, modulus)``), so two
    constraints describing the same residue condition share one signature
    and therefore one cached count.
    """

    expr: Affine
    modulus: int
    lo: int
    hi: int

    @staticmethod
    def make(
        expr: Affine, modulus: int, lo: int, hi: int
    ) -> "ResidueConstraint":
        """Build a canonical residue constraint (validates the interval)."""
        if modulus <= 0:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if not (0 <= lo <= hi < modulus):
            raise ValueError(
                f"residue interval [{lo}, {hi}] not within [0, {modulus})"
            )
        reduced = Affine(
            {v: c % modulus for v, c in expr.coeffs.items()},
            expr.constant % modulus,
        )
        return ResidueConstraint(reduced, modulus, lo, hi)

    def satisfied(self, env: Mapping[str, int]) -> bool:
        """True if the residue condition holds at the point ``env``."""
        return self.lo <= self.expr.evaluate(env) % self.modulus <= self.hi

    def variables(self) -> frozenset[str]:
        """Variables with non-vanishing coefficients modulo the modulus."""
        return self.expr.variables()

    def __repr__(self) -> str:
        return f"({self.expr} mod {self.modulus} in [{self.lo}, {self.hi}])"


def _deepest(row: tuple[int, ...]) -> int:
    """The deepest dimension index with a non-zero coefficient."""
    k = len(row) - 1
    while not row[k]:
        k -= 1
    return k


def _mask(row: tuple[int, ...]) -> int:
    """Bit ``k`` set for every dimension ``k`` with a non-zero coefficient."""
    return sum(1 << k for k, c in enumerate(row) if c)


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


class RegionSpace:
    """An integer region: per-dimension bounds + affine + residue constraints.

    Parameters
    ----------
    dims:
        Ordered variable names ``(v1, …, vn)``.
    bounds:
        One affine ``(lower, upper)`` pair per dimension; the bounds of
        dimension ``k`` may reference only ``v1..v(k-1)`` (the RIS shape).
    constraints:
        General affine constraints over any of the dimensions (translated
        producer bounds, guards, negated cold conditions).
    residues:
        :class:`ResidueConstraint` conjuncts (memory-line conditions).

    Every bound, constraint and residue is compiled once into an integer
    coefficient row over ``dims`` and anchored at the deepest dimension
    it mentions; the walks below evaluate rows against the list of fixed
    outer values.  :meth:`conjoin` and :meth:`with_residue` derive a cell
    from its already validated parent by compiling only the one new
    conjunct — the same step the constructor folds over its arguments, so
    a derived cell and a freshly built one are the same region.
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
        self._empty = False
        self.constraints: tuple[Constraint, ...] = ()
        self.residues: tuple[ResidueConstraint, ...] = ()
        self._cons_at: tuple[tuple, ...] = ((),) * n
        self._res_at: tuple[tuple, ...] = ((),) * n
        self._res_from: tuple[tuple, ...] = ((),) * (n + 1)
        for c in constraints:
            self._add_constraint(c)
        for r in residues:
            self._add_residue(r)
        self._index_raw()
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

    def _add_constraint(self, c: Constraint) -> None:
        """Fold one affine constraint in: drop it if trivially true, empty
        the region if trivially false, else anchor it at its deepest
        dimension."""
        if c.trivially_true():
            return
        if c.trivially_false():
            self._empty = True
            return
        row = self._row(c.expr, "constraint", c)
        anchor = _deepest(row)
        self.constraints += (c,)
        compiled = (row[anchor], row, c.expr.constant, c.kind == EQ, c)
        cons_at = list(self._cons_at)
        cons_at[anchor] += (compiled,)
        self._cons_at = tuple(cons_at)
        mask = _mask(row)
        self._raw = tuple(
            m | mask if d <= anchor else m for d, m in enumerate(self._raw)
        )

    def _add_residue(self, r: ResidueConstraint) -> None:
        """Fold one residue constraint in: a constant one resolves now, the
        rest anchor like affine constraints."""
        if r.expr.is_constant():
            if not (r.lo <= r.expr.constant % r.modulus <= r.hi):
                self._empty = True
            return
        row = self._row(r.expr, "residue", r)
        anchor = _deepest(row)
        self.residues += (r,)
        compiled = (row[anchor], row, r.expr.constant, r.modulus, r.lo, r.hi, r)
        res_at = list(self._res_at)
        res_at[anchor] += (compiled,)
        self._res_at = tuple(res_at)
        self._res_from = tuple(
            rs + (compiled,) if d <= anchor else rs
            for d, rs in enumerate(self._res_from)
        )

    def _index_raw(self) -> None:
        """Per depth, the indices of the fixed dimensions in the memo key."""
        self._raw_idx = tuple(
            tuple(k for k in range(d) if mask >> k & 1)
            for d, mask in enumerate(self._raw)
        )

    def _reset_memos(self) -> None:
        self._count_memo: dict[tuple, int] = {}
        self._signature: Optional[tuple] = None
        self._periods: Optional[list] = None

    def _derived(self) -> "RegionSpace":
        """A copy sharing every compiled table, with fresh memos."""
        new = object.__new__(type(self))
        new.__dict__ = self.__dict__.copy()
        new._reset_memos()
        return new

    # -- basic queries ---------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self._n

    def is_trivially_empty(self) -> bool:
        """True if a constant constraint already rules out all points."""
        return self._empty

    def constraints_at(self, level: int) -> tuple[Constraint, ...]:
        """The affine constraints anchored at dimension ``level``."""
        return tuple(entry[-1] for entry in self._cons_at[level])

    def residues_at(self, level: int) -> tuple[ResidueConstraint, ...]:
        """The residue constraints anchored at dimension ``level``."""
        return tuple(entry[-1] for entry in self._res_at[level])

    def conjoin(self, constraint: Constraint) -> "RegionSpace":
        """A new region with one more affine constraint."""
        new = self._derived()
        new._add_constraint(constraint)
        new._index_raw()
        return new

    def with_residue(
        self, expr: Affine, modulus: int, lo: int, hi: int
    ) -> "RegionSpace":
        """A new region additionally requiring ``expr mod modulus ∈ [lo, hi]``."""
        new = self._derived()
        new._add_residue(ResidueConstraint.make(expr, modulus, lo, hi))
        return new

    def tight_ranges(self) -> dict[str, tuple[int, int]]:
        """Conservative per-dimension ``(min, max)`` box, constraint-aware.

        Like ``BoundedSpace.var_ranges`` but each affine constraint anchored
        at a dimension also narrows that dimension's interval (one forward
        pass of interval arithmetic).  Crucial for the crossing-window
        certificate: a decided cell's thinness lives in its *constraints*
        (negated earlier cold conditions, producer containment), not in the
        raw loop bounds.
        """
        los: list[int] = []
        his: list[int] = []
        for d, ((lo_row, lo_c), (hi_row, hi_c)) in enumerate(self._bound_rows):
            lo = _interval(lo_row, lo_c, los, his)[0]
            hi = _interval(hi_row, hi_c, los, his)[1]
            for coeff, row, const, is_eq, _ in self._cons_at[d]:
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
        """True if ``point`` (one integer per dimension) lies in the region."""
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
        """Canonical hashable signature (shared-count cache key)."""
        sig = self._signature
        if sig is None:
            sig = self._signature = (
                "region",
                self.dims,
                self.bounds,
                frozenset(self.constraints),
                frozenset(self.residues),
            )
        return sig

    def count(self) -> int:
        """The exact number of integer points in the region.

        Memoized per instance and, via the canonical signature, across
        instances (``polyhedra.count.cache_hits``).
        """
        if self._empty:
            return 0
        return cached_count(
            self.signature(), lambda: self._count_from(0, [])
        )

    def _memo_key(self, d: int, vals: list[int]) -> tuple:
        """Depth, relevant raw values, then residue partials (the
        fixed-variable part of each residue expression, mod its modulus)."""
        return (
            d,
            *[vals[k] for k in self._raw_idx[d]],
            *[
                (const + sum(map(mul, row, vals))) % m
                for _, row, const, m, _, _, _ in self._res_from[d]
            ],
        )

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
            checks = self._anchored_checks(d, vals)
            if not self._raw[d + 1] >> d & 1:
                # This dimension matters below (if at all) only through
                # residue partials — satisfaction and every deeper count are
                # periodic in it, so scan one period and weight each class
                # by its closed-form multiplicity.
                period = self._period(d)
                if period < hi - lo + 1:
                    for w in range(lo, lo + period):
                        if all(
                            rl <= (cf * w + rest) % m <= rh
                            for cf, rest, m, rl, rh in checks
                        ):
                            vals.append(w)
                            inner = self._count_from(d + 1, vals)
                            vals.pop()
                            if inner:
                                total += inner * count_range_residue(
                                    lo, hi, period, w % period
                                )
                    self._count_memo[key] = total
                    return total
            for value in range(lo, hi + 1):
                if all(
                    rl <= (cf * value + rest) % m <= rh
                    for cf, rest, m, rl, rh in checks
                ):
                    vals.append(value)
                    total += self._count_from(d + 1, vals)
                    vals.pop()
        self._count_memo[key] = total
        return total

    # -- enumeration ---------------------------------------------------------------

    def enumerate_points(self) -> Iterator[tuple[int, ...]]:
        """Yield every integer point in lexicographic order.

        The scalar oracle of :func:`repro.polyhedra.batch.enumerate_points_array`,
        which the solver uses.
        """
        if self._empty:
            return
        yield from self._enumerate_from(0, [])

    def _enumerate_from(
        self, d: int, vals: list[int]
    ) -> Iterator[tuple[int, ...]]:
        if d == self._n:
            yield tuple(vals)
            return
        rng = self._tightened_range(d, vals)
        if rng is None:
            return
        lo, hi = rng
        checks = self._anchored_checks(d, vals)
        for value in range(lo, hi + 1):
            if all(
                rl <= (cf * value + rest) % m <= rh
                for cf, rest, m, rl, rh in checks
            ):
                vals.append(value)
                yield from self._enumerate_from(d + 1, vals)
                vals.pop()

    # -- representative search ----------------------------------------------------

    def representative(
        self, budget: int = REPRESENTATIVE_BUDGET
    ) -> Optional[tuple[int, ...]]:
        """One point of the region, or ``None`` if empty or over budget.

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
                if not all(
                    rl <= (cf * value + rest) % m <= rh
                    for cf, rest, m, rl, rh in checks
                ):
                    continue
                vals.append(value)
                if self._count_from(d + 1, vals) > 0:
                    break
                vals.pop()
            else:
                return None
        return tuple(vals)

    def __repr__(self) -> str:
        parts = [
            f"{lo} <= {v} <= {hi}"
            for v, (lo, hi) in zip(self.dims, self.bounds)
        ]
        parts.extend(map(repr, self.constraints))
        parts.extend(map(repr, self.residues))
        return "RegionSpace(" + ", ".join(parts) + ")"


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


def region_of_space(space) -> RegionSpace:
    """The :class:`RegionSpace` form of a ``BoundedSpace`` (same points)."""
    guard = space.guard if isinstance(space.guard, ConstraintSet) else ConstraintSet(space.guard)
    return RegionSpace(space.dims, space.bounds, tuple(guard), ())
