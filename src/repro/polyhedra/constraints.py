"""Affine constraints, residue constraints and conjunctions of constraints.

A :class:`Constraint` is either an equality ``expr == 0`` or an inequality
``expr >= 0`` over integer points.  A :class:`ConstraintSet` is a conjunction,
used for IF guards and reference iteration spaces (Section 3.3 of the paper).
Disjunctions never arise in the paper's program model, which keeps the
machinery simple and exact; the one place a complement is needed — the
regional solver's sequential set difference — takes the disjuncts of
:meth:`repro.polyhedra.space.RowConstraint.negated` one cell each.  A
:class:`ResidueConstraint` ``(expr mod m) ∈ [lo, hi]`` is the memory-line
condition of the cold equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.polyhedra.affine import Affine, AffineLike

EQ = "=="
GE = ">="


class Constraint:
    """A single affine constraint: ``expr == 0`` or ``expr >= 0``."""

    __slots__ = ("expr", "kind")

    def __init__(self, expr: Affine, kind: str):
        if kind not in (EQ, GE):
            raise ValueError(f"unknown constraint kind {kind!r}")
        self.expr = expr
        self.kind = kind

    @staticmethod
    def equality(expr: AffineLike) -> "Constraint":
        """The constraint ``expr == 0``."""
        return Constraint(Affine.coerce(expr), EQ)

    @staticmethod
    def inequality(expr: AffineLike) -> "Constraint":
        """The constraint ``expr >= 0``."""
        return Constraint(Affine.coerce(expr), GE)

    def satisfied(self, env: Mapping[str, int]) -> bool:
        """True if the constraint holds at the integer point ``env``."""
        value = self.expr.evaluate(env)
        return value == 0 if self.kind == EQ else value >= 0

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "Constraint":
        """Substitute variables by affine expressions."""
        return Constraint(self.expr.substitute(mapping), self.kind)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        """Rename variables."""
        return Constraint(self.expr.rename(mapping), self.kind)

    def partial_evaluate(self, env: Mapping[str, int]) -> "Constraint":
        """Bind the variables present in ``env``; keep the rest symbolic."""
        return Constraint(self.expr.partial_evaluate(env), self.kind)

    def variables(self) -> frozenset[str]:
        """Variables appearing in the constraint."""
        return self.expr.variables()

    def trivially_true(self) -> bool:
        """True for a variable-free constraint that always holds."""
        if not self.expr.is_constant():
            return False
        v = self.expr.constant
        return v == 0 if self.kind == EQ else v >= 0

    def trivially_false(self) -> bool:
        """True for a variable-free constraint that never holds."""
        if not self.expr.is_constant():
            return False
        v = self.expr.constant
        return v != 0 if self.kind == EQ else v < 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.kind == other.kind and self.expr == other.expr

    def __hash__(self) -> int:
        return hash((self.kind, self.expr))

    def __repr__(self) -> str:
        op = "==" if self.kind == EQ else ">="
        return f"({self.expr} {op} 0)"


@dataclass(frozen=True)
class ResidueConstraint:
    """The constraint ``(expr mod modulus) ∈ [lo, hi]``.

    A :class:`~repro.polyhedra.space.BoundedSpace` validates the interval
    and reduces ``expr`` modulo ``modulus`` on the way in
    (:meth:`~repro.polyhedra.space.RowResidue.make`), so two constraints
    describing the same residue condition share one signature, and its
    :attr:`~repro.polyhedra.space.BoundedSpace.residues` reports them
    reduced.
    """

    expr: Affine
    modulus: int
    lo: int
    hi: int

    def __repr__(self) -> str:
        return f"({self.expr} mod {self.modulus} in [{self.lo}, {self.hi}])"


class ConstraintSet:
    """An immutable conjunction of affine constraints.

    Used for the guards that loop sinking introduces (Section 3.1) and for
    IF conditionals in the program model.  The empty set is the trivially
    true guard.
    """

    __slots__ = ("constraints",)

    def __init__(self, constraints: Iterable[Constraint] = ()):
        seen: list[Constraint] = []
        for c in constraints:
            if c.trivially_true():
                continue
            if c not in seen:
                seen.append(c)
        self.constraints = tuple(seen)

    @staticmethod
    def true() -> "ConstraintSet":
        """The always-true guard."""
        return ConstraintSet(())

    def conjoin(self, other: "ConstraintSet | Constraint") -> "ConstraintSet":
        """The conjunction of this set with another set or single constraint."""
        if isinstance(other, Constraint):
            other = ConstraintSet((other,))
        return ConstraintSet(self.constraints + other.constraints)

    def satisfied(self, env: Mapping[str, int]) -> bool:
        """True if every constraint holds at the point ``env``."""
        return all(c.satisfied(env) for c in self.constraints)

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "ConstraintSet":
        """Substitute variables by affine expressions in every constraint."""
        return ConstraintSet(c.substitute(mapping) for c in self.constraints)

    def rename(self, mapping: Mapping[str, str]) -> "ConstraintSet":
        """Rename variables in every constraint."""
        return ConstraintSet(c.rename(mapping) for c in self.constraints)

    def partial_evaluate(self, env: Mapping[str, int]) -> "ConstraintSet":
        """Bind the variables present in ``env`` in every constraint."""
        return ConstraintSet(c.partial_evaluate(env) for c in self.constraints)

    def variables(self) -> frozenset[str]:
        """Variables appearing in any constraint."""
        names: set[str] = set()
        for c in self.constraints:
            names |= c.variables()
        return frozenset(names)

    def trivially_false(self) -> bool:
        """True if some constraint can never hold."""
        return any(c.trivially_false() for c in self.constraints)

    def is_true(self) -> bool:
        """True if the conjunction is empty (always holds)."""
        return not self.constraints

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return set(self.constraints) == set(other.constraints)

    def __hash__(self) -> int:
        return hash(frozenset(self.constraints))

    def __repr__(self) -> str:
        if not self.constraints:
            return "TRUE"
        return " & ".join(map(repr, self.constraints))
