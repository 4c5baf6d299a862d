"""Integer affine expressions over named loop indices.

The paper's program model (Section 3) requires loop bounds, IF conditions and
array subscripts to be *affine* expressions of the enclosing loop indices with
compile-time-known constants.  :class:`Affine` is the single representation
used for all of them throughout the package.

An affine expression is ``sum(coeff[v] * v for v in vars) + const`` with
integer coefficients.  Instances are immutable and hashable, support the usual
arithmetic, substitution and evaluation, and provide comparison helpers that
build :class:`~repro.polyhedra.constraints.Constraint` objects.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from repro.errors import NonAffineError

AffineLike = Union["Affine", int]


class Affine:
    """An immutable integer affine expression ``Σ cᵥ·v + c₀``.

    Parameters
    ----------
    coeffs:
        Mapping from variable name to integer coefficient.  Zero
        coefficients are dropped.
    const:
        The constant term ``c₀``.
    """

    __slots__ = ("_coeffs", "_const", "_hash")

    def __init__(self, coeffs: Mapping[str, int] | None = None, const: int = 0):
        items = []
        if coeffs:
            for name, c in coeffs.items():
                if not isinstance(c, int):
                    raise NonAffineError(
                        f"coefficient of {name!r} must be an integer, got {c!r}"
                    )
                if c != 0:
                    items.append((name, c))
        if not isinstance(const, int):
            raise NonAffineError(f"constant term must be an integer, got {const!r}")
        items.sort()
        object.__setattr__(self, "_coeffs", tuple(items))
        object.__setattr__(self, "_const", const)
        object.__setattr__(self, "_hash", hash((self._coeffs, const)))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(value: int) -> "Affine":
        """The constant expression ``value``."""
        return Affine({}, value)

    @staticmethod
    def var(name: str) -> "Affine":
        """The expression consisting of the single variable ``name``."""
        return Affine({name: 1}, 0)

    @staticmethod
    def coerce(value: AffineLike) -> "Affine":
        """Return ``value`` as an :class:`Affine` (ints become constants)."""
        if isinstance(value, Affine):
            return value
        if isinstance(value, int):
            return Affine({}, value)
        raise NonAffineError(f"cannot interpret {value!r} as an affine expression")

    # -- read access -----------------------------------------------------------

    @property
    def coeffs(self) -> dict[str, int]:
        """A fresh dict of the non-zero coefficients."""
        return dict(self._coeffs)

    @property
    def terms(self) -> tuple[tuple[str, int], ...]:
        """The non-zero ``(variable, coefficient)`` pairs, sorted by name."""
        return self._coeffs

    @property
    def constant(self) -> int:
        """The constant term."""
        return self._const

    def coeff(self, name: str) -> int:
        """The coefficient of variable ``name`` (0 if absent)."""
        for n, c in self._coeffs:
            if n == name:
                return c
        return 0

    def variables(self) -> frozenset[str]:
        """The set of variables with non-zero coefficients."""
        return frozenset(n for n, _ in self._coeffs)

    def is_constant(self) -> bool:
        """True if the expression has no variable part."""
        return not self._coeffs

    def constant_value(self) -> int:
        """The value of a constant expression (raises otherwise)."""
        if self._coeffs:
            raise NonAffineError(f"{self} is not a compile-time constant")
        return self._const

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: AffineLike) -> "Affine":
        other = Affine.coerce(other)
        coeffs = dict(self._coeffs)
        for name, c in other._coeffs:
            coeffs[name] = coeffs.get(name, 0) + c
        return Affine(coeffs, self._const + other._const)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine({n: -c for n, c in self._coeffs}, -self._const)

    def __sub__(self, other: AffineLike) -> "Affine":
        return self + (-Affine.coerce(other))

    def __rsub__(self, other: AffineLike) -> "Affine":
        return Affine.coerce(other) + (-self)

    def __mul__(self, other: AffineLike) -> "Affine":
        other = Affine.coerce(other)
        if other.is_constant():
            k = other._const
            return Affine({n: c * k for n, c in self._coeffs}, self._const * k)
        if self.is_constant():
            k = self._const
            return Affine({n: c * k for n, c in other._coeffs}, other._const * k)
        raise NonAffineError(f"product of {self} and {other} is not affine")

    __rmul__ = __mul__

    def __floordiv__(self, other: AffineLike) -> "Affine":
        """Exact division by a constant; raises if it does not divide evenly.

        The paper's model only ever divides by constants that divide all
        coefficients (e.g. when normalising loop strides), so an inexact
        division indicates a non-affine construct.
        """
        other = Affine.coerce(other)
        k = other.constant_value()
        if k == 0:
            raise ZeroDivisionError("affine division by zero")
        coeffs = {}
        for n, c in self._coeffs:
            if c % k:
                raise NonAffineError(f"{self} is not exactly divisible by {k}")
            coeffs[n] = c // k
        if self._const % k:
            raise NonAffineError(f"{self} is not exactly divisible by {k}")
        return Affine(coeffs, self._const // k)

    # -- substitution and evaluation --------------------------------------------

    def substitute(self, mapping: Mapping[str, AffineLike]) -> "Affine":
        """Replace every variable in ``mapping`` by the given expression.

        One pass: every term is summed into a single coefficient dict.
        """
        coeffs: dict[str, int] = {}
        const = self._const
        for name, c in self._coeffs:
            if name in mapping:
                repl = Affine.coerce(mapping[name])
                for other, k in repl._coeffs:
                    coeffs[other] = coeffs.get(other, 0) + c * k
                const += c * repl._const
            else:
                coeffs[name] = coeffs.get(name, 0) + c
        return Affine(coeffs, const)

    def rename(self, mapping: Mapping[str, str]) -> "Affine":
        """Rename variables according to ``mapping`` (missing names kept)."""
        coeffs: dict[str, int] = {}
        for name, c in self._coeffs:
            new = mapping.get(name, name)
            coeffs[new] = coeffs.get(new, 0) + c
        return Affine(coeffs, self._const)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with every variable bound in ``env``."""
        total = self._const
        for name, c in self._coeffs:
            total += c * env[name]
        return total

    def partial_evaluate(self, env: Mapping[str, int]) -> "Affine":
        """Evaluate the variables present in ``env``; keep the rest symbolic."""
        coeffs = {}
        const = self._const
        for name, c in self._coeffs:
            if name in env:
                const += c * env[name]
            else:
                coeffs[name] = c
        return Affine(coeffs, const)

    def bounds(self, ranges: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        """Interval-arithmetic bounds given per-variable ``(lo, hi)`` ranges."""
        lo = hi = self._const
        for name, c in self._coeffs:
            vlo, vhi = ranges[name]
            if c >= 0:
                lo += c * vlo
                hi += c * vhi
            else:
                lo += c * vhi
                hi += c * vlo
        return lo, hi

    # -- comparisons building constraints ---------------------------------------
    # (imported lazily to avoid a circular import)

    def eq(self, other: AffineLike):
        """The constraint ``self == other``."""
        from repro.polyhedra.constraints import Constraint

        return Constraint.equality(self - other)

    def le(self, other: AffineLike):
        """The constraint ``self <= other``."""
        from repro.polyhedra.constraints import Constraint

        return Constraint.inequality(Affine.coerce(other) - self)

    def ge(self, other: AffineLike):
        """The constraint ``self >= other``."""
        from repro.polyhedra.constraints import Constraint

        return Constraint.inequality(self - Affine.coerce(other))

    def lt(self, other: AffineLike):
        """The constraint ``self < other`` (integer: ``self <= other - 1``)."""
        return self.le(Affine.coerce(other) - 1)

    def gt(self, other: AffineLike):
        """The constraint ``self > other`` (integer: ``self >= other + 1``)."""
        return self.ge(Affine.coerce(other) + 1)

    # -- dunder plumbing ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Affine.const(other)
        if not isinstance(other, Affine):
            return NotImplemented
        return self._coeffs == other._coeffs and self._const == other._const

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Affine({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for name, c in self._coeffs:
            if c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}*{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+{term}")
            else:
                parts.append(term)
        if self._const or not parts:
            if parts and self._const >= 0:
                parts.append(f"+{self._const}")
            else:
                parts.append(str(self._const))
        return "".join(parts)


class Var(Affine):
    """Sugar: ``Var('I1')`` is the affine expression for the variable ``I1``.

    Handy in the builder DSL and in tests::

        I1, I2 = Var("I1"), Var("I2")
        subscript = 2 * I1 - I2 + 3
    """

    __slots__ = ()

    def __init__(self, name: str):
        super().__init__({name: 1}, 0)


def vars_of(exprs: Iterable[Affine]) -> frozenset[str]:
    """Union of the variables of a collection of affine expressions."""
    names: set[str] = set()
    for e in exprs:
        names |= e.variables()
    return frozenset(names)
