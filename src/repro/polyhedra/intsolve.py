"""Exact integer linear algebra for the reuse equations.

Section 3.5 of the paper derives temporal reuse vectors by solving

    M · x = m_p − m_c

over the integers, and spatial reuse vectors by solving the same system with
the first row removed.  This module provides the necessary machinery using
arbitrary-precision Python integers (no floating point, hence no rounding
error):

* :func:`hermite_normal_form` — column-style HNF ``H = A·U`` with ``U``
  unimodular,
* :func:`solve_integer` — a particular integer solution of ``A·x = b`` (or
  ``None`` when no integer solution exists),
* :func:`nullspace_basis` — a lattice basis of ``{x : A·x = 0}``.

It also provides the residue-class arithmetic of the regional CME solver
(:mod:`repro.cme.regions`): the memory-line equality of the cold equations
confines an address expression modulo the line size, so counting a region
reduces to counting ``v ≡ r (mod p)`` inside an interval — a closed form
(:func:`count_range_residue`) whose cost is independent of the interval
length, which is precisely what makes regional
analysis time flat in the loop bounds.

Matrices are plain ``list[list[int]]`` (rows); vectors are ``list[int]``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro import obs

Matrix = list[list[int]]
Vector = list[int]


def _copy_matrix(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(map(int, row)) for row in a]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_columns(mat: Matrix, i: int, j: int) -> None:
    if i == j:
        return
    for row in mat:
        row[i], row[j] = row[j], row[i]


def _add_column_multiple(mat: Matrix, dst: int, src: int, factor: int) -> None:
    """col[dst] += factor * col[src]."""
    if factor == 0:
        return
    for row in mat:
        row[dst] += factor * row[src]


def _negate_column(mat: Matrix, j: int) -> None:
    for row in mat:
        row[j] = -row[j]


def hermite_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, list[tuple[int, int]]]:
    """Column-style Hermite normal form.

    Returns ``(H, U, pivots)`` with ``H = A·U``, ``U`` unimodular, ``H`` in
    column echelon form (each pivot column has its first non-zero entry on a
    strictly increasing row), and ``pivots`` the list of ``(row, col)`` pivot
    positions.  Columns of ``U`` beyond the pivot columns span the null space
    of ``A``.
    """
    h = _copy_matrix(a)
    m = len(h)
    n = len(h[0]) if m else 0
    u = _identity(n)
    pivots: list[tuple[int, int]] = []
    col = 0
    for row in range(m):
        if col >= n:
            break
        # Reduce all entries in this row at columns >= col to a single pivot.
        while True:
            nonzero = [j for j in range(col, n) if h[row][j] != 0]
            if not nonzero:
                break
            # Move the smallest-magnitude non-zero entry into the pivot column.
            j_min = min(nonzero, key=lambda j: abs(h[row][j]))
            _swap_columns(h, col, j_min)
            _swap_columns(u, col, j_min)
            pivot = h[row][col]
            done = True
            for j in range(col + 1, n):
                if h[row][j] != 0:
                    q = h[row][j] // pivot
                    _add_column_multiple(h, j, col, -q)
                    _add_column_multiple(u, j, col, -q)
                    if h[row][j] != 0:
                        done = False
            if done:
                break
        if col < n and h[row][col] != 0:
            if h[row][col] < 0:
                _negate_column(h, col)
                _negate_column(u, col)
            pivots.append((row, col))
            col += 1
    return h, u, pivots


def solve_integer(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> Optional[Vector]:
    """A particular integer solution ``x`` of ``A·x = b``, or ``None``.

    Free coordinates are set to zero, so for full-column-rank systems the
    unique solution is returned; otherwise any solution differing by a null
    space lattice vector is equally valid (the reuse-vector generator
    enumerates the lattice separately).

    Each call counts toward ``polyhedra.intsolve.calls`` and, by outcome,
    ``polyhedra.intsolve.solutions`` / ``polyhedra.intsolve.infeasible``.
    """
    x = _solve_integer(a, b)
    obs.counter("polyhedra.intsolve.calls").inc()
    if x is None:
        obs.counter("polyhedra.intsolve.infeasible").inc()
    else:
        obs.counter("polyhedra.intsolve.solutions").inc()
    return x


def _solve_integer(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> Optional[Vector]:
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != m:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    if n == 0:
        return [] if all(v == 0 for v in b) else None
    h, u, pivots = hermite_normal_form(a)
    y = [0] * n
    pivot_by_row = dict(pivots)
    for row in range(m):
        residual = b[row] - sum(h[row][c] * y[c] for c in range(n))
        if row in pivot_by_row:
            col = pivot_by_row[row]
            pivot = h[row][col]
            if residual % pivot:
                return None  # no integer solution
            y[col] = residual // pivot
        elif residual != 0:
            return None  # inconsistent system
    # x = U · y
    return [sum(u[i][j] * y[j] for j in range(n)) for i in range(n)]


def nullspace_basis(a: Sequence[Sequence[int]]) -> list[Vector]:
    """A lattice basis of the integer null space ``{x : A·x = 0}``.

    Counted as ``polyhedra.nullspace.calls``.
    """
    obs.counter("polyhedra.nullspace.calls").inc()
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    h, u, pivots = hermite_normal_form(a)
    pivot_cols = {col for _, col in pivots}
    basis = []
    for j in range(n):
        if j not in pivot_cols:
            basis.append([u[i][j] for i in range(n)])
    return basis


def matvec(a: Sequence[Sequence[int]], x: Sequence[int]) -> Vector:
    """The product ``A·x`` with exact integers."""
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def is_zero_vector(v: Sequence[int]) -> bool:
    """True if every component is zero."""
    return all(c == 0 for c in v)


# -- residue-class (periodic) counting ----------------------------------------
#
# The cold equations of the regional solver confine a byte-address expression
# ``a(i) mod L`` to an interval, so the innermost counting problem is always
# "how many v in [lo, hi] satisfy a congruence" — answered in closed form.


def residue_period(coeff: int, modulus: int) -> int:
    """The period of ``v ↦ (coeff·v) mod modulus`` over consecutive ``v``.

    ``modulus / gcd(coeff, modulus)`` — 1 when ``coeff ≡ 0 (mod modulus)``,
    so constraints whose variable coefficient vanishes modulo the line size
    cost nothing to iterate.
    """
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return modulus // math.gcd(coeff, modulus)


def count_range_residue(lo: int, hi: int, period: int, residue: int) -> int:
    """``|{v ∈ [lo, hi] : v ≡ residue (mod period)}|`` in closed form."""
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if hi < lo:
        return 0
    first = lo + ((residue - lo) % period)
    if first > hi:
        return 0
    return (hi - first) // period + 1

