"""Minimal polyhedral machinery for analytical cache modelling.

The paper manipulates its miss equations "by polyhedral theory" using tools of
the era (the Omega calculator, PolyLib, Ehrhart polynomials).  This package
implements, from scratch, exactly the slice of that machinery the method
needs:

* :class:`~repro.polyhedra.affine.Affine` — integer affine expressions over
  named loop indices,
* :class:`~repro.polyhedra.constraints.Constraint` /
  :class:`~repro.polyhedra.constraints.ConstraintSet` — conjunctions of affine
  equalities and inequalities (the guards of references), and
  :class:`~repro.polyhedra.constraints.ResidueConstraint` — the
  residue-interval conditions ``(expr mod m) ∈ [lo, hi]`` of the cold
  equations,
* :mod:`~repro.polyhedra.intsolve` — integer linear algebra (Hermite normal
  form, particular solutions, null-space lattice bases) used to solve the
  reuse equations ``M·x = m_p − m_c`` of Section 3.5,
* :class:`~repro.polyhedra.space.BoundedSpace` — per-dimension affine bounds
  plus affine and residue constraints, with exact point counting (the
  "volume of a RIS" computation of Fig. 6, loop-bound-independent through
  bound tightening and periodic residue counting), membership,
  lexicographic enumeration and uniform integer-point sampling.  One class
  serves both the reference iteration spaces and the cells of the regional
  CME solver; it keeps every conjunct as an integer row, and
  :class:`~repro.polyhedra.space.RowConstraint` /
  :class:`~repro.polyhedra.space.RowResidue` let a caller conjoin one it
  compiled in advance.
"""

from repro.polyhedra.affine import Affine, Var
from repro.polyhedra.constraints import (
    Constraint,
    ConstraintSet,
    ResidueConstraint,
)
from repro.polyhedra.intsolve import (
    count_range_residue,
    hermite_normal_form,
    nullspace_basis,
    residue_period,
    solve_integer,
)
from repro.polyhedra.space import (
    BoundedSpace,
    RowConstraint,
    RowResidue,
    cached_count,
    clear_count_cache,
    count_cache_size,
)

__all__ = [
    "Affine",
    "Var",
    "Constraint",
    "ConstraintSet",
    "ResidueConstraint",
    "count_range_residue",
    "hermite_normal_form",
    "nullspace_basis",
    "residue_period",
    "solve_integer",
    "BoundedSpace",
    "RowConstraint",
    "RowResidue",
    "cached_count",
    "clear_count_cache",
    "count_cache_size",
]
