"""Cache Miss Equations: forming and solving (Section 4 of the paper)."""

from repro.cme.backend import make_classifier
from repro.cme.result import (
    Classification,
    MissReport,
    Outcome,
    RefResult,
    compare_reports,
)
from repro.cme.find import find_misses, find_ref_misses
from repro.cme.estimate import estimate_misses, estimate_ref_misses, ref_rng
from repro.cme.regions import (
    region_misses,
    region_ref_misses,
    regional_coverage,
)
from repro.cme.solver import METHODS, Solver, solver_for

__all__ = [
    "METHODS",
    "Classification",
    "Outcome",
    "MissReport",
    "RefResult",
    "compare_reports",
    "find_misses",
    "find_ref_misses",
    "estimate_misses",
    "estimate_ref_misses",
    "make_classifier",
    "ref_rng",
    "region_misses",
    "region_ref_misses",
    "regional_coverage",
    "Solver",
    "solver_for",
]
