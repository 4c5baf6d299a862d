"""Cache Miss Equations: forming and solving (Section 4 of the paper)."""

from repro.cme.backend import (
    BACKENDS,
    make_classifier,
    numpy_available,
    resolve_backend,
)
from repro.cme.point import Classification, Outcome, PointClassifier
from repro.cme.result import MissReport, RefResult, compare_reports
from repro.cme.find import find_misses, find_ref_misses
from repro.cme.estimate import estimate_misses, estimate_ref_misses, ref_rng
from repro.cme.regions import (
    region_misses,
    region_ref_misses,
    regional_coverage,
)
from repro.cme.solver import METHODS, Solver, run_units, solver_for

__all__ = [
    "BACKENDS",
    "METHODS",
    "Classification",
    "Outcome",
    "PointClassifier",
    "MissReport",
    "RefResult",
    "compare_reports",
    "find_misses",
    "find_ref_misses",
    "estimate_misses",
    "estimate_ref_misses",
    "make_classifier",
    "numpy_available",
    "ref_rng",
    "region_misses",
    "region_ref_misses",
    "regional_coverage",
    "resolve_backend",
    "run_units",
    "Solver",
    "solver_for",
]
