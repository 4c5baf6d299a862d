"""repro — analytical whole-program cache behaviour prediction.

A from-scratch Python reproduction of Vera & Xue, *"Let's Study
Whole-Program Cache Behaviour Analytically"* (HPCA 2002): reuse vectors
generalised across multiple loop nests, abstract inlining of subroutine
calls, Cache Miss Equations with exhaustive (``FindMisses``) and sampled
(``EstimateMisses``) solvers, and a trace-driven LRU cache simulator used as
the validation baseline.

Quickstart::

    from repro import CacheConfig, ProgramBuilder, analyze, run_simulation

    pb = ProgramBuilder("DEMO")
    a = pb.array("A", (256, 256))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, 256) as j:
            with pb.do("I", 1, 256) as i:
                pb.assign(a[i, j])

    cache = CacheConfig.kb(32, 32, assoc=2)
    report = analyze(pb.build(), cache)           # analytical (sampled)
    ground = run_simulation(pb.build(), cache)    # simulator
    print(report.miss_ratio_percent, ground.miss_ratio_percent)
"""

from repro import obs
from repro.analysis import PreparedProgram, analyze, prepare, run_simulation
from repro.cme import (
    MissReport,
    Outcome,
    RefResult,
    compare_reports,
    estimate_misses,
    find_misses,
)
from repro.errors import (
    FrontendError,
    InvariantError,
    NonAffineError,
    NonAnalysableCallError,
    NonAnalysableError,
    ReproError,
)
from repro.inline import CallStats, classify_program, inline_program
from repro.ir import (
    Array,
    ArrayView,
    Program,
    ProgramBuilder,
    Scalar,
    ProgramStats,
    print_program,
    program_stats,
)
from repro.layout import CacheConfig, MemoryLayout, layout_for_refs
from repro.memo import Memoizer
from repro.normalize import NormalizedProgram, normalize
from repro.polyhedra import Affine, Var
from repro.reuse import ReuseOptions, ReuseTable, build_reuse_table
from repro.sim import SimReport, simulate
from repro.stats import sample_size

__version__ = "1.0.0"

__all__ = [
    "obs",
    "PreparedProgram",
    "analyze",
    "prepare",
    "run_simulation",
    "MissReport",
    "Outcome",
    "RefResult",
    "compare_reports",
    "estimate_misses",
    "find_misses",
    "FrontendError",
    "InvariantError",
    "NonAffineError",
    "NonAnalysableCallError",
    "NonAnalysableError",
    "ReproError",
    "CallStats",
    "classify_program",
    "inline_program",
    "Array",
    "ArrayView",
    "Program",
    "ProgramBuilder",
    "Scalar",
    "ProgramStats",
    "print_program",
    "program_stats",
    "CacheConfig",
    "MemoryLayout",
    "layout_for_refs",
    "Memoizer",
    "NormalizedProgram",
    "normalize",
    "Affine",
    "Var",
    "ReuseOptions",
    "ReuseTable",
    "build_reuse_table",
    "SimReport",
    "simulate",
    "sample_size",
    "__version__",
]
