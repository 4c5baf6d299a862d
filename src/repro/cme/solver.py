"""One per-reference loop behind ``FindMisses``, ``EstimateMisses`` and
``RegionMisses``.

Fig. 6 of the paper presents ``FindMisses`` and ``EstimateMisses`` as one
loop over the references; they differ only in which points of each RIS are
classified — all of them, or a ``(c, w)``-sized sample.  ``RegionMisses``
runs the same loop with whole regions instead of points.  This module is
that loop, written once:

* :class:`Solver` — a small picklable record naming one method: its report
  and span names, the memo parameters of each reference and the
  per-reference unit (:meth:`Solver.solve_ref`);
* :func:`solver_for` — the only place a method string is mapped to a
  solver (or rejected);
* :func:`run_units` — memo plan → solve → finish for any executor.  The
  executor is a ``refs -> {uid: RefResult}`` callable: the serial loop
  below, the process pool (:class:`repro.parallel.ParallelEngine`) or the
  daemon's thread pool (:class:`repro.serve.engine.AnalysisEngine`);
* :func:`solve_misses` — the serial driver (or the process pool for
  ``jobs != 1``) behind ``find_misses``, ``estimate_misses``,
  ``region_misses`` and :func:`repro.analysis.analyze`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro import obs
from repro.cme.backend import make_classifier
from repro.cme.result import MissReport, RefResult
from repro.reuse.generator import build_reuse_table

if TYPE_CHECKING:  # repro.memo imports repro.cme.result — keep this lazy
    from repro.iteration.walker import Walker
    from repro.layout.cache import CacheConfig
    from repro.layout.memory import MemoryLayout
    from repro.memo import Memoizer
    from repro.normalize.nprogram import NormalizedProgram, NRef
    from repro.reuse.generator import ReuseTable

#: method -> (report name, span, unit module, unit function, sampled).
_TABLE = {
    "estimate": ("EstimateMisses", "cme/estimate",
                 "repro.cme.estimate", "estimate_ref_misses", True),
    "find": ("FindMisses", "cme/find",
             "repro.cme.find", "find_ref_misses", False),
    "regions": ("RegionMisses", "cme/regions",
                "repro.cme.regions", "region_ref_misses", False),
}

#: The selectable CME solvers (CLI ``--method`` choices, serve ``method``).
METHODS = tuple(_TABLE)

#: An executor: solves ``refs`` and returns ``{uid: RefResult}`` in order.
SolveRefs = Callable[[list], dict[int, RefResult]]


@dataclass(frozen=True)
class Solver:
    """One CME method with its sampling parameters (picklable).

    ``confidence``, ``width`` and ``seed`` only matter when ``sampled``.
    """

    method: str
    report_name: str
    span: str
    unit_module: str
    unit_name: str
    sampled: bool
    confidence: float = 0.95
    width: float = 0.05
    seed: int = 0

    def memo_params(self, ref: "NRef") -> list:
        """The memo-key parameters of ``ref``: ``[]``, or
        ``[confidence, width, seed ^ uid]`` for the sampled solver (so warm
        replays are bit-identical to the sampling run that produced them)."""
        if not self.sampled:
            return []
        return [self.confidence, self.width, self.seed ^ ref.uid]

    def solve_ref(
        self, classifier, nprog: "NormalizedProgram", ref: "NRef"
    ) -> RefResult:
        """Solve one reference with this method's per-reference unit.

        The unit is looked up by name on every call, so a wrapper
        installed on its module attribute (a tracer, a profiler) sees
        every unit, whichever executor runs it.
        """
        unit = getattr(import_module(self.unit_module), self.unit_name)
        if self.sampled:
            return unit(
                classifier, nprog, ref, self.confidence, self.width, self.seed
            )
        return unit(classifier, nprog, ref)


def solver_for(
    method: str, confidence: float = 0.95, width: float = 0.05, seed: int = 0
) -> Solver:
    """The :class:`Solver` of ``method``; unknown names raise ``ValueError``."""
    row = _TABLE.get(method)
    if row is None:
        raise ValueError(
            f"unknown method {method!r}; use one of {', '.join(METHODS)}"
        )
    return Solver(method, *row, confidence, width, seed)


def run_units(
    solver: Solver,
    nprog: "NormalizedProgram",
    layout: "MemoryLayout",
    cache: "CacheConfig",
    reuse: "ReuseTable",
    targets: list,
    memo: Optional["Memoizer"],
    solve_refs: SolveRefs,
) -> MissReport:
    """Plan ``targets`` through ``memo``, solve with ``solve_refs``, finish.

    Without a memoizer every target is solved.  With one, only the plan's
    representatives are; the replays are filled in and ``report.memo``
    carries the plan's ``{hits, misses, store_hits}``.  Timing fields are
    left to the caller, which knows what its wall clock covers.
    """
    plan = None
    if memo is not None:
        plan = memo.session(solver, nprog, layout, cache, reuse).plan(targets)
        targets = plan.solve
    report = MissReport(solver.report_name, cache)
    report.results = solve_refs(targets)
    if plan is not None:
        for ref in plan.solve:
            plan.add(ref, report.results[ref.uid])
        report.results = plan.finish(report.results)
        report.memo = {
            "hits": plan.replays,
            "misses": len(plan.solve),
            "store_hits": plan.store_hits,
        }
    return report


def solve_misses(
    solver: Solver,
    nprog: "NormalizedProgram",
    layout: "MemoryLayout",
    cache: "CacheConfig",
    reuse: Optional["ReuseTable"] = None,
    walker: Optional["Walker"] = None,
    refs: Optional[Iterable["NRef"]] = None,
    jobs: int = 1,
    memo: Optional["Memoizer"] = None,
    backend: Optional[str] = None,
) -> MissReport:
    """Solve ``refs`` (default: every reference) with ``solver``.

    ``jobs != 1`` shards the references across a process pool (``0`` or
    negative = all CPUs) with an identical report; ``memo`` and
    ``backend`` are as in :func:`repro.analysis.analyze`.
    """
    started = time.perf_counter()
    if reuse is None:
        reuse = build_reuse_table(nprog, cache.line_bytes)
    targets = list(refs) if refs is not None else list(nprog.refs)
    if jobs != 1:
        from repro.parallel import ParallelEngine

        with ParallelEngine(
            nprog, layout, cache, reuse, jobs, memo, backend
        ) as engine:
            return engine.solve(solver, targets)
    classifier = make_classifier(backend, nprog, layout, cache, reuse, walker)

    def solve_refs(todo: list) -> dict[int, RefResult]:
        return {r.uid: solver.solve_ref(classifier, nprog, r) for r in todo}

    with obs.span(solver.span):
        report = run_units(
            solver, nprog, layout, cache, reuse, targets, memo, solve_refs
        )
    report.elapsed_seconds = time.perf_counter() - started
    report.solver_seconds = report.elapsed_seconds
    if obs.is_enabled():
        report.metrics = obs.snapshot()
    return report
