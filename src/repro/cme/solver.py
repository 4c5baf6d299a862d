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
* :func:`solve_misses` — memo plan → guarded serial loop → finish, the
  one driver behind ``find_misses``, ``estimate_misses``,
  ``region_misses``, :func:`repro.analysis.analyze` and the daemon's
  :class:`repro.serve.engine.AnalysisEngine`, which passes its cached
  classifier and a per-unit guard.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro import obs
from repro.cme.backend import make_classifier
from repro.cme.result import MissReport, RefResult
from repro.reuse.generator import build_reuse_table
from repro.stats.confidence import check_fraction

if TYPE_CHECKING:  # repro.memo imports repro.cme.result — keep this lazy
    from repro.cme.batch import BatchClassifier
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

#: Entered around each serial unit: ``guard(ref)`` returns a context manager.
UnitGuard = Callable[["NRef"], AbstractContextManager]


def _no_guard(ref: "NRef") -> AbstractContextManager:
    return nullcontext()


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

    def decision_key(
        self, classifier: "BatchClassifier", ref: "NRef"
    ) -> Optional[tuple]:
        """The store key the unit keeps ``ref``'s decisions under, or
        ``None``: the unit module's ``decision_key``, which builds it
        where the unit stores its entries (a module without one keeps no
        decisions).  It runs ahead of the unit, so it only peeks."""
        keyer = getattr(import_module(self.unit_module), "decision_key", None)
        if keyer is None:
            return None
        if self.sampled:
            return keyer(
                classifier, ref, self.confidence, self.width, self.seed
            )
        return keyer(classifier, ref)

    def solve_ref(
        self, classifier, nprog: "NormalizedProgram", ref: "NRef"
    ) -> RefResult:
        """Solve one reference with this method's per-reference unit.

        The unit is looked up by name on every call, so a wrapper
        installed on its module attribute (a tracer, a profiler) sees
        every unit, whichever caller runs it.
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
    """The :class:`Solver` of ``method``.

    Unknown names raise ``ValueError``, and so do, for the sampled method,
    a ``confidence`` or ``width`` outside (0, 1) — before any unit runs.
    """
    row = _TABLE.get(method)
    if row is None:
        raise ValueError(
            f"unknown method {method!r}; use one of {', '.join(METHODS)}"
        )
    solver = Solver(method, *row, confidence, width, seed)
    if solver.sampled:
        check_fraction("confidence", confidence)
        check_fraction("width", width)
    return solver


def solve_misses(
    solver: Solver,
    nprog: "NormalizedProgram",
    layout: "MemoryLayout",
    cache: "CacheConfig",
    reuse: Optional["ReuseTable"] = None,
    walker: Optional["Walker"] = None,
    refs: Optional[Iterable["NRef"]] = None,
    memo: Optional["Memoizer"] = None,
    classifier: Optional["BatchClassifier"] = None,
    unit_guard: UnitGuard = _no_guard,
) -> MissReport:
    """Solve ``refs`` (default: every reference) with ``solver``.

    Without a memoizer every reference is solved.  With one, the references
    are planned through it first and only the plan's representatives are
    solved; the replays are filled in and ``report.memo`` carries the
    plan's ``{hits, misses, store_hits}``.  Each unit classifies with
    ``classifier`` (built here when ``None``) inside ``unit_guard(ref)``:
    the daemon passes its cached classifier and a guard that checks the
    request deadline and takes the state's lock.  Inside the first unit's
    guard the classifier is handed every unit's decision key, so it
    answers the replacement windows of the decisions an earlier geometry
    stored in one query (:meth:`BatchClassifier.query_windows`).
    """
    started = time.perf_counter()
    if reuse is None:
        reuse = build_reuse_table(nprog, cache.line_bytes)
    targets = list(refs) if refs is not None else list(nprog.refs)
    if classifier is None:
        classifier = make_classifier(nprog, layout, cache, reuse, walker)
    with obs.span(solver.span):
        plan = None
        if memo is not None:
            plan = memo.session(solver, nprog, layout, cache, reuse).plan(
                targets
            )
            targets = plan.solve
        report = MissReport(solver.report_name, cache)
        for i, ref in enumerate(targets):
            with unit_guard(ref):
                if not i:
                    classifier.query_windows(
                        [solver.decision_key(classifier, r) for r in targets]
                    )
                report.results[ref.uid] = solver.solve_ref(
                    classifier, nprog, ref
                )
        if plan is not None:
            for ref in plan.solve:
                plan.add(ref, report.results[ref.uid])
            report.results = plan.finish(report.results)
            report.memo = {
                "hits": plan.replays,
                "misses": len(plan.solve),
                "store_hits": plan.store_hits,
            }
    report.elapsed_seconds = time.perf_counter() - started
    report.solver_seconds = report.elapsed_seconds
    if obs.is_enabled():
        report.metrics = obs.snapshot()
    return report
