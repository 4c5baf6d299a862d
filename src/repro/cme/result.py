"""Result containers for the miss-equation solvers.

Equality contract
-----------------

:class:`MissReport` equality compares **classifications only** — the
``method``, ``cache`` and per-reference tallies.  Everything observational
(``elapsed_seconds``, ``solver_seconds``, ``metrics``, ``memo``) is
declared ``compare=False``: those fields describe *how* a run happened,
never *what* it computed.  This is what lets the differential tests assert
that memoized, observed and daemon reports equal the plain offline one
bit-identically while each run still carries its own timings and metrics
snapshot.

Timing contract
---------------

All timing fields are measured with :func:`time.perf_counter` — the
monotonic, high-resolution clock — and are therefore only meaningful as
*differences within one process*; they are never wall-clock timestamps.
The throughput property :attr:`MissReport.points_per_second` derives
from the same clock, so it is internally consistent even across pauses or
clock adjustments that would skew ``time.time()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from repro.errors import InvariantError
from repro.layout.cache import CacheConfig
from repro.normalize.nprogram import NRef
from repro.reuse.vectors import ReuseVector


class Outcome(Enum):
    """Classification of one access."""

    HIT = "hit"
    COLD = "cold-miss"
    REPLACEMENT = "replacement-miss"

    @property
    def is_miss(self) -> bool:
        """True for either kind of miss."""
        return self is not Outcome.HIT


@dataclass(frozen=True)
class Classification:
    """The outcome of one access plus the reuse vector that decided it."""

    outcome: Outcome
    via: Optional[ReuseVector] = None


@dataclass
class RefResult:
    """Per-reference outcome tallies.

    ``analysed`` is the number of classified points (all of the RIS for
    ``FindMisses``, the sample size for ``EstimateMisses``); ``population``
    is the RIS volume the tallies are scaled to.
    """

    ref_name: str
    ref_uid: int
    population: int
    analysed: int = 0
    cold: int = 0
    replacement: int = 0
    hits: int = 0

    def check_invariants(self, exhaustive: bool = False) -> "RefResult":
        """Assert the structural tally invariants; returns ``self``.

        Every solver must satisfy ``cold + replacement + hits ==
        analysed``, and an exhaustive solve (``FindMisses``) additionally
        ``analysed == population``.  A violation means a classifier
        mis-counted, so it raises
        :class:`~repro.errors.InvariantError` rather than letting a wrong
        tally propagate into a report.
        """
        if self.cold + self.replacement + self.hits != self.analysed:
            raise InvariantError(
                f"{self.ref_name}: cold({self.cold}) + "
                f"replacement({self.replacement}) + hits({self.hits}) "
                f"!= analysed({self.analysed})"
            )
        if exhaustive and self.analysed != self.population:
            raise InvariantError(
                f"{self.ref_name}: exhaustive solve analysed "
                f"{self.analysed} of {self.population} points"
            )
        return self

    @property
    def misses(self) -> int:
        """Misses among the analysed points."""
        return self.cold + self.replacement

    @property
    def miss_ratio(self) -> float:
        """``(|CM_R| + |RM_R|) / |S(R)|`` (Fig. 6)."""
        return self.misses / self.analysed if self.analysed else 0.0

    @property
    def estimated_misses(self) -> float:
        """Miss count scaled from the sample to the full RIS.

        Exact (an int-valued float) when the whole RIS was analysed.
        """
        if self.analysed == self.population:
            return float(self.misses)
        return self.miss_ratio * self.population


@dataclass
class MissReport:
    """Aggregate analysis outcome for a program.

    Timing and observability metadata (``elapsed_seconds``,
    ``solver_seconds``, ``metrics``, ``memo``) are excluded from equality:
    two reports are equal when their classifications agree, with or
    without memoization or observability.  See the module docstring for
    the full contract.
    """

    method: str
    cache: CacheConfig
    results: dict[int, RefResult] = field(default_factory=dict)
    #: Wall-clock duration of the whole solve, measured with
    #: ``time.perf_counter`` (monotonic).
    elapsed_seconds: float = field(default=0.0, compare=False)
    #: ``perf_counter`` time spent solving; equals ``elapsed_seconds``.
    solver_seconds: float = field(default=0.0, compare=False)
    #: Observability snapshot (``repro.obs`` schema document) taken at the
    #: end of the solve when observability was enabled, else ``None``.
    #: Excluded from equality and ``repr`` — it can only ever describe a
    #: run, not change its outcome.
    metrics: Optional[dict] = field(default=None, compare=False, repr=False)
    #: Memo accounting of this solve's plan — ``{hits, misses,
    #: store_hits}`` — or ``None`` when the solve was not memoized.
    memo: Optional[dict] = field(default=None, compare=False, repr=False)

    def result_for(self, ref: NRef) -> RefResult:
        """The per-reference result of ``ref``."""
        return self.results[ref.uid]

    @property
    def total_accesses(self) -> int:
        """Total population (the full trace length)."""
        return sum(r.population for r in self.results.values())

    @property
    def total_misses(self) -> float:
        """Estimated total misses (exact for ``FindMisses``)."""
        return sum(r.estimated_misses for r in self.results.values())

    @property
    def analysed_points(self) -> int:
        """Number of points actually classified."""
        return sum(r.analysed for r in self.results.values())

    @property
    def miss_ratio(self) -> float:
        """The loop-nest miss ratio of Fig. 6 (population weighted)."""
        total = self.total_accesses
        return self.total_misses / total if total else 0.0

    @property
    def points_per_second(self) -> float:
        """Classification throughput over the wall-clock solve time."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.analysed_points / self.elapsed_seconds

    @property
    def miss_ratio_percent(self) -> float:
        """Miss ratio as a percentage (the paper's unit)."""
        return 100.0 * self.miss_ratio

    def breakdown(self) -> dict[str, float]:
        """Cold/replacement/hit totals scaled to populations."""
        cold = replacement = hits = 0.0
        for r in self.results.values():
            if r.analysed:
                scale = r.population / r.analysed
                cold += r.cold * scale
                replacement += r.replacement * scale
                hits += r.hits * scale
        return {"cold": cold, "replacement": replacement, "hits": hits}

    def worst_refs(self, limit: int = 10) -> list[RefResult]:
        """References ordered by estimated miss count, worst first."""
        ordered = sorted(
            self.results.values(), key=lambda r: r.estimated_misses, reverse=True
        )
        return ordered[:limit]


def compare_reports(analytical: MissReport, simulated) -> dict[str, float]:
    """Paper-style comparison record: miss ratios and the absolute error.

    ``simulated`` is a :class:`~repro.sim.SimReport`; the returned absolute
    error is in percentage points (the paper's "Abs. Error" columns).
    """
    return {
        "analytical_percent": analytical.miss_ratio_percent,
        "simulated_percent": simulated.miss_ratio_percent,
        "abs_error": abs(
            analytical.miss_ratio_percent - simulated.miss_ratio_percent
        ),
        "analysis_seconds": analytical.elapsed_seconds,
        "simulation_seconds": simulated.elapsed_seconds,
        "speedup": (
            simulated.elapsed_seconds / analytical.elapsed_seconds
            if analytical.elapsed_seconds > 0
            else float("inf")
        ),
    }
