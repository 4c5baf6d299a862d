"""Cache-geometry exploration — the memory-designer use case.

The paper's introduction names a second consumer besides compilers:
"memory system designers often use cache simulators to evaluate
alternative design options".  :func:`sweep_geometries` produces the
miss-ratio curve over a set of cache configurations analytically, orders of
magnitude cheaper per point than re-simulating the trace, and
:func:`miss_ratio_curve` gives the classic capacity curve (miss ratio vs
cache size at fixed line size and associativity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.analysis import PreparedProgram, analyze, prepare
from repro.ir.nodes import Program
from repro.layout.cache import CacheConfig


@dataclass(frozen=True)
class GeometryPoint:
    """One evaluated cache configuration."""

    cache: CacheConfig
    miss_ratio_percent: float
    analysis_seconds: float


def sweep_geometries(
    target: Union[Program, PreparedProgram],
    caches: Sequence[CacheConfig],
    method: str = "estimate",
    seed: int = 0,
) -> list[GeometryPoint]:
    """Analytical miss ratios over a list of cache configurations.

    The prepared front end (inlining, normalisation, layout, walker) is
    shared across all points; reuse tables, and with them every
    geometry-free decision of the solvers (samples, cold equations, window
    ends, the line trace; :mod:`repro.cme.decisions`), are shared across
    points with equal line sizes, so each further point with a line size
    already seen pays for its replacement windows only.
    """
    prepared = target if isinstance(target, PreparedProgram) else prepare(target)
    points = []
    for cache in caches:
        report = analyze(prepared, cache, method=method, seed=seed)
        points.append(
            GeometryPoint(cache, report.miss_ratio_percent,
                          report.elapsed_seconds)
        )
    return points


def miss_ratio_curve(
    target: Union[Program, PreparedProgram],
    sizes_kb: Sequence[int],
    line_bytes: int = 32,
    assoc: int = 1,
    method: str = "estimate",
    seed: int = 0,
) -> list[GeometryPoint]:
    """The capacity curve: miss ratio as a function of cache size."""
    caches = [CacheConfig.kb(kb, line_bytes, assoc) for kb in sizes_kb]
    return sweep_geometries(target, caches, method=method, seed=seed)
