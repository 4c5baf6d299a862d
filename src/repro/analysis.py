"""High-level façade: prepare once, then analyse or simulate.

This module wires the full pipeline of Fig. 7 together:

    Program  ──inline──► flat body ──normalise──► loop tree
             ──layout──► base addresses ──walker──► access order
             ──reuse──► vectors ──CME──► FindMisses / EstimateMisses
                                  └────► cache simulator (validation)

Typical use::

    from repro import CacheConfig, analyze, prepare, run_simulation
    prepared = prepare(program)
    cache = CacheConfig.kb(32, 32, assoc=2)
    report = analyze(prepared, cache)                 # EstimateMisses
    exact = analyze(prepared, cache, method="find")   # FindMisses
    sim = run_simulation(prepared, cache)             # LRU simulator
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, TYPE_CHECKING, Union

from repro import obs
from repro.ir.nodes import Program
from repro.ir.stats import ProgramStats, program_stats
from repro.inline.abstract_inline import InlineResult, inline_program
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout, layout_for_refs
from repro.normalize.nprogram import NormalizedProgram
from repro.normalize.pipeline import normalize
from repro.iteration.walker import Walker
from repro.reuse.generator import ReuseOptions, ReuseTable, build_reuse_table
from repro.cme.result import MissReport
from repro.cme.solver import solve_misses, solver_for
from repro.sim.simulator import (
    HierarchyReport,
    SimReport,
    simulate,
    simulate_hierarchy,
)

if TYPE_CHECKING:  # repro.memo imports repro.cme — keep this lazy
    from repro.memo import Memoizer


@dataclass
class PreparedProgram:
    """A program taken through inlining, normalisation and layout.

    Reuse tables and the compiled walker are cached so that sweeping cache
    configurations (the paper's direct/2-way/4-way columns) re-uses all the
    front-end work.  Each reuse table also carries the classifier's
    geometry-free decisions (:mod:`repro.cme.decisions`): the
    ``EstimateMisses`` samples, the cold equations, the window ends and the
    line trace, so a later geometry with the same line size only solves
    its replacement windows.
    """

    program: Program
    inline_result: InlineResult
    nprog: NormalizedProgram
    layout: MemoryLayout
    walker: Walker
    _reuse_cache: dict = field(default_factory=dict, repr=False)

    def reuse_table(
        self, line_bytes: int, options: Optional[ReuseOptions] = None
    ) -> ReuseTable:
        """The reuse table for a given line size (cached)."""
        key = (line_bytes, options)
        table = self._reuse_cache.get(key)
        if table is None:
            table = build_reuse_table(self.nprog, line_bytes, options)
            self._reuse_cache[key] = table
        return table

    def stats(self) -> ProgramStats:
        """Table 5 statistics of the source program."""
        return program_stats(self.program)


def prepare(
    program: Program,
    entry: Optional[str] = None,
    align: int = 32,
    pad_bytes: Union[int, Mapping[str, int]] = 0,
    model_stack: bool = False,
    on_non_analysable: str = "raise",
) -> PreparedProgram:
    """Run the front half of the pipeline (inline, normalise, lay out).

    ``align``/``pad_bytes`` control the memory layout — padding exploration
    is one of the paper's motivating applications.
    """
    with obs.span("prepare/inline"):
        inlined = inline_program(
            program,
            entry=entry,
            on_non_analysable=on_non_analysable,
            model_stack=model_stack,
        )
    with obs.span("prepare/normalise"):
        nprog = normalize(inlined.flat, name=program.name)
    with obs.span("prepare/layout"):
        declared = list(program.all_arrays())
        if inlined.stack_array is not None:
            declared.append(inlined.stack_array)
        layout = layout_for_refs(
            nprog.refs, declared_order=declared, align=align, pad_bytes=pad_bytes
        )
        walker = Walker(nprog, layout)
    return PreparedProgram(program, inlined, nprog, layout, walker)


def _as_prepared(target: Union[Program, PreparedProgram]) -> PreparedProgram:
    if isinstance(target, PreparedProgram):
        return target
    return prepare(target)


def analyze(
    target: Union[Program, PreparedProgram],
    cache: CacheConfig,
    method: str = "estimate",
    confidence: float = 0.95,
    width: float = 0.05,
    seed: int = 0,
    reuse_options: Optional[ReuseOptions] = None,
    jobs: int = 1,
    memo: Optional["Memoizer"] = None,
) -> MissReport:
    """Predict the cache behaviour analytically.

    ``method`` selects the solver: ``"estimate"`` (statistical sampling at
    the paper's default c = 95%, w = 0.05), ``"find"`` (exhaustive, exact
    when reuse information is complete) and ``"regions"`` (regional
    decomposition — classifications equal to ``"find"`` with solve time
    independent of the loop bounds wherever closed-form certificates
    apply).
    ``jobs`` shards the per-reference work across worker processes
    (``1`` = serial, ``0``/negative = all CPUs); the report is identical
    for every job count.  ``memo`` (a :class:`repro.memo.Memoizer`) enables
    content-addressed memoization of per-reference solutions — in-run
    dedup, and cross-run persistence when the memoizer carries a store.
    Reports are bit-identical across jobs and memoization.
    """
    solver = solver_for(method, confidence, width, seed)
    prepared = _as_prepared(target)
    return solve_misses(
        solver,
        prepared.nprog,
        prepared.layout,
        cache,
        reuse=prepared.reuse_table(cache.line_bytes, reuse_options),
        walker=prepared.walker,
        jobs=jobs,
        memo=memo,
    )


def run_simulation(
    target: Union[Program, PreparedProgram],
    cache: CacheConfig,
    policy: Optional[str] = None,
    seed: int = 0,
    l2_cache: Optional[CacheConfig] = None,
    l2_policy: Optional[str] = None,
) -> Union[SimReport, HierarchyReport]:
    """Run the trace-driven cache simulator on the whole program.

    ``policy`` picks the replacement policy
    (:data:`repro.sim.POLICIES`; default LRU) and ``seed`` feeds the
    random policy's victim draw.  With ``l2_cache``, a two-level
    hierarchy is simulated — the L1 miss stream replays through the L2 —
    and a :class:`~repro.sim.simulator.HierarchyReport` is returned
    (``l2_policy`` defaults to ``policy``).
    """
    prepared = _as_prepared(target)
    if l2_cache is not None:
        return simulate_hierarchy(
            prepared.nprog,
            prepared.layout,
            cache,
            l2_cache,
            walker=prepared.walker,
            policy=policy,
            l2_policy=l2_policy,
            seed=seed,
        )
    return simulate(
        prepared.nprog,
        prepared.layout,
        cache,
        walker=prepared.walker,
        policy=policy,
        seed=seed,
    )
