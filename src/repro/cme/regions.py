"""``RegionMisses`` — regional CME solving: whole polyhedra, not points.

``FindMisses`` pays per iteration point, so Table 3/6 analysis time grows
with the loop bounds — defeating the paper's "analytical, not simulated"
promise at scale.  This solver classifies whole polyhedral *regions* of each
reference's RIS at once, following the symbolic-locality line of work (Zhu
et al., *Fully Symbolic Analysis of Loop Locality*) on top of the paper's
own machinery:

1. **Decomposition.**  Reuse vectors are tried in the same increasing
   lexicographic order as the point classifier, but over *cells* instead of
   points.  Within a uniformly generated set the producer/consumer address
   difference ``δ = addr_p(i−x) − addr_c(i)`` is a compile-time constant, so
   the cold equations of vector ``x`` are exactly: a conjunction of affine
   constraints (the translated producer RIS) and one residue-interval
   constraint ``(addr_c(i) mod L) ∈ [max(0,−δ), min(L−1, L−1−δ)]``.
   Sequential set difference over these conditions splits the RIS into
   disjoint cells: per vector a *decided* cell plus complement cells that
   continue to the next vector; whatever survives every vector is **cold**
   and is counted in closed form.  A cell is the RIS itself — the
   :class:`~repro.polyhedra.space.BoundedSpace` that
   :meth:`~repro.normalize.nprogram.NormalizedProgram.ris` returns — with
   more conjuncts (:meth:`~repro.polyhedra.space.BoundedSpace.conjoin`),
   so the cells are counted, probed and enumerated by the same class as
   the RIS.  Every conjunct stays an integer row: the translated producer
   conjuncts, their negations and the residue intervals are compiled once
   per reference and line size
   (:class:`~repro.polyhedra.space.RowConstraint`,
   :class:`~repro.polyhedra.space.RowResidue`) and conjoined as they are.

2. **Replacement by residue class.**  A decided cell is classified without
   enumeration when the *replacement-uniformity certificate* holds: the
   reuse vector spans only innermost iterations (zero label part, zero
   outer index components), every leaf of the consumer's innermost loop is
   guard-free, and every reference in those leaves has a constant address
   offset from the consumer.  Then the interference window's line offsets
   are a fixed set of carries ``(a mod L + Δ) // L``, so the outcome is a
   function of ``a mod L`` alone: the cell splits into at most ``L/gcd``
   residue classes, one representative per class is probed with the
   classifier (verifying it is decided by the expected vector), and the
   probed outcome is multiplied by the class's closed-form count.  A
   cell's representatives are probed in one
   :meth:`~repro.cme.batch.BatchClassifier.classify_points` call.

   For **direct-mapped** caches a second certificate covers windows whose
   references are *not* uniformly generated with the consumer (``mmt``'s
   ``A``/``B`` rows against ``C``): with an innermost-only vector over a
   childless loop the window's access list is static (a guarded leaf's
   accesses carry the shifted guard as an affine *presence* condition), and
   with ``k = 1`` replacement is simply "some window access conflicts".
   Each access contributes one conflict condition — writing ``r = a_c mod L``
   and ``Δ_j(i) = addr_j(i) − a_c(i)`` (affine!), the access maps to the
   reused set iff ``(r + Δ_j) mod L·S ∈ [0, L)`` and to the reused *line*
   iff ``0 ≤ r + Δ_j ≤ L−1``.  Both are region constraints, so sequential
   set difference over the window carves the cell into exact REPLACEMENT
   and HIT pieces — every piece still probe-verified before being tallied.

   The pieces are :class:`~repro.polyhedra.space.BoundedSpace` objects
   either way, but a set residue ``mod L·S`` has a period longer than the
   loop range, so counting one symbolically is an enumeration in disguise.
   So while the program's trace fits its materialisation budget
   (:attr:`repro.sim.batch.TracePlan.materialisable`, the budget that
   gates the trace index) the cell is enumerated once, and every piece is
   counted, tested for emptiness and probed on its own rows of those
   points, narrowed one conjunct at a time
   (:func:`~repro.polyhedra.batch.satisfied_array`).  A piece's
   representative is its first row, since the rows are in lexicographic
   order, and :func:`~repro.polyhedra.batch.lexmin_array` keeps the
   descent's probe-budget verdict.  Past the trace budget the pieces are
   counted symbolically.
   The residue-class certificate above stays closed-form.

3. **Fallback.**  Anything irregular — a non-constant ``δ`` (references
   outside the consumer's uniformly generated set), a failed certificate, a
   probe deciding via an unexpected vector — is *enumerated* through the
   classifier (:class:`~repro.cme.batch.BatchClassifier`), merged into
   one residual region per reference.  Fallback changes speed, never
   results: the report is exactly equal to ``FindMisses`` by construction,
   which the 210-case differential suite asserts.

Decomposition reads the line size alone, so a reference's cells are kept
with the other geometry-free facts (:meth:`RegionSolver.decompose`) and
every later geometry with that line size replays them.

Coverage is observable: ``cme.regions.exact_regions`` counts closed-form
units (cold cells and certified residue classes), ``fallback_regions`` the
residual regions (at most one per reference), with ``fallback_cells`` /
``fallback_points`` / ``probe_mismatch`` breaking the residual down.
"""

from __future__ import annotations

import math
from operator import mul, sub
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro import obs
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram, NRef
from repro.polyhedra.affine import Affine
from repro.polyhedra.batch import (
    enumerate_points_array,
    lexmin_array,
    satisfied_array,
)
from repro.polyhedra.constraints import Constraint, EQ, GE
from repro.polyhedra.space import BoundedSpace, RowConstraint, RowResidue
from repro.reuse.generator import ReuseTable
from repro.reuse.vectors import ReuseVector
from repro.cme.find import record_ref_metrics
from repro.cme.result import MissReport, Outcome, RefResult
from repro.cme.solver import solve_misses, solver_for

if TYPE_CHECKING:  # repro.memo imports repro.cme.result — keep this lazy
    from repro.memo import Memoizer

#: Decomposition cap: a reference producing more cells than this sends the
#: remainder to the fallback path (soundness valve against fragmentation).
MAX_CELLS = 512

#: Residue-class probing is capped at this line size — beyond it the class
#: count stops being "a handful per cell" and enumeration wins anyway.
MAX_RESIDUE_MODULUS = 4096

#: Static interference windows longer than this fall back to enumeration
#: (the per-access carving below is linear in the window length).
MAX_WINDOW = 48

#: Crossing windows unroll at most this many iterations per run; the bound
#: is evaluated over the *cell's* tightened box, so thin boundary cells
#: qualify even inside huge loops.  Kept small on purpose: carving cost
#: grows quadratically with the unroll (each access adds a constraint to
#: every surviving piece), so wide crossings enumerate instead.
MAX_CROSS_ITERS = 8

#: Total unrolled access budget of one crossing window.
MAX_CROSS_ACCESSES = 64

#: Cap on live pieces while carving one decided cell by window conflicts.
MAX_PIECES = 512

#: Why a cell was enumerated instead of solved in closed form, one
#: ``cme.regions.fallback.<reason>`` point counter each (they sum to
#: ``cme.regions.fallback_points``):
#:
#: * ``irregular`` — the deciding vector's ``δ`` is not constant;
#: * ``cell_cap`` — the reference produced more than :data:`MAX_CELLS` cells;
#: * ``uncertified`` — no closed-form certificate applies to the vector;
#: * ``window_budget`` — a certificate's shape holds but a cap stopped it
#:   (:data:`MAX_WINDOW`, :data:`MAX_CROSS_ITERS`, :data:`MAX_CROSS_ACCESSES`,
#:   :data:`MAX_PIECES`, :data:`MAX_RESIDUE_MODULUS`);
#: * ``probe_mismatch`` — a representative probe disagreed with the
#:   expected vector or outcome, or none was found within budget;
#: * ``partition_mismatch`` — the pieces failed to tile their cell.
FALLBACK_REASONS = (
    "irregular",
    "cell_cap",
    "uncertified",
    "window_budget",
    "probe_mismatch",
    "partition_mismatch",
)

_REASON_COUNTERS = {r: f"cme.regions.fallback.{r}" for r in FALLBACK_REASONS}

_NEVER = "never"
_REGULAR = "regular"
_IRREGULAR = "irregular"


class RegionSolver:
    """Per-analysis-state regional solver (decompose → count → probe).

    Built once per classifier and cached on it.  Everything it derives
    without reading the number of sets or the associativity — address
    rows, cold conditions, certificates, static windows and each
    reference's decomposition into cells — lives in a dict owned by the
    reuse table (:meth:`ReuseTable.derived`) under the key ``(layout, line
    size)``, so every geometry with that line size and every repeated
    solve of the program share it.  The cells' count memos are caches of
    pure functions, so sharing them needs no lock.  Direct-mapped window
    pieces are counted on the decided cell's points while the trace fits
    its budget (:meth:`_classify_cell_window`).
    """

    def __init__(
        self,
        nprog: NormalizedProgram,
        layout: MemoryLayout,
        cache: CacheConfig,
        reuse: ReuseTable,
        classifier=None,
    ):
        self.nprog = nprog
        self.layout = layout
        self.cache = cache
        self.reuse = reuse
        #: Classifier for probes and fallback enumeration (optional for
        #: the coverage probe of :func:`regional_coverage`).
        self.classifier = classifier
        # Geometry-independent facts, shared through the reuse table.  The
        # values are pure functions of the key, so concurrent solvers
        # publish them with ``setdefault`` and never need a lock.
        facts = reuse.derived((layout, cache.line_bytes))
        self._index = {v: k for k, v in enumerate(nprog.index_vars)}
        self._addr: dict[int, tuple] = facts.setdefault("addr", {})
        self._ris_rows: dict[int, tuple] = facts.setdefault("ris", {})
        self._conds: dict[int, list] = facts.setdefault("conds", {})
        self._cert: dict[tuple[int, int], bool] = facts.setdefault("cert", {})
        self._window: dict[tuple[int, int], Optional[list]] = facts.setdefault(
            "window", {}
        )
        self._cells: dict[int, tuple] = facts.setdefault("cells", {})

    @staticmethod
    def for_classifier(classifier) -> "RegionSolver":
        """The solver bound to (and cached on) a classifier."""
        solver = getattr(classifier, "_region_solver", None)
        if solver is None:
            solver = RegionSolver(
                classifier.nprog,
                classifier.layout,
                classifier.cache,
                classifier.reuse,
                classifier,
            )
            classifier._region_solver = solver
        return solver

    # -- address rows and cold conditions ---------------------------------------

    def _row(self, expr: Affine) -> tuple[tuple[int, ...], int]:
        """``expr`` as an integer coefficient row over ``I1..In``."""
        row = [0] * len(self._index)
        for name, c in expr.terms:
            row[self._index[name]] = c
        return tuple(row), expr.constant

    def _address(self, ref: NRef) -> tuple[tuple[int, ...], int]:
        """``ref``'s byte address as a row and a constant."""
        a = self._addr.get(ref.uid)
        if a is None:
            array = ref.array
            expr = (
                array.element_offset(ref.subscripts) * array.element_size
                + self.layout.base_of(array)
            )
            a = self._addr.setdefault(ref.uid, self._row(expr))
        return a

    def _compiled(self, c: Constraint, shift: Sequence[int]) -> RowConstraint:
        """The constraint ``c`` at ``i + shift``, as a row conjunct."""
        row, const = self._row(c.expr)
        return RowConstraint.make(row, const + sum(map(mul, row, shift)), c.kind)

    def _delta(
        self, other: NRef, ref: NRef, shift: Sequence[int]
    ) -> RowConstraint:
        """``Δ = addr_other(i + shift) − addr_ref(i) >= 0`` as a row
        conjunct over the consumer point ``i``."""
        row, const = self._address(other)
        a_row, a_const = self._address(ref)
        return RowConstraint.make(
            tuple(map(sub, row, a_row)),
            const + sum(map(mul, row, shift)) - a_const,
            GE,
        )

    def _ris_of(self, ref: NRef) -> tuple:
        """``ref``'s RIS as integer rows: ``(constraints, box)``, the
        space's :meth:`~BoundedSpace.conjunct_rows` and its ``(lo, hi)``
        per dimension."""
        rows = self._ris_rows.get(ref.uid)
        if rows is None:
            ris = self.nprog.ris(ref.leaf)
            ranges = ris.var_ranges()
            box = tuple(ranges[v] for v in self.nprog.index_vars)
            rows = self._ris_rows.setdefault(
                ref.uid, (ris.conjunct_rows(), box)
            )
        return rows

    def _producer_spans(self, producer: NRef, ref: NRef) -> list[tuple]:
        """The producer RIS's conjuncts as ``(row, lo, hi, is_eq,
        conjunct)``, ``[lo, hi]`` the range of ``row·i + const`` over the
        consumer's bounding box."""
        producer_cons, _ = self._ris_of(producer)
        _, box = self._ris_of(ref)
        spans = []
        for row, const, kind in producer_cons:
            lo = hi = const
            for c, (b_lo, b_hi) in zip(row, box):
                if c > 0:
                    lo += c * b_lo
                    hi += c * b_hi
                elif c < 0:
                    lo += c * b_hi
                    hi += c * b_lo
            conjunct = RowConstraint.make(row, const, kind)
            spans.append((row, lo, hi, kind == EQ, conjunct))
        return spans

    def _cold_condition(
        self,
        ref: NRef,
        rv: ReuseVector,
        spans: dict[int, list],
        residues: dict[tuple[int, int], RowResidue],
    ):
        """The cold equations of one vector as region constraints.

        Returns ``(kind, conjuncts)`` with ``kind`` one of ``"never"``
        (provably no point satisfies them), ``"regular"`` (affine
        constraints + optional residue interval on the consumer address mod
        the line size) or ``"irregular"`` (non-constant ``δ`` — the
        producer is outside the consumer's uniformly generated set, so the
        line equality is not a residue condition).  ``conjuncts`` pairs
        each kept condition with the disjuncts of its complement, all
        compiled rows: the producer's affine conjuncts and their
        negations, then the residue interval and the one or two intervals
        outside it.

        Computed on integer rows: translating a row by the vector ``x``
        (``i ↦ i − x``) only moves its constant by ``−row·x``.  The
        consumer's vectors share ``spans`` (per producer uid, from
        :meth:`_producer_spans`) and ``residues`` (per interval).
        """
        x = rv.index_part()
        row_c, const_c = self._address(ref)
        row_p, const_p = self._address(rv.producer)
        line_bytes = self.cache.line_bytes
        producer = spans.get(rv.producer.uid)
        if producer is None:
            producer = spans[rv.producer.uid] = self._producer_spans(
                rv.producer, ref
            )
        # Prune against the consumer's bounding box: constraints that are
        # provably true over the whole RIS never split a cell, provably
        # false ones make the vector inapplicable outright.  The translated
        # conjunct ranges over [lo - shift, hi - shift].
        kept: list[tuple] = []
        for row, lo, hi, is_eq, c in producer:
            shift = sum(map(mul, row, x))
            if is_eq:
                if lo == shift == hi:
                    continue
                if lo > shift or hi < shift:
                    return (_NEVER, ())
            else:
                if lo >= shift:
                    continue
                if hi < shift:
                    return (_NEVER, ())
            shifted = RowConstraint(
                row, c.const - shift, c.kind, c.anchor, c.mask
            )
            kept.append((shifted, shifted.negated()))
        if row_p != row_c:
            return (_IRREGULAR, tuple(kept))
        d = const_p - sum(map(mul, row_p, x)) - const_c
        if abs(d) >= line_bytes:
            return (_NEVER, ())
        if d:
            lo_r, hi_r = max(0, -d), min(line_bytes - 1, line_bytes - 1 - d)
            intervals = [(lo_r, hi_r)]
            if lo_r > 0:
                intervals.append((0, lo_r - 1))
            if hi_r < line_bytes - 1:
                intervals.append((hi_r + 1, line_bytes - 1))
            for interval in intervals:
                if interval not in residues:
                    residues[interval] = RowResidue.make(
                        row_c, const_c, line_bytes, *interval
                    )
            inside, *outside = (residues[i] for i in intervals)
            kept.append((inside, tuple(outside)))
        return (_REGULAR, tuple(kept))

    def _conditions(self, ref: NRef) -> list:
        conds = self._conds.get(ref.uid)
        if conds is None:
            spans: dict[int, list] = {}
            residues: dict[tuple[int, int], RowResidue] = {}
            conds = self._conds.setdefault(
                ref.uid,
                [
                    self._cold_condition(ref, rv, spans, residues)
                    for rv in self.reuse.vectors_for(ref)
                ],
            )
        return conds

    # -- the replacement-uniformity certificate ----------------------------------

    def _innermost_shape(self, ref: NRef, rv: ReuseVector) -> bool:
        """True when ``rv`` spans only innermost iterations (zero label
        part, zero outer index components, non-negative innermost step) of
        a consumer loop with no child loops — the window shape both
        innermost certificates start from."""
        if any(l != 0 for l in rv.label_part()):
            return False
        x = rv.index_part()
        if any(c != 0 for c in x[:-1]) or x[-1] < 0:
            return False
        return not self.nprog.loop_at(ref.label).loops

    def _certificate(self, ref: NRef, rv: ReuseVector) -> bool:
        """True when the interference window's outcome is a function of
        ``addr_c(i) mod line_bytes`` alone over any decided cell.

        Conditions: the vector has the innermost shape; every leaf of the
        consumer's innermost loop is guard-free (fixed window content); and
        every reference in those leaves sits at a constant byte offset from
        the consumer (same linear address row).  Then each window access's
        line is ``line_c + (a mod L + Δ) // L`` with constant ``Δ``, so
        distinct-conflict counting is per-residue constant and one probed
        representative decides the whole class.
        """
        if not self._innermost_shape(ref, rv):
            return False
        row_c = self._address(ref)[0]
        for leaf in self.nprog.loop_at(ref.label).leaves:
            if not leaf.guard.is_true():
                return False
            for other in leaf.refs:
                if self._address(other)[0] != row_c:
                    return False
        return True

    def _certified(self, ref: NRef, t: int, rv: ReuseVector) -> bool:
        key = (ref.uid, t)
        ok = self._cert.get(key)
        if ok is None:
            ok = self._cert.setdefault(key, self._certificate(ref, rv))
        return ok

    # -- the direct-mapped window certificate -------------------------------------

    def _window_pairs(
        self, ref: NRef, t: int, rv: ReuseVector
    ) -> Optional[list[tuple[RowConstraint, tuple[RowConstraint, ...]]]]:
        """The static interference window of an innermost-only vector, as
        ``(Δ >= 0, presence guard)`` carving pairs of row conjuncts
        (:meth:`_delta`), in exact walker order.

        ``None`` when the window is not statically known: the vector must
        have the innermost shape and the window must fit
        :data:`MAX_WINDOW`.  A guarded leaf's accesses carry the guard with
        the innermost variable shifted by the access offset — the walker
        evaluates leaf guards per iteration, so the access is present
        exactly where the shifted guard holds at the consumer point.
        Replicates the end filters of ``Walker.walk_between`` — at the
        producer's iteration only later lexical positions qualify, and the
        walk stops at the first position not before the consumer's.
        """
        key = (ref.uid, t)
        if key not in self._window:
            self._window.setdefault(key, self._compute_window(ref, rv))
        return self._window[key]

    def _compute_window(
        self, ref: NRef, rv: ReuseVector
    ) -> Optional[list[tuple[RowConstraint, tuple[RowConstraint, ...]]]]:
        if not self._innermost_shape(ref, rv):
            return None
        step = rv.index_part()[-1]
        loop = self.nprog.loop_at(ref.label)
        producer_lex = rv.producer.lexpos
        consumer_lex = ref.lexpos
        pairs: list[tuple[RowConstraint, tuple[RowConstraint, ...]]] = []
        for offset in range(-step, 1):
            shift = (0,) * (self.nprog.depth - 1) + (offset,)
            for leaf in loop.leaves:
                guard = tuple(self._compiled(c, shift) for c in leaf.guard)
                for other in leaf.refs:
                    if offset == -step and other.lexpos <= producer_lex:
                        continue
                    if offset == 0 and other.lexpos >= consumer_lex:
                        return pairs
                    pairs.append((self._delta(other, ref, shift), guard))
                    if len(pairs) > MAX_WINDOW:
                        return None
        return pairs

    # -- the crossing-window certificate (one second-innermost step) ---------------

    def _crossing_shape(self, ref: NRef, rv: ReuseVector) -> bool:
        """True when ``rv`` steps the second-innermost level exactly once.

        Shape: zero label part, index part ``(0, …, 0, 1, s)`` — the window
        then spans the tail of the previous second-innermost iteration plus
        the head of the current one, with no complete intermediate loop
        executions.  Requires the consumer's innermost loop to be the *only*
        child of its parent, so no sibling subtree intervenes.
        """
        n = self.nprog.depth
        if n < 2:
            return False
        if any(l != 0 for l in rv.label_part()):
            return False
        x = rv.index_part()
        if any(c != 0 for c in x[:-2]) or x[-2] != 1:
            return False
        loop = self.nprog.loop_at(ref.label)
        if loop.loops:
            return False
        parent = self.nprog.loop_at(ref.label[:-1])
        return len(parent.loops) == 1 and not parent.leaves

    def _crossing_pairs(
        self, ref: NRef, rv: ReuseVector, cell: BoundedSpace
    ) -> Optional[list[tuple[RowConstraint, tuple[RowConstraint, ...]]]]:
        """Unrolled ``(Δ >= 0, guard)`` pairs for a second-innermost
        crossing.

        The window runs from the producer at ``(…, i₍ₙ₋₁₎−1, iₙ−s)`` to the
        consumer at ``(…, i₍ₙ₋₁₎, iₙ)``: the rest of the previous inner run
        and the head of the current one.  Both run lengths are bounded over
        the *cell* (not the loop bounds — the cell's thinness comes from the
        negated conditions of earlier reuse vectors), so when the cell's
        tightened box keeps them under :data:`MAX_CROSS_ITERS` the window
        unrolls into pinned accesses whose presence guards are the inner
        bounds.  Returns ``None`` when the shape or budget does not hold.
        """
        if not self._crossing_shape(ref, rv):
            return None
        nvars = self.nprog.index_vars
        outer, inner = nvars[-2], nvars[-1]
        s = rv.index_part()[-1]
        loop = self.nprog.loop_at(ref.label)
        ub_prev = loop.upper.substitute({outer: Affine.var(outer) - 1})
        lb_cur = loop.lower
        p_inner = Affine.var(inner) - s
        box = cell.tight_ranges()
        w1 = (ub_prev - p_inner).bounds(box)[1]
        w2 = (Affine.var(inner) - lb_cur).bounds(box)[1]
        if w1 < 0 or w2 < 0:
            return None  # box contradicts producer/consumer containment
        per_iter = sum(len(leaf.refs) for leaf in loop.leaves)
        if w1 > MAX_CROSS_ITERS or w2 > MAX_CROSS_ITERS:
            return None
        if (w1 + w2 + 2) * per_iter > MAX_CROSS_ACCESSES:
            return None
        producer_lex = rv.producer.lexpos
        consumer_lex = ref.lexpos
        outer_shift = (0,) * (self.nprog.depth - 2)
        pairs: list[tuple[RowConstraint, tuple[RowConstraint, ...]]] = []
        # Tail of the previous inner run: u = iₙ − s + ω at outer − 1.
        for omega in range(0, w1 + 1):
            shift = outer_shift + (-1, omega - s)
            presence: tuple[RowConstraint, ...] = ()
            if omega:  # the producer iteration itself is in-bounds by cold
                presence = (
                    self._compiled(
                        Constraint.inequality(ub_prev - (p_inner + omega)), ()
                    ),
                )
            for leaf in loop.leaves:
                guard = presence + tuple(
                    self._compiled(c, shift) for c in leaf.guard
                )
                for other in leaf.refs:
                    if omega == 0 and other.lexpos <= producer_lex:
                        continue
                    pairs.append((self._delta(other, ref, shift), guard))
        # Head of the current inner run: u = iₙ − ω (ω = 0 is the consumer's
        # own iteration, cut at the consumer's lexical position).
        for omega in range(0, w2 + 1):
            shift = outer_shift + (0, -omega)
            presence = ()
            if omega:
                presence = (
                    self._compiled(
                        Constraint.inequality(
                            (Affine.var(inner) - omega) - lb_cur
                        ),
                        (),
                    ),
                )
            for leaf in loop.leaves:
                guard = presence + tuple(
                    self._compiled(c, shift) for c in leaf.guard
                )
                for other in leaf.refs:
                    if omega == 0 and other.lexpos >= consumer_lex:
                        continue
                    pairs.append((self._delta(other, ref, shift), guard))
        return pairs

    def _classify_cell_window(
        self,
        ref: NRef,
        cell: BoundedSpace,
        cell_count: int,
        rv: ReuseVector,
        pairs: list[tuple[RowConstraint, tuple[RowConstraint, ...]]],
        result: RefResult,
        points: Optional[np.ndarray],
    ) -> tuple[int, Optional[str]]:
        """Carve a decided cell into exact HIT/REPLACEMENT pieces (k = 1).

        ``pairs`` gives each window access as ``(Δ >= 0, presence guard)``
        row conjuncts, ``Δ = addr_access − addr_consumer`` affine in the
        consumer point.
        Splits the cell by consumer residue ``r = a_c mod L``, then applies
        each access's conflict condition by sequential set difference (a
        guarded access first splits off the guard-false part, where the
        access never executes and the region simply survives).  Tallies only
        after the pieces tile the cell exactly and every piece's
        representative probe agrees.  Returns ``(exact pieces, None)``, or
        ``(0, reason)`` to make the caller fall back (nothing tallied).

        ``points`` is the cell enumerated, or ``None``: the pieces are the
        same either way, but with points every test and tally is a count
        of the piece's rows of them (:class:`_Pieces`).
        """
        line_bytes = self.cache.line_bytes
        num_sets = self.cache.num_sets
        modulus = line_bytes * num_sets
        # Duplicate address rows carve the same conflict region.
        deltas = list(dict.fromkeys(pairs))
        carve = _Pieces(cell, points)
        classes = self._residue_classes(ref, carve)
        if sum(cnt for _, _, cnt in classes) != cell_count:
            obs.counter("cme.regions.partition_mismatch").inc()
            return 0, "partition_mismatch"
        replacement: list[tuple] = []
        hits: list[tuple] = []
        for cls, r, _ in classes:
            survivors = [cls]
            for up, guard in deltas:
                # Same line iff 0 <= Δ + r <= L-1; a conflict is either
                # side's complement.
                shifted = up.const + r
                down = up.negated()[0]
                same_line = (
                    up._replace(const=shifted),
                    down._replace(const=(line_bytes - 1) - shifted),
                )
                conflicts = tuple(c.negated()[0] for c in same_line)
                nxt: list[tuple] = []
                for region in survivors:
                    if len(nxt) + len(replacement) > MAX_PIECES:
                        return 0, "window_budget"
                    # A guarded access splits off the part of the region
                    # where its guard fails — the access never executes
                    # there, so that part survives untouched.
                    present = region
                    for c in guard:
                        for fails in c.negated():
                            absent = carve.conjoin(present, fails)
                            if carve.count(absent):
                                nxt.append(absent)
                        present = carve.conjoin(present, c)
                        if carve.count(present) == 0:
                            break
                    if carve.count(present) == 0:
                        continue
                    in_set = (
                        present
                        if modulus == line_bytes
                        else carve.conjoin(
                            present,
                            RowResidue.make(
                                up.row, shifted, modulus, 0, line_bytes - 1
                            ),
                        )
                    )
                    if carve.count(in_set) == 0:
                        nxt.append(present)  # never maps to the reused set
                        continue
                    if modulus > line_bytes:
                        out_set = carve.conjoin(
                            present,
                            RowResidue.make(
                                up.row, shifted, modulus, line_bytes,
                                modulus - 1,
                            ),
                        )
                        if carve.count(out_set):
                            nxt.append(out_set)
                    same = carve.conjoin(
                        carve.conjoin(in_set, same_line[0]), same_line[1]
                    )
                    if carve.count(same):
                        nxt.append(same)
                    for conflict in conflicts:
                        piece = carve.conjoin(in_set, conflict)
                        if carve.count(piece):
                            replacement.append(piece)
                survivors = nxt
            hits.extend(survivors)
        if (
            sum(map(carve.count, replacement)) + sum(map(carve.count, hits))
            != cell_count
        ):
            obs.counter("cme.regions.partition_mismatch").inc()
            return 0, "partition_mismatch"
        expected = [Outcome.REPLACEMENT] * len(replacement)
        expected += [Outcome.HIT] * len(hits)
        reps = []
        for piece in replacement + hits:
            rep = carve.representative(piece)
            if rep is None:  # no representative within the probe budget
                break
            reps.append(rep)
        probes = self.classifier.classify_points(ref, reps)
        for probe, outcome in zip(probes, expected):
            if probe.outcome is not outcome or not self._via_matches(
                probe.via, rv
            ):
                obs.counter("cme.regions.probe_mismatch").inc()
                return 0, "probe_mismatch"
        if len(reps) < len(expected):
            return 0, "probe_mismatch"
        for piece in replacement:
            cnt = carve.count(piece)
            result.analysed += cnt
            result.replacement += cnt
        for piece in hits:
            cnt = carve.count(piece)
            result.analysed += cnt
            result.hits += cnt
        return len(replacement) + len(hits), None

    def _residue_classes(self, ref: NRef, carve: "_Pieces") -> list[tuple]:
        """The non-empty ``(class, r, count)`` splits of ``carve``'s cell
        by ``a_c mod L = r`` (only residues ``a_c`` can take are tried),
        each class a piece of ``carve``."""
        line_bytes = self.cache.line_bytes
        a_row, a_const = self._address(ref)
        g = math.gcd(line_bytes, *a_row)
        classes = []
        for r in range(a_const % g, line_bytes, g):
            residue = RowResidue.make(a_row, a_const, line_bytes, r, r)
            cls = carve.conjoin(carve.whole, residue)
            cnt = carve.count(cls)
            if cnt:
                classes.append((cls, r, cnt))
        return classes

    # -- decomposition ------------------------------------------------------------

    def decompose(
        self, ref: NRef
    ) -> tuple[
        list[BoundedSpace],
        list[tuple[BoundedSpace, int]],
        list[tuple[BoundedSpace, str]],
    ]:
        """Split the RIS into disjoint ``(cold, decided, irregular)`` cells.

        ``decided`` pairs each cell with the index of the reuse vector that
        decides every one of its points — by construction the cell satisfies
        the negation of every earlier regular cold condition, so the
        classifier would pick exactly that vector at any of its points.
        ``irregular`` pairs each cell left to enumeration with its fallback
        reason (``"irregular"`` or ``"cell_cap"``).

        Reads the line size but not the number of sets or the
        associativity, so :meth:`solve_ref` keeps the result in the shared
        facts and every later geometry with this line size replays it.
        """
        vectors = self.reuse.vectors_for(ref)
        conds = self._conditions(ref)
        cold: list[BoundedSpace] = []
        decided: list[tuple[BoundedSpace, int]] = []
        irregular: list[tuple[BoundedSpace, str]] = []
        work: list[tuple[BoundedSpace, int]] = [(self.nprog.ris(ref.leaf), 0)]
        produced = 1
        while work:
            cell, t = work.pop()
            if cell.count() == 0:
                continue
            if t == len(vectors):
                cold.append(cell)
                continue
            kind, cons = conds[t]
            if kind == _NEVER:
                work.append((cell, t + 1))
                continue
            if kind == _IRREGULAR:
                irregular.append((cell, "irregular"))
                continue
            prefix = cell
            pieces: list[BoundedSpace] = []
            for c, negs in cons:
                for neg in negs:
                    pieces.append(prefix.conjoin(neg))
                prefix = prefix.conjoin(c)
            if prefix.count() == 0:
                # The vector decides nothing here: keep the cell whole
                # instead of fragmenting it over a vacuous condition.
                work.append((cell, t + 1))
                continue
            produced += len(pieces) + 1
            if produced > MAX_CELLS:
                irregular.append((cell, "cell_cap"))
                continue
            decided.append((prefix, t))
            for piece in pieces:
                work.append((piece, t + 1))
        return cold, decided, irregular

    # -- per-reference solving ------------------------------------------------------

    @staticmethod
    def _via_matches(via: Optional[ReuseVector], rv: ReuseVector) -> bool:
        if via is rv:
            return True
        return (
            via is not None
            and via.vec == rv.vec
            and via.producer is rv.producer
            and via.consumer is rv.consumer
        )

    def _classify_cell(
        self,
        ref: NRef,
        cell: BoundedSpace,
        cell_count: int,
        rv: ReuseVector,
        result: RefResult,
        fallback: "_Fallback",
    ) -> int:
        """Residue-split a certified decided cell and probe each class.

        Returns the number of exact classes; the rest go to ``fallback``.
        The probed outcome of one representative is extrapolated to the
        whole class only after the probe confirms it was decided by the
        expected vector (mismatches are counted and enumerated instead).
        """
        classes = [
            (space, r, cnt)
            for (space, _), r, cnt in self._residue_classes(ref, _Pieces(cell))
        ]
        if sum(cnt for _, _, cnt in classes) != cell_count:
            obs.counter("cme.regions.partition_mismatch").inc()
            fallback.add(cell, "partition_mismatch")
            return 0
        reps = [cls.representative() for cls, _, _ in classes]
        probes = iter(
            self.classifier.classify_points(
                ref, [r for r in reps if r is not None]
            )
        )
        exact = 0
        for (cls, _, cnt), rep in zip(classes, reps):
            probe = None if rep is None else next(probes)
            if probe is None or not self._via_matches(probe.via, rv):
                if probe is not None:
                    obs.counter("cme.regions.probe_mismatch").inc()
                fallback.add(cls, "probe_mismatch")
                continue
            result.analysed += cnt
            if probe.outcome is Outcome.REPLACEMENT:
                result.replacement += cnt
            else:
                result.hits += cnt
            exact += 1
        return exact

    def _classify_decided(
        self,
        ref: NRef,
        cell: BoundedSpace,
        cnt: int,
        t: int,
        result: RefResult,
        fallback: "_Fallback",
    ) -> int:
        """Classify one decided cell in closed form where a certificate
        holds; returns the number of exact units, the rest go to
        ``fallback``."""
        rv = self.reuse.vectors_for(ref)[t]
        certified = self._certified(ref, t, rv)
        if certified and self.cache.line_bytes <= MAX_RESIDUE_MODULUS:
            return self._classify_cell(ref, cell, cnt, rv, result, fallback)
        direct = self.cache.assoc == 1
        if (
            direct
            and self.cache.line_bytes * self.cache.num_sets
            <= MAX_RESIDUE_MODULUS
        ):
            pairs = self._window_pairs(ref, t, rv)
            if pairs is None:
                pairs = self._crossing_pairs(ref, rv, cell)
            if pairs is not None:
                # Within the trace budget the pieces are counted on the
                # cell's points: faster than symbolic counting on every
                # workload measured, up to loop ranges 16x a set
                # residue's period (DESIGN.md section 14).
                points = (
                    enumerate_points_array(cell)
                    if self.classifier.plan().materialisable
                    else None
                )
                exact, reason = self._classify_cell_window(
                    ref, cell, cnt, rv, pairs, result, points
                )
                if reason is None:
                    return exact
                fallback.add(cell, reason, points)
                return 0
        # A certificate's shape holds but one of its caps stopped it, or
        # no certificate applies to this vector at all.
        shaped = certified or (
            direct
            and (
                self._innermost_shape(ref, rv)
                or self._crossing_shape(ref, rv)
            )
        )
        fallback.add(cell, "window_budget" if shaped else "uncertified")
        return 0

    def solve_ref(self, ref: NRef) -> RefResult:
        """Classify one reference regionally (the shard unit)."""
        with obs.span("cme/region_ref"):
            ris = self.nprog.ris(ref.leaf)
            population = ris.count()
            result = RefResult(ref.name(), ref.uid, population=population)
            cells = self._cells.get(ref.uid)
            if cells is None:
                with obs.span("cme/regions/decompose"):
                    cells = self._cells.setdefault(
                        ref.uid, self.decompose(ref)
                    )
            cold, decided, irregular = cells
            capped = sum(why == "cell_cap" for _, why in irregular)
            if capped:
                obs.counter("cme.regions.cell_cap").inc(capped)
            cold_counts = [(c, c.count()) for c in cold]
            decided_counts = [(c, t, c.count()) for c, t in decided]
            irregular_counts = [(c, c.count(), why) for c, why in irregular]
            total = (
                sum(n for _, n in cold_counts)
                + sum(n for _, _, n in decided_counts)
                + sum(n for _, n, _ in irregular_counts)
            )
            if total != population:
                # The cells failed to tile the RIS — never guess: classify
                # the whole space through the classifier instead.
                obs.counter("cme.regions.partition_mismatch").inc()
                cold_counts, decided_counts = [], []
                irregular_counts = [(ris, population, "partition_mismatch")]
            exact_regions = 0
            fallback = _Fallback()
            for cell, cnt in cold_counts:
                if cnt == 0:
                    continue
                result.analysed += cnt
                result.cold += cnt
                exact_regions += 1
            for cell, t, cnt in decided_counts:
                if cnt:
                    exact_regions += self._classify_decided(
                        ref, cell, cnt, t, result, fallback
                    )
            for cell, cnt, why in irregular_counts:
                if cnt:
                    fallback.add(cell, why)
            points = fallback.points()
            if len(points):
                self.classifier.tally_ref(ref, result, points)
            result.check_invariants(exhaustive=True)
            obs.counter("cme.regions.exact_regions").inc(exact_regions)
            obs.counter("cme.regions.fallback_regions").inc(
                1 if len(points) else 0
            )
            obs.counter("cme.regions.fallback_cells").inc(fallback.cells)
            obs.counter("cme.regions.fallback_points").inc(len(points))
            for reason, n in fallback.by_reason.items():
                obs.counter(_REASON_COUNTERS[reason]).inc(n)
            record_ref_metrics(result, self.classifier)
        return result


class _Fallback:
    """The cells of one reference left to the point classifier, each
    enumerated as an int64 array, with the points per fallback reason."""

    def __init__(self):
        self.arrays: list[np.ndarray] = []
        self.cells = 0
        self.by_reason = dict.fromkeys(FALLBACK_REASONS, 0)

    def add(
        self,
        cell: BoundedSpace,
        reason: str,
        pts: Optional[np.ndarray] = None,
    ) -> None:
        """Add ``cell``, enumerating it unless ``pts`` already holds its
        points."""
        if pts is None:
            pts = enumerate_points_array(cell)
        self.arrays.append(pts)
        self.cells += 1
        self.by_reason[reason] += len(pts)

    def points(self) -> np.ndarray:
        """Every fallback point, cell after cell, as one array."""
        if not self.arrays:
            return np.empty((0, 0), dtype=np.int64)
        return np.concatenate(self.arrays)


class _Pieces:
    """The pieces carved out of one decided cell, as ``(space, rows)``.

    ``space`` is the piece as a :class:`BoundedSpace`, built by the same
    :meth:`~BoundedSpace.conjoin` steps, one compiled conjunct each,
    whether or not the cell was enumerated.  ``rows`` indexes the
    piece's points among the cell's, ascending, or is ``None`` without
    them.  With points, a piece is counted and its representative found on
    its rows; without, its space is counted and descended symbolically.
    Both give the same numbers: the rows are exactly the space's points.
    Each narrowing tests only the piece's own rows, and live pieces are
    disjoint, so the rows of all of them together take O(cell) memory.
    """

    def __init__(self, cell: BoundedSpace, points: Optional[np.ndarray] = None):
        self.points = points
        rows = None if points is None else np.arange(len(points))
        #: The cell itself, as a piece.
        self.whole = (cell, rows)

    def conjoin(self, piece: tuple, conjunct) -> tuple:
        """``piece`` with one more compiled affine or residue conjunct."""
        space, rows = piece
        if rows is not None:
            rows = rows[satisfied_array(conjunct, self.points[rows])]
        return space.conjoin(conjunct), rows

    @staticmethod
    def count(piece: tuple) -> int:
        space, rows = piece
        return space.count() if rows is None else len(rows)

    def representative(self, piece: tuple) -> Optional[tuple[int, ...]]:
        """:meth:`BoundedSpace.representative` of the piece's space."""
        space, rows = piece
        if rows is None:
            return space.representative()
        return lexmin_array(space, self.points, rows)


def region_ref_misses(
    classifier, nprog: NormalizedProgram, ref: NRef
) -> RefResult:
    """Classify one reference regionally (the per-reference unit).

    Mirrors :func:`repro.cme.find.find_ref_misses`: the solver state is
    cached on the classifier, so repeated calls share decompositions.
    """
    return RegionSolver.for_classifier(classifier).solve_ref(ref)


def regional_coverage(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    reuse: ReuseTable,
) -> float:
    """Fraction of (consumer, vector) pairs solvable in closed form.

    A cheap static probe — no decomposition, no counting — used by the
    layout-optimisation searches to pick the cheapest inner solver:
    ``regions`` when the program is fully regular, ``estimate`` otherwise.
    A pair counts as covered when its cold condition is provably never
    satisfiable, or is regular *and* carries a closed-form certificate
    (replacement uniformity, or the direct-mapped static window).  1.0 for
    programs with no reuse vectors at all.
    """
    solver = RegionSolver(nprog, layout, cache, reuse)
    windowable = (
        cache.assoc == 1
        and cache.line_bytes * cache.num_sets <= MAX_RESIDUE_MODULUS
    )
    total = covered = 0
    for ref in nprog.refs:
        conds = solver._conditions(ref)
        for t, rv in enumerate(reuse.vectors_for(ref)):
            total += 1
            kind = conds[t][0]
            if kind == _NEVER:
                covered += 1
            elif kind == _REGULAR and (
                solver._certified(ref, t, rv)
                or (
                    windowable
                    and (
                        solver._window_pairs(ref, t, rv) is not None
                        or solver._crossing_shape(ref, rv)
                    )
                )
            ):
                covered += 1
    return 1.0 if total == 0 else covered / total


def region_misses(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    reuse: Optional[ReuseTable] = None,
    walker=None,
    refs: Optional[Iterable[NRef]] = None,
    memo: Optional["Memoizer"] = None,
) -> MissReport:
    """Classify every reference by regional decomposition (``--method regions``).

    Parameters mirror :func:`~repro.cme.find.find_misses` and the report is
    exactly equal to its (``FindMisses``) classifications — regions is an
    execution strategy, not an approximation.  ``memo`` enables
    content-addressed memoization of per-reference region solutions (keyed
    under the ``regions`` method, like point solutions).
    """
    return solve_misses(
        solver_for("regions"), nprog, layout, cache, reuse, walker, refs, memo,
    )
