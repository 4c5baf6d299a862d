"""Differential-testing harness: analytical solvers vs the LRU simulator.

The harness generates randomized small programs spanning the shapes the
paper's model must handle (strided scans, inter-nest reuse, 2-D stencils,
triangular and guarded spaces) paired with randomized cache geometries, and
diffs the two analytical solvers against the trace-driven
:class:`~repro.sim.cache.SetAssocLRUCache` ground truth:

* **FindMisses leg** — for *uniform* families (every reference uniformly
  generated, canonical offset patterns) the per-reference miss counts must
  match simulation **exactly**; for irregular families (random offsets,
  guards) the model may only **over-estimate**, per reference, never
  under-estimate.
* **EstimateMisses leg** — the estimator approximates ``FindMisses``, so
  for every *sampled* reference the normal-approximation confidence
  interval around the sampled miss ratio must contain the exhaustive miss
  ratio (up to the nominal confidence level: a bounded fraction of
  intervals may miss), and exhaustively analysed references must match
  ``FindMisses`` exactly.

Everything is seeded: a failing case can be reproduced from its
``Case.name`` alone.

The scalar oracles live here too: :func:`scalar_results` solves each
reference on the pure-Python ``PointClassifier``
(:mod:`tests.cme.scalar_oracle`),
and :func:`scalar_simulate` (with its trace and hierarchy siblings) runs
the walker simulator, so every suite diffs the production
paths against the same reference implementations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ir import Program, ProgramBuilder
from repro.layout import CacheConfig, layout_for_refs
from repro.normalize import normalize
from repro.cme import MissReport, estimate_misses, find_misses
from repro.reuse import build_reuse_table
from repro.sim import simulate
from repro.sim import simulator as _simulator
from repro.sim.policy import resolve_policy
from repro.stats import wilson_interval
from tests.cme.scalar_oracle import PointClassifier

#: Cache geometries the generator samples from (size KB, line bytes, assoc).
GEOMETRIES = [
    (1, 16, 1),
    (1, 32, 1),
    (1, 32, 2),
    (2, 32, 1),
    (2, 32, 4),
    (2, 64, 2),
    (4, 32, 2),
    (4, 64, 4),
]

#: Alignments for the memory layout (1024 packs arrays one cache apart).
ALIGNS = [32, 64, 1024]


@dataclass
class Case:
    """One randomized program/cache-geometry pair."""

    name: str
    program: Program
    cache: CacheConfig
    align: int
    #: True when the family guarantees exact per-reference agreement.
    exact: bool

    def prepared(self):
        nprog = normalize(self.program.main)
        layout = layout_for_refs(
            nprog.refs,
            declared_order=self.program.global_arrays,
            align=self.align,
        )
        return nprog, layout


@dataclass
class DifferentialSummary:
    """Aggregated outcome of one harness run."""

    cases: int = 0
    failures: list[str] = field(default_factory=list)
    sampled_refs: int = 0
    contained_refs: int = 0

    @property
    def containment_rate(self) -> float:
        if self.sampled_refs == 0:
            return 1.0
        return self.contained_refs / self.sampled_refs

    @property
    def ok(self) -> bool:
        return not self.failures


# -- program families -----------------------------------------------------------------


def _gen_scan(rng: random.Random, pb: ProgramBuilder) -> bool:
    """Strided 1-D scans with constant offsets, optionally re-swept."""
    n = rng.randrange(48, 97)
    reps = rng.randrange(1, 3)
    a = pb.array("A", (n + 4,))
    offsets = sorted(rng.sample(range(4), rng.randrange(1, 4)))
    with pb.subroutine("MAIN"):
        with pb.do("T", 1, reps):
            with pb.do("I", 1, n) as i:
                pb.assign(a[i + offsets[0]], *[a[i + o] for o in offsets[1:]])
    return True  # single array, constant 1-D offsets: uniformly generated


def _gen_internest(rng: random.Random, pb: ProgramBuilder) -> bool:
    """Whole-program reuse across separate nests (the paper's pitch)."""
    n = rng.randrange(48, 97)
    # Pad the allocation to an 8-element (= 64B, the largest line) multiple:
    # if distinct arrays shared a memory line, the tail of A would feed
    # cross-array group reuse that no uniformly generated set covers, and
    # the family's exactness claim would not hold.
    size = -(-n // 8) * 8
    a = pb.array("A", (size,))
    b = pb.array("B", (size,))
    with pb.subroutine("MAIN"):
        with pb.do("I", 1, n) as i:
            pb.assign(a[i])
        with pb.do("I", 1, n) as i:
            if rng.random() < 0.5:
                pb.assign(b[i], a[i])
            else:
                pb.read(a[i])
    return True


def _gen_cross_stencil(rng: random.Random, pb: ProgramBuilder) -> bool:
    """2-D cross stencils (|offset| ≤ 1) — the Table 3 exact family."""
    n = rng.randrange(8, 15)
    a = pb.array("A", (n + 2, n + 2))
    b = pb.array("B", (n + 2, n + 2))
    points = rng.sample([(-1, 0), (1, 0), (0, -1), (0, 1), (0, 0)], 3)
    with pb.subroutine("MAIN"):
        with pb.do("J", 2, n + 1) as j:
            with pb.do("I", 2, n + 1) as i:
                pb.assign(b[i, j], *[a[i + di, j + dj] for di, dj in points])
    return True


def _gen_triangular(rng: random.Random, pb: ProgramBuilder) -> bool:
    """Triangular iteration spaces (count-weighted sampling territory)."""
    n = rng.randrange(10, 17)
    a = pb.array("A", (n, n))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, n) as j:
            with pb.do("I", j, n) as i:
                pb.assign(a[i, j])
    return True


def _gen_random_stencil(rng: random.Random, pb: ProgramBuilder) -> bool:
    """Random-offset stencils: reuse vectors may fall outside the generated
    family at boundaries, so only conservatism is guaranteed."""
    n = rng.randrange(8, 13)
    a = pb.array("A", (n + 4, n + 4))
    two = rng.random() < 0.5
    b = pb.array("B", (n + 4, n + 4)) if two else a
    count = rng.randrange(1, 4)
    offsets = set()
    while len(offsets) < count:
        offsets.add((rng.randrange(-2, 3), rng.randrange(-2, 3)))
    with pb.subroutine("MAIN"):
        with pb.do("J", 3, n + 2) as j:
            with pb.do("I", 3, n + 2) as i:
                pb.assign(b[i, j], *[a[i + di, j + dj] for di, dj in offsets])
    return False


def _gen_guarded(rng: random.Random, pb: ProgramBuilder) -> bool:
    """Guarded references (non-convex interference, conservative)."""
    n = rng.randrange(10, 17)
    a = pb.array("A", (n + 2, n + 2))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, n) as j:
            with pb.do("I", 1, n) as i:
                with pb.if_(i.le(j)):
                    pb.assign(a[i, j], a[i, j])
                pb.read(a[j, i])
    return False


def _gen_guarded_multinest(rng: random.Random, pb: ProgramBuilder) -> bool:
    """IF-guarded statements with reuse *across* nests: the guards make the
    interference non-convex (conservative) while the split into separate
    nests exercises cross-nest reuse vectors and multi-root interference
    spans at the same time."""
    n = rng.randrange(10, 17)
    cut = rng.randrange(2, n)
    a = pb.array("A", (n + 2, n + 2))
    b = pb.array("B", (n + 2, n + 2))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, n) as j:
            with pb.do("I", 1, n) as i:
                with pb.if_(i.le(cut)):
                    pb.assign(a[i, j])
                pb.assign(b[i, j])
        with pb.do("J", 1, n) as j:
            with pb.do("I", 1, n) as i:
                with pb.if_(i.ge(cut)):
                    pb.read(a[i, j], b[i, j])
    return False


FAMILIES = [
    ("scan", _gen_scan),
    ("internest", _gen_internest),
    ("cross", _gen_cross_stencil),
    ("tri", _gen_triangular),
    ("randstencil", _gen_random_stencil),
    ("guarded", _gen_guarded),
    ("guardednests", _gen_guarded_multinest),
]


def generate_cases(count: int, seed: int = 20260806) -> list[Case]:
    """Deterministically generate ``count`` program/geometry cases."""
    cases = []
    for k in range(count):
        family, gen = FAMILIES[k % len(FAMILIES)]
        rng = random.Random((seed << 8) ^ k)
        pb = ProgramBuilder(f"D{k}")
        exact = gen(rng, pb)
        size_kb, line, assoc = rng.choice(GEOMETRIES)
        cases.append(
            Case(
                name=f"{family}-{k}/{size_kb}KB:{line}B:{assoc}w",
                program=pb.build(),
                cache=CacheConfig.kb(size_kb, line, assoc),
                align=rng.choice(ALIGNS),
                exact=exact,
            )
        )
    return cases


# -- scalar oracles -------------------------------------------------------------------


def scalar_results(solver, nprog, layout, cache, reuse=None, walker=None) -> dict:
    """``{uid: RefResult}`` of ``solver`` on the scalar ``PointClassifier``.

    The same per-reference unit the production solvers run
    (:meth:`~repro.cme.solver.Solver.solve_ref`), one point at a time: a
    solver report's ``results`` must equal this dict exactly.
    """
    if reuse is None:
        reuse = build_reuse_table(nprog, cache.line_bytes)
    classifier = PointClassifier(nprog, layout, cache, reuse, walker)
    return {r.uid: solver.solve_ref(classifier, nprog, r) for r in nprog.refs}


def scalar_simulate(nprog, layout, cache, policy=None, seed=0):
    """The walker simulator: one access at a time through the set machines."""
    return _simulator._simulate_scalar(
        nprog, layout, cache, None, resolve_policy(policy), seed
    )


def scalar_trace(pairs, cache, refs=None, policy=None, seed=0):
    """Replay explicit ``(ref_uid, address)`` pairs one access at a time."""
    return _simulator._replay_scalar(
        list(pairs), cache, refs, resolve_policy(policy), seed
    )


def scalar_hierarchy(
    nprog, layout, l1_cache, l2_cache, policy=None, l2_policy=None, seed=0,
    miss_trace_path=None,
):
    """The walker-driven two-level hierarchy (L1 misses replay as the L2)."""
    policy = resolve_policy(policy)
    l2_policy = policy if l2_policy is None else resolve_policy(l2_policy)
    return _simulator._hierarchy_scalar(
        nprog, layout, l1_cache, l2_cache, None, policy, l2_policy, seed,
        miss_trace_path,
    )


def force_walker_fallback(monkeypatch) -> None:
    """Send every simulator entry point down its walker fallback — the path
    a trace too large to materialise takes."""
    from repro.sim import batch

    monkeypatch.setattr(batch, "MAX_TRACE_ACCESSES", -1)


def check_policy_bit_identity(
    case: Case,
    policy: str,
    seed: int = 0,
    prepared=None,
) -> list[str]:
    """Diff the walker oracle vs vectorized simulation under one policy.

    Non-LRU policies have no closed-form kernel — the vectorized engine
    replays run heads through the same set machines — so bit-identity
    here checks the run-compression and set-decomposition stages for
    every policy.  ``prepared`` (a ``(nprog, layout)`` pair) lets callers
    amortise normalisation across the per-policy sweeps.  PLRU cases
    with a non-power-of-two associativity are skipped (the policy
    rejects the geometry by contract).
    """
    from repro.sim.policy import check_policy_geometry
    from repro.errors import ReproError

    try:
        check_policy_geometry(policy, case.cache)
    except ReproError:
        return []
    nprog, layout = prepared if prepared is not None else case.prepared()
    scalar = scalar_simulate(nprog, layout, case.cache, policy=policy, seed=seed)
    batch = simulate(nprog, layout, case.cache, policy=policy, seed=seed)
    failures = []
    if batch.accesses != scalar.accesses:
        failures.append(f"{case.name} [{policy}]: access tallies diverge")
    if batch.misses != scalar.misses:
        failures.append(f"{case.name} [{policy}]: miss tallies diverge")
    return failures


# -- the two legs ---------------------------------------------------------------------


def check_find(case: Case) -> list[str]:
    """Diff ``find_misses`` against the simulator; returns failure messages."""
    nprog, layout = case.prepared()
    analytic = find_misses(nprog, layout, case.cache)
    ground = simulate(nprog, layout, case.cache)
    failures = []
    if analytic.total_accesses != ground.total_accesses:
        failures.append(
            f"{case.name}: access counts diverge "
            f"({analytic.total_accesses} vs {ground.total_accesses})"
        )
    for ref in nprog.refs:
        a = analytic.result_for(ref).misses
        s = ground.misses[ref.uid]
        if case.exact and a != s:
            failures.append(
                f"{case.name}: {ref.name()} expected exactly {s} misses, "
                f"FindMisses reported {a}"
            )
        elif a < s:
            failures.append(
                f"{case.name}: {ref.name()} under-estimated "
                f"({a} analytical < {s} simulated)"
            )
    return failures


def check_estimate(
    case: Case,
    summary: DifferentialSummary,
    confidence: float = 0.95,
    width: float = 0.10,
    seed: int = 0,
) -> MissReport:
    """Diff ``estimate_misses`` against ``FindMisses`` (its exact target).

    Sampled references must contain the exhaustive miss ratio in their
    confidence interval (tallied on ``summary`` — the caller asserts the
    rate, since a ``1 - confidence`` fraction of misses is nominal);
    exhaustively-analysed references must match ``FindMisses`` exactly.
    """
    nprog, layout = case.prepared()
    exact = find_misses(nprog, layout, case.cache)
    est = estimate_misses(
        nprog,
        layout,
        case.cache,
        confidence=confidence,
        width=width,
        seed=seed,
    )
    for ref in nprog.refs:
        e = est.result_for(ref)
        x = exact.result_for(ref)
        if e.analysed == e.population:
            if e.misses != x.misses:
                summary.failures.append(
                    f"{case.name}: {ref.name()} analysed exhaustively but "
                    f"disagrees with FindMisses ({e.misses} vs {x.misses})"
                )
            continue
        summary.sampled_refs += 1
        lo, hi = wilson_interval(e.misses, e.analysed, confidence)
        if lo - 1e-9 <= x.miss_ratio <= hi + 1e-9:
            summary.contained_refs += 1
    return est


def run_differential(
    cases: list[Case],
    confidence: float = 0.95,
    width: float = 0.10,
    seed: int = 0,
) -> DifferentialSummary:
    """Run both legs over ``cases``; the caller asserts on the summary."""
    summary = DifferentialSummary()
    for case in cases:
        summary.cases += 1
        summary.failures.extend(check_find(case))
        check_estimate(
            case, summary, confidence=confidence, width=width, seed=seed
        )
    return summary
