"""Bounded integer spaces: per-dimension affine bounds plus guards.

A :class:`BoundedSpace` represents the set of integer points

    { (v₁, …, vₙ) | lbₖ(v₁..vₖ₋₁) ≤ vₖ ≤ ubₖ(v₁..vₖ₋₁), guard(v₁..vₙ) }

which is exactly the shape of a reference iteration space (RIS, Section 3.3):
normalised loop bounds are affine in the outer indices and IF guards add a
conjunction of affine constraints.

The class provides the polyhedral operations the solvers of Fig. 6 need:

* :meth:`contains` — membership test (used by the cold equations),
* :meth:`count` — the exact number of integer points (the "volume of a RIS"),
* :meth:`enumerate_points` — lexicographic enumeration (``FindMisses``),
* :meth:`sample` — *uniform* sampling of integer points
  (``EstimateMisses``).  A space of constant extent (no guard, every
  level's ``hi − lo`` a constant) draws the whole sample at once in NumPy
  (:func:`repro.polyhedra.batch.sample_points_array`); any other space
  descends the dimensions count-weighted, so triangular and guarded spaces
  are sampled without bias, each level a ``bisect`` into a
  cumulative-weight table cached next to the counts.  Both consume the
  generator identically and return the same points.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

import random
import threading
from bisect import bisect_right

import numpy as np

from repro import obs
from repro.polyhedra.affine import Affine
from repro.polyhedra.constraints import Constraint, ConstraintSet

#: Cross-instance count cache keyed by canonical constraint-system signature.
#: Spaces are built afresh per reference (and per region cell in the regional
#: solver), but structurally identical systems recur constantly — translated
#: producer spaces, residue cells differing only in dead constraints, the
#: same RIS rebuilt in a worker process.  Caching per *signature* rather
#: than per instance means a count is computed once while it stays cached.
_COUNT_CACHE: dict[tuple, int] = {}

#: Entries the count cache keeps; beyond it the oldest are evicted first,
#: so a long-lived process (the daemon) holds at most this many however
#: many distinct programs it analyses.  A whole ``kernels-exact`` pass of
#: ``perfbench`` uses about 2,000.
COUNT_CACHE_CAP = 16_384

_COUNT_CACHE_LOCK = threading.Lock()


def cached_count(signature: tuple, compute: Callable[[], int]) -> int:
    """Return the memoized count for ``signature``, computing on first use.

    Hits are observable as ``polyhedra.count.cache_hits``.
    """
    cached = _COUNT_CACHE.get(signature)
    if cached is not None:
        obs.counter("polyhedra.count.cache_hits").inc()
        return cached
    value = compute()
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE[signature] = value
        while len(_COUNT_CACHE) > COUNT_CACHE_CAP:
            del _COUNT_CACHE[next(iter(_COUNT_CACHE))]
    return value


def count_cache_size() -> int:
    """Number of cached constraint-system counts (for tests/diagnostics)."""
    return len(_COUNT_CACHE)


def clear_count_cache() -> None:
    """Drop every cached count (tests and benchmarks)."""
    with _COUNT_CACHE_LOCK:
        _COUNT_CACHE.clear()


class BoundedSpace:
    """An integer space with per-dimension affine bounds and a guard.

    Parameters
    ----------
    dims:
        Ordered variable names ``(v1, …, vn)``.
    bounds:
        One ``(lower, upper)`` pair of :class:`Affine` per dimension; the
        bounds of dimension ``k`` may reference only ``v1..v(k-1)``.
    guard:
        Extra affine constraints over all dimensions (IF guards).
    """

    def __init__(
        self,
        dims: Sequence[str],
        bounds: Sequence[tuple[Affine, Affine]],
        guard: ConstraintSet | None = None,
    ):
        if len(dims) != len(bounds):
            raise ValueError("one (lower, upper) bound pair required per dimension")
        self.dims = tuple(dims)
        self.bounds = tuple((Affine.coerce(lo), Affine.coerce(hi)) for lo, hi in bounds)
        self.guard = guard if guard is not None else ConstraintSet.true()
        self._n = len(self.dims)
        self._dim_index = {name: k for k, name in enumerate(self.dims)}
        for k, (lo, hi) in enumerate(self.bounds):
            allowed = set(self.dims[:k])
            for expr in (lo, hi):
                extra = expr.variables() - allowed
                if extra:
                    raise ValueError(
                        f"bound {expr} of dimension {self.dims[k]} references "
                        f"non-outer variables {sorted(extra)}"
                    )
        # Assign every guard constraint to the deepest dimension it mentions,
        # so it is checked as soon as that dimension is fixed.
        self._cons_at: list[list[Constraint]] = [[] for _ in range(self._n)]
        self._const_cons: list[Constraint] = []
        for c in self.guard:
            vs = c.variables()
            if not vs:
                self._const_cons.append(c)
                continue
            unknown = vs - set(self.dims)
            if unknown:
                raise ValueError(
                    f"guard {c!r} references unknown variables {sorted(unknown)}"
                )
            level = max(self._dim_index[v] for v in vs)
            self._cons_at[level].append(c)
        # Memoisation keys: the outer variables that still matter at depth d.
        self._memo_vars: list[tuple[str, ...]] = []
        for d in range(self._n + 1):
            relevant: set[str] = set()
            for e in range(d, self._n):
                for expr in self.bounds[e]:
                    relevant |= expr.variables()
                for c in self._cons_at[e]:
                    relevant |= c.variables()
            self._memo_vars.append(
                tuple(v for v in self.dims[:d] if v in relevant)
            )
        # Per-level constant extents ``hi − lo + 1``, or None when a guard
        # or an extent that varies with the outer indices rules them out.
        self._extents: tuple[int, ...] | None = None
        if self.guard.is_true():
            widths = [hi - lo for lo, hi in self.bounds]
            if all(w.is_constant() for w in widths):
                self._extents = tuple(w.constant_value() + 1 for w in widths)
        self._count_memo: dict[tuple, int] = {}
        self._weight_memo: dict[tuple, tuple[list[int], list[int]]] = {}

    # -- basic queries ---------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self._n

    def is_trivially_empty(self) -> bool:
        """True if a constant guard constraint already rules out all points."""
        return any(c.trivially_false() for c in self._const_cons)

    def constant_extents(self) -> tuple[int, ...] | None:
        """Each level's ``hi − lo + 1`` if the space has constant extent.

        A space has constant extent when it has no guard and every level's
        ``hi − lo`` is a constant: rectangular spaces, and tiled ones whose
        bounds translate with the outer indices.  ``None`` otherwise.
        """
        return self._extents

    def constraints_at(self, level: int) -> tuple[Constraint, ...]:
        """The guard constraints anchored at dimension ``level``.

        A constraint is anchored at the deepest dimension it mentions, so
        it becomes checkable as soon as that dimension is fixed — the same
        schedule :meth:`contains`, :meth:`count` and :meth:`enumerate_points`
        use, exposed for the vectorized helpers of
        :mod:`repro.polyhedra.batch`.
        """
        return tuple(self._cons_at[level])

    def contains(self, point: Sequence[int]) -> bool:
        """True if ``point`` (one integer per dimension) lies in the space."""
        if len(point) != self._n:
            return False
        if self.is_trivially_empty():
            return False
        env: dict[str, int] = {}
        for k, value in enumerate(point):
            lo, hi = self.bounds[k]
            if not (lo.evaluate(env) <= value <= hi.evaluate(env)):
                return False
            env[self.dims[k]] = value
            for c in self._cons_at[k]:
                if not c.satisfied(env):
                    return False
        return True

    def var_ranges(self) -> dict[str, tuple[int, int]]:
        """Conservative per-dimension ``(min, max)`` box via interval arithmetic."""
        ranges: dict[str, tuple[int, int]] = {}
        for k, (lo, hi) in enumerate(self.bounds):
            lo_lo, _ = lo.bounds(ranges)
            _, hi_hi = hi.bounds(ranges)
            ranges[self.dims[k]] = (lo_lo, max(lo_lo, hi_hi))
        return ranges

    # -- counting ----------------------------------------------------------------

    def signature(self) -> tuple:
        """A canonical, hashable signature of the constraint system.

        Two spaces with equal signatures contain exactly the same points, so
        counts may be shared across instances (:func:`cached_count`).  The
        guard is a set — constraint order never affects the point set.
        """
        return ("space", self.dims, self.bounds, frozenset(self.guard))

    def count(self) -> int:
        """The exact number of integer points in the space.

        Memoized per instance *and*, keyed by :meth:`signature`, across
        instances (``polyhedra.count.cache_hits``) — repeated region counts
        inside one solve never recompute structurally identical systems.
        """
        if self.is_trivially_empty():
            return 0
        return cached_count(
            self.signature(), lambda: self._count_from(0, {})
        )

    def _count_from(self, d: int, env: dict[str, int]) -> int:
        if d == self._n:
            return 1
        key = (d,) + tuple(env[v] for v in self._memo_vars[d])
        cached = self._count_memo.get(key)
        if cached is not None:
            return cached
        lo = self.bounds[d][0].evaluate(env)
        hi = self.bounds[d][1].evaluate(env)
        total = 0
        if hi >= lo:
            var = self.dims[d]
            cons = self._cons_at[d]
            # Fast path: no guard at this level and the inner count does not
            # depend on this variable -> multiply instead of iterating.
            if not cons and var not in self._memo_vars[d + 1]:
                env[var] = lo
                inner = self._count_from(d + 1, env)
                del env[var]
                total = (hi - lo + 1) * inner
            else:
                for value in range(lo, hi + 1):
                    env[var] = value
                    if all(c.satisfied(env) for c in cons):
                        total += self._count_from(d + 1, env)
                del env[var]
        self._count_memo[key] = total
        return total

    # -- enumeration ---------------------------------------------------------------

    def enumerate_points(self) -> Iterator[tuple[int, ...]]:
        """Yield every integer point in lexicographic order."""
        if self.is_trivially_empty():
            return
        yield from self._enumerate_from(0, {}, [])

    def _enumerate_from(
        self, d: int, env: dict[str, int], prefix: list[int]
    ) -> Iterator[tuple[int, ...]]:
        if d == self._n:
            yield tuple(prefix)
            return
        lo = self.bounds[d][0].evaluate(env)
        hi = self.bounds[d][1].evaluate(env)
        var = self.dims[d]
        cons = self._cons_at[d]
        for value in range(lo, hi + 1):
            env[var] = value
            if all(c.satisfied(env) for c in cons):
                prefix.append(value)
                yield from self._enumerate_from(d + 1, env, prefix)
                prefix.pop()
        env.pop(var, None)

    # -- uniform sampling -------------------------------------------------------------

    def sample(self, n: int, rng: random.Random | None = None) -> np.ndarray:
        """Draw ``n`` points uniformly at random (with replacement).

        Returns an ``(n, ndim)`` int64 array.  Sampling descends the
        dimensions weighting each candidate value by the exact count of the
        subtree below it, which yields an exactly uniform distribution over
        the integer points even for triangular or guarded spaces.  Each
        dimension costs one ``rng.randrange(total)`` and one
        :func:`bisect.bisect_right` into a cumulative-weight table, built
        once per ``(depth, memo key)`` and kept next to the counts; a level
        whose subtree count does not depend on the value needs no table at
        all (``lo + pick // inner``).

        On a space of :meth:`constant_extents` every level's ``randrange``
        bound is a constant, so when ``rng`` is exactly
        :class:`random.Random` and the space holds fewer than ``2**32``
        points the whole sample is drawn at once from the same Mersenne
        Twister words (:func:`repro.polyhedra.batch.sample_points_array`):
        the same points, and the same generator state afterwards, as the
        descent.  Raises ``ValueError`` on an empty space.
        """
        rng = rng if rng is not None else random.Random()
        total = self.count()
        if total == 0:
            raise ValueError("cannot sample from an empty space")
        if (
            self._extents is not None
            and type(rng) is random.Random
            and total < 1 << 32
        ):
            # Imported here: repro.polyhedra.batch imports this module.
            from repro.polyhedra.batch import sample_points_array

            return sample_points_array(self, n, rng)
        points = [self._sample_one(rng) for _ in range(n)]
        return np.array(points, dtype=np.int64).reshape(n, self._n)

    def _sample_one(self, rng: random.Random) -> tuple[int, ...]:
        env: dict[str, int] = {}
        point: list[int] = []
        for d in range(self._n):
            var = self.dims[d]
            if not self._cons_at[d] and var not in self._memo_vars[d + 1]:
                # Every value weighs the same: the k-th value's cumulative
                # weight is (k+1)·inner, so the linear scan's pick is exact.
                lo = self.bounds[d][0].evaluate(env)
                hi = self.bounds[d][1].evaluate(env)
                inner = self._count_from(d + 1, env) if hi >= lo else 0
                if not inner:
                    raise ValueError("cannot sample from an empty space")
                chosen = lo + rng.randrange((hi - lo + 1) * inner) // inner
            else:
                values, cumulative = self._weights(d, env)
                chosen = values[bisect_right(cumulative, rng.randrange(cumulative[-1]))]
            env[var] = chosen
            point.append(chosen)
        return tuple(point)

    def _weights(
        self, d: int, env: dict[str, int]
    ) -> tuple[list[int], list[int]]:
        """Candidate values of dimension ``d`` and their cumulative weights.

        Zero-weight values (guarded out, or with an empty subtree) are
        dropped.  Cached per ``(depth, memo key)`` like :meth:`_count_from`.
        """
        key = (d,) + tuple(env[v] for v in self._memo_vars[d])
        table = self._weight_memo.get(key)
        if table is not None:
            return table
        lo = self.bounds[d][0].evaluate(env)
        hi = self.bounds[d][1].evaluate(env)
        var = self.dims[d]
        cons = self._cons_at[d]
        values: list[int] = []
        cumulative: list[int] = []
        running = 0
        for value in range(lo, hi + 1):
            env[var] = value
            if all(c.satisfied(env) for c in cons):
                w = self._count_from(d + 1, env)
                if w:
                    running += w
                    values.append(value)
                    cumulative.append(running)
        env.pop(var, None)
        if not values:
            raise ValueError("cannot sample from an empty space")
        table = (values, cumulative)
        self._weight_memo[key] = table
        return table

    def __repr__(self) -> str:
        parts = [
            f"{lo} <= {v} <= {hi}"
            for v, (lo, hi) in zip(self.dims, self.bounds)
        ]
        if not self.guard.is_true():
            parts.append(repr(self.guard))
        return "BoundedSpace(" + ", ".join(parts) + ")"
