"""Pluggable cache replacement policies (the cache-model zoo).

The paper fixes a ``k``-way LRU cache; this module generalises the
simulator to a *policy framework* so the classic sweep questions — hit
rate versus associativity, size and replacement policy — can be asked of
every kernel in the zoo.  Four policies are provided:

``lru``
    Least-recently-used: the paper's model, and the only *stack
    algorithm* of the four — its miss decision has the closed stack-
    distance form the vectorized kernel of :mod:`repro.sim.batch`
    exploits, and it satisfies the **inclusion property** (misses are
    monotonically non-increasing in associativity at fixed set count).
``fifo``
    First-in-first-out: eviction order is *insertion* order; hits do not
    refresh a line.  Not a stack algorithm — it exhibits Belady's
    anomaly (more ways can mean more misses), which the differential
    suite pins with the classic counterexample.
``plru``
    Tree pseudo-LRU: the hardware-practical LRU approximation.  Each set
    keeps ``k - 1`` direction bits arranged as a complete binary tree
    over the ``k`` ways; an access flips the bits on its root-to-leaf
    path *away* from the accessed way, and the victim is found by
    *following* the bits from the root.  Requires a power-of-two
    associativity (the tree must be complete).
``random``
    Seeded random replacement: the victim way is drawn from a
    counter-based splitmix64 mix of ``(seed, set index, eviction
    count)`` — a pure function, so runs are deterministic for a fixed
    seed across simulators, processes and job counts (no RNG stream to
    consume out of order).  The probabilistic analytical twin lives in
    :func:`repro.baselines.probabilistic.probabilistic_misses` with
    ``policy="random"``.

Every policy is exercised through two interchangeable engines — the
scalar per-access state machines below and the run-compressed vectorized
set kernel of :func:`repro.sim.batch.policy_miss_kernel` — which the
per-policy differential matrix asserts are **bit-identical** over the
210-case random-program families.

All four set machines share one behavioural invariant the vectorized
run compression relies on: *immediately re-accessing the line just
accessed is a hit and leaves the set state unchanged* (LRU/PLRU updates
are idempotent on the MRU line; FIFO and random do nothing on hits).
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.errors import ReproError
from repro.layout.cache import CacheConfig

#: The selectable replacement policies.
POLICIES = ("lru", "fifo", "plru", "random")

#: What ``policy=None`` / ``"auto"`` resolve to (the paper's model).
DEFAULT_POLICY = "lru"

_MASK64 = (1 << 64) - 1


def resolve_policy(policy: Optional[str] = None) -> str:
    """Normalise a policy request to one of :data:`POLICIES`.

    ``None`` and ``"auto"`` mean :data:`DEFAULT_POLICY`; unknown names
    raise :class:`~repro.errors.ReproError`.
    """
    if policy is None or policy == "auto":
        return DEFAULT_POLICY
    if policy not in POLICIES:
        raise ReproError(
            f"unknown replacement policy {policy!r}; "
            f"choose one of {', '.join(POLICIES)}"
        )
    return policy


def check_policy_geometry(policy: str, cache: CacheConfig) -> None:
    """Reject policy/geometry pairs the policy cannot express.

    Tree-PLRU needs a *complete* binary tree over the ways, so its
    associativity must be a power of two.
    """
    if policy == "plru" and cache.assoc & (cache.assoc - 1):
        raise ReproError(
            f"tree-PLRU needs a power-of-two associativity, "
            f"got {cache.assoc}"
        )


def count_policy_run(policy: str) -> None:
    """Bump the per-policy simulation counter (``sim.policy.<name>``)."""
    obs.counter("sim.policy." + policy).inc()


def mix_victim(seed: int, set_index: int, evictions: int, assoc: int) -> int:
    """The random policy's victim way — a pure counter-based function.

    A splitmix64-style finaliser over ``(seed, set index, per-set
    eviction count)``.  Because the choice never consumes a shared RNG
    stream, it is independent of access interleaving across sets: the
    scalar walker (which visits sets in trace order) and the vectorized
    kernel (which replays one set at a time) draw identical victims, and
    fixed seeds reproduce across runs and processes.
    """
    x = (
        seed * 0x9E3779B97F4A7C15
        + set_index * 0xBF58476D1CE4E5B9
        + evictions * 0x94D049BB133111EB
        + 0xD1B54A32D192ED03
    ) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x % assoc


# -- per-set state machines -----------------------------------------------------------
#
# Each machine exposes ``access(line) -> bool`` (True on hit) and an
# ``evictions`` tally of resident lines displaced.  Machines are created
# per cache set; the random machine also needs its global set index so
# the victim mix matches between engines.


class LRUSet:
    """LRU stack as an insertion-ordered dict (first key = LRU)."""

    __slots__ = ("assoc", "lines", "evictions")

    def __init__(self, assoc: int, set_index: int = 0, seed: int = 0):
        self.assoc = assoc
        self.lines: dict[int, None] = {}
        self.evictions = 0

    def access(self, line: int) -> bool:
        lines = self.lines
        if line in lines:
            del lines[line]
            lines[line] = None
            return True
        if len(lines) >= self.assoc:
            del lines[next(iter(lines))]
            self.evictions += 1
        lines[line] = None
        return False


class FIFOSet:
    """FIFO queue as an insertion-ordered dict; hits do not refresh."""

    __slots__ = ("assoc", "lines", "evictions")

    def __init__(self, assoc: int, set_index: int = 0, seed: int = 0):
        self.assoc = assoc
        self.lines: dict[int, None] = {}
        self.evictions = 0

    def access(self, line: int) -> bool:
        lines = self.lines
        if line in lines:
            return True
        if len(lines) >= self.assoc:
            del lines[next(iter(lines))]
            self.evictions += 1
        lines[line] = None
        return False


class PLRUSet:
    """Tree pseudo-LRU over ``k`` ways (``k`` a power of two).

    The ``k - 1`` internal nodes of a complete binary tree are packed
    into one integer, heap-ordered (node ``i`` has children ``2i + 1``
    and ``2i + 2``; the leaves below are the ways in order).  Bit ``i``
    names the subtree holding the *next victim*: ``0`` = left, ``1`` =
    right.  Accessing way ``w`` sets every bit on its path to point at
    the sibling subtree; the victim walk simply follows the bits.

    For ``k = 2`` this *is* LRU; for ``k ≥ 4`` it only approximates it
    (the pinned divergence test shows a sequence where PLRU evicts a
    non-LRU line).  ``state()``/``restore()`` round-trip the complete
    per-set state — the encoding is a documented part of the format.
    """

    __slots__ = ("assoc", "ways", "index", "bits", "evictions", "_levels")

    def __init__(self, assoc: int, set_index: int = 0, seed: int = 0):
        if assoc & (assoc - 1):
            raise ReproError(
                f"tree-PLRU needs a power-of-two associativity, got {assoc}"
            )
        self.assoc = assoc
        self.ways: list[Optional[int]] = [None] * assoc
        self.index: dict[int, int] = {}  # line -> way
        self.bits = 0
        self.evictions = 0
        self._levels = assoc.bit_length() - 1  # log2(assoc)

    def _touch(self, way: int) -> None:
        """Point every bit on ``way``'s path away from it."""
        node = 0
        span = self.assoc
        lo = 0
        for _ in range(self._levels):
            span //= 2
            if way < lo + span:  # way is in the left subtree
                self.bits |= 1 << node  # next victim on the right
                node = 2 * node + 1
            else:
                self.bits &= ~(1 << node)  # next victim on the left
                node = 2 * node + 2
                lo += span

    def _victim(self) -> int:
        """Follow the bits from the root to the victim way."""
        node = 0
        span = self.assoc
        lo = 0
        for _ in range(self._levels):
            span //= 2
            if (self.bits >> node) & 1:  # victim on the right
                node = 2 * node + 2
                lo += span
            else:
                node = 2 * node + 1
        return lo

    def access(self, line: int) -> bool:
        way = self.index.get(line)
        if way is not None:
            self._touch(way)
            return True
        # Cold fill into the lowest empty way before any replacement.
        if None in self.ways:
            way = self.ways.index(None)
        else:
            way = self._victim()
            del self.index[self.ways[way]]
            self.evictions += 1
        self.ways[way] = line
        self.index[line] = way
        self._touch(way)
        return False

    def state(self) -> tuple:
        """The complete set state: ``(resident ways tuple, tree bits)``."""
        return tuple(self.ways), self.bits

    def restore(self, state: tuple) -> None:
        """Rebuild the machine from a :meth:`state` snapshot."""
        ways, bits = state
        if len(ways) != self.assoc:
            raise ReproError(
                f"PLRU state holds {len(ways)} ways, set has {self.assoc}"
            )
        self.ways = list(ways)
        self.bits = bits
        self.index = {
            line: way for way, line in enumerate(ways) if line is not None
        }


class RandomSet:
    """Seeded random replacement with a counter-based victim draw."""

    __slots__ = ("assoc", "ways", "index", "evictions", "set_index", "seed")

    def __init__(self, assoc: int, set_index: int = 0, seed: int = 0):
        self.assoc = assoc
        self.ways: list[Optional[int]] = [None] * assoc
        self.index: dict[int, int] = {}
        self.evictions = 0
        self.set_index = set_index
        self.seed = seed

    def access(self, line: int) -> bool:
        if line in self.index:
            return True
        if None in self.ways:
            way = self.ways.index(None)
        else:
            way = mix_victim(
                self.seed, self.set_index, self.evictions, self.assoc
            )
            del self.index[self.ways[way]]
            self.evictions += 1
        self.ways[way] = line
        self.index[line] = way
        return False


SET_MACHINES = {
    "lru": LRUSet,
    "fifo": FIFOSet,
    "plru": PLRUSet,
    "random": RandomSet,
}


class PolicyCache:
    """A set-associative cache under any registered replacement policy.

    The policy-generic twin of
    :class:`~repro.sim.cache.SetAssocLRUCache` (which stays the LRU fast
    path): one per-set state machine per cache set, ``access_line`` /
    ``access_address`` compatible.  A fully-associative configuration
    (``num_sets == 1``) holds exactly one machine.
    """

    __slots__ = ("config", "policy", "seed", "_sets", "_num_sets", "_line_bytes")

    def __init__(self, config: CacheConfig, policy: str = "lru", seed: int = 0):
        self.config = config
        self.policy = resolve_policy(policy)
        check_policy_geometry(self.policy, config)
        self.seed = seed
        self._num_sets = config.num_sets
        self._line_bytes = config.line_bytes
        machine = SET_MACHINES[self.policy]
        assoc = config.assoc
        self._sets = [
            machine(assoc, set_index=s, seed=seed)
            for s in range(self._num_sets)
        ]

    @property
    def evictions(self) -> int:
        """Lines displaced by replacement so far (``sim.evictions``)."""
        return sum(s.evictions for s in self._sets)

    def access_line(self, line: int) -> bool:
        """Touch a memory line; returns True on a hit."""
        return self._sets[line % self._num_sets].access(line)

    def access_address(self, address: int) -> bool:
        """Touch the line containing a byte address; returns True on a hit."""
        return self.access_line(address // self._line_bytes)

    def resident_lines(self) -> set[int]:
        """The set of memory lines currently cached (for tests)."""
        lines: set[int] = set()
        for s in self._sets:
            lines.update(s.index if hasattr(s, "index") else s.lines)
        return lines


def make_cache(config: CacheConfig, policy: Optional[str] = None, seed: int = 0):
    """Build the scalar cache state machine for a policy.

    LRU returns the dict-based :class:`~repro.sim.cache.SetAssocLRUCache`
    (the tuned original — :class:`PolicyCache` with ``"lru"`` is
    bit-identical but a little slower); every other policy returns a
    :class:`PolicyCache`.
    """
    policy = resolve_policy(policy)
    if policy == "lru":
        from repro.sim.cache import SetAssocLRUCache

        return SetAssocLRUCache(config)
    return PolicyCache(config, policy, seed)
