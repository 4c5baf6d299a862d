"""Canonical structural keys for per-reference CME analysis units.

A key must capture *everything* the per-reference solvers read, so that two
references with equal keys provably receive identical ``RefResult`` tallies:

* the reference's **interference span** — the contiguous run of top-level
  nests from the earliest producer of any of its reuse vectors through its
  own nest.  ``Walker.walk_between`` only ever visits accesses between the
  producer and consumer positions, so nests outside the span can never
  enter a reuse window of the reference;
* the **structure** of every nest in the span: loop bounds, IF guards and
  the ordered references of every statement (array strides, element sizes,
  subscripts, read/write kind) — with loop variables replaced by positional
  dimension indices and nests identified by their *offset inside the span*,
  which is what makes keys invariant under loop-variable renaming and the
  reordering of independent nests;
* the **memory placement** of every storage root used in the span,
  expressed relative to the span's smallest base rounded down to a multiple
  of ``num_sets * line_bytes`` — translating the whole layout by a whole
  number of cache extents changes no line/set relationship, so such
  translations share keys;
* the reference's own **reuse vectors** in solver order (the generator's
  global extents can differ between otherwise identical spans, so the
  vectors are part of the key rather than re-derived from it);
* the **cache geometry** ``(C, Ls, k)``.

``EstimateMisses`` keys additionally carry ``(confidence, width,
seed ^ ref.uid)`` — the per-reference RNG seed — so warm replays are
bit-identical to the sampling run that produced them.

Keys deliberately do *not* hash the solver implementation; that is the job
of :func:`code_fingerprint`, which the persistent store records once per
file so a solver change invalidates every stored entry at load time.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from typing import Callable, Optional, Sequence

from repro.errors import AnalysisError
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NLeaf, NLoop, NormalizedProgram, NRef
from repro.polyhedra.affine import Affine
from repro.polyhedra.constraints import EQ, ConstraintSet
from repro.reuse.generator import ReuseTable

#: Version tag hashed into every key; bump on any change to the key layout.
KEY_SCHEMA = "repro.memo.key/1"

#: Modules whose source code determines solver outcomes — every module the
#: per-reference units and the classifiers import from the solver
#: packages, plus the simulator's trace builder, which builds the batch
#: classifier's window index.  The persistent store stamps their combined hash into its
#: header: editing any of them (including this module) invalidates every
#: stored entry.
FINGERPRINT_MODULES = (
    "repro.cme.backend",
    "repro.cme.batch",
    "repro.cme.decisions",
    "repro.cme.point",
    "repro.cme.find",
    "repro.cme.estimate",
    "repro.cme.regions",
    "repro.cme.result",
    "repro.cme.solver",
    "repro.iteration.batch",
    "repro.iteration.walker",
    "repro.iteration.position",
    "repro.polyhedra.affine",
    "repro.polyhedra.batch",
    "repro.polyhedra.constraints",
    "repro.polyhedra.regions",
    "repro.polyhedra.space",
    "repro.polyhedra.intsolve",
    "repro.reuse.generator",
    "repro.reuse.ugs",
    "repro.reuse.vectors",
    "repro.sim.batch",
    "repro.stats.confidence",
    "repro.layout.cache",
    "repro.layout.memory",
    "repro.memo.key",
)

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the source of every solver-relevant module (cached).

    Sources are located, not imported, so fingerprinting loads none of the
    solver modules.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        h = hashlib.sha256()
        for name in FINGERPRINT_MODULES:
            with open(importlib.util.find_spec(name).origin, "rb") as fh:
                h.update(name.encode())
                h.update(b"\0")
                h.update(fh.read())
                h.update(b"\0")
        _fingerprint_cache = h.hexdigest()
    return _fingerprint_cache


def _affine_doc(expr: Affine) -> list:
    """``[const, [[dim, coeff], ...]]`` with positional dimension indices."""
    terms = []
    for name, coeff in expr.coeffs.items():
        if not name.startswith("I"):
            raise AnalysisError(f"unexpected variable {name!r} in {expr}")
        terms.append([int(name[1:]) - 1, coeff])
    terms.sort()
    return [expr.constant, terms]


def _guard_doc(guard: ConstraintSet) -> list:
    """Order-canonical guard document (conjunction order is irrelevant)."""
    return sorted(
        [0 if c.kind == EQ else 1, _affine_doc(c.expr)] for c in guard
    )


class KeyBuilder:
    """Computes canonical keys for the references of one analysis state.

    One builder is bound to a ``(NormalizedProgram, MemoryLayout,
    CacheConfig, ReuseTable)`` quadruple — exactly the state a solver run is
    bound to — and caches span documents and per-reference fragments, so
    sweeping all references of a program costs one structural walk per
    distinct interference span.
    """

    def __init__(
        self,
        nprog: NormalizedProgram,
        layout: MemoryLayout,
        cache: CacheConfig,
        reuse: ReuseTable,
    ):
        self.nprog = nprog
        self.layout = layout
        self.cache = cache
        self.reuse = reuse
        self._ord2idx = {root.ordinal: i for i, root in enumerate(nprog.roots)}
        self._set_span = cache.num_sets * cache.line_bytes
        self._geometry = [cache.size_bytes, cache.line_bytes, cache.assoc]
        self._span_docs: dict[tuple[int, int], list] = {}
        self._locators: dict[int, list] = {}
        self._fragments: dict[int, str] = {}

    # -- canonical structure ---------------------------------------------------

    def _locator(self, ref: NRef) -> list:
        """``[sibling-index path below the root, lexpos]`` — the position of
        a reference inside its own nest, independent of ordinal numbering."""
        loc = self._locators.get(ref.uid)
        if loc is None:
            label = ref.leaf.label
            path: list[int] = []
            node = self.nprog.loop_at(label[:1])
            for d in range(1, len(label)):
                child = self.nprog.loop_at(label[: d + 1])
                path.append(node.loops.index(child))
                node = child
            loc = [path, ref.lexpos]
            self._locators[ref.uid] = loc
        return loc

    def _ref_doc(self, ref: NRef, storage_idx: Callable) -> list:
        array = ref.array
        return [
            "R",
            storage_idx(array),
            array.element_size,
            list(array.strides()),
            [_affine_doc(s) for s in ref.subscripts],
            1 if ref.is_write else 0,
        ]

    def _leaf_doc(self, leaf: NLeaf, storage_idx: Callable) -> list:
        return [
            "S",
            _guard_doc(leaf.guard),
            [self._ref_doc(r, storage_idx) for r in leaf.refs],
        ]

    def _loop_doc(self, loop: NLoop, storage_idx: Callable) -> list:
        return [
            "L",
            _affine_doc(loop.lower),
            _affine_doc(loop.upper),
            [self._loop_doc(c, storage_idx) for c in loop.loops],
            [self._leaf_doc(l, storage_idx) for l in loop.leaves],
        ]

    def _span_doc(self, first: int, last: int) -> list:
        """Structure + relative placement of the nests ``roots[first..last]``."""
        doc = self._span_docs.get((first, last))
        if doc is not None:
            return doc
        storages: list = []
        index: dict[int, int] = {}

        def storage_idx(array) -> int:
            root = array.storage()
            i = index.get(id(root))
            if i is None:
                i = len(storages)
                index[id(root)] = i
                storages.append(root)
            return i

        roots = [
            self._loop_doc(r, storage_idx)
            for r in self.nprog.roots[first : last + 1]
        ]
        bases = [self.layout.base_of(a) for a in storages]
        rebase = (min(bases) // self._set_span) * self._set_span if bases else 0
        doc = [roots, [b - rebase for b in bases]]
        self._span_docs[(first, last)] = doc
        return doc

    # -- keys -----------------------------------------------------------------

    def fragment(self, ref: NRef) -> str:
        """The method-independent structural JSON fragment of ``ref``."""
        frag = self._fragments.get(ref.uid)
        if frag is None:
            c_idx = self._ord2idx[ref.label[0]]
            first = c_idx
            vectors = []
            for rv in self.reuse.vectors_for(ref):
                p_idx = self._ord2idx[rv.producer.label[0]]
                first = min(first, p_idx)
                vectors.append(
                    [
                        list(rv.vec),
                        rv.kind,
                        c_idx - p_idx,
                        self._locator(rv.producer),
                    ]
                )
            doc = [
                KEY_SCHEMA,
                self._geometry,
                self._span_doc(first, c_idx),
                self._locator(ref),
                vectors,
            ]
            frag = json.dumps(doc, separators=(",", ":"))
            self._fragments[ref.uid] = frag
        return frag

    def key(self, ref: NRef, method: str, params: Sequence = ()) -> str:
        """The content hash of ``ref``'s analysis unit.

        ``params`` carries the solver inputs outside the structural fragment
        — empty for ``FindMisses``, ``(confidence, width, seed ^ uid)`` for
        ``EstimateMisses``.
        """
        head = json.dumps([method, list(params)], separators=(",", ":"))
        return hashlib.sha256((head + self.fragment(ref)).encode()).hexdigest()
