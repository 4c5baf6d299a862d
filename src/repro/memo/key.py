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

The document is spliced rather than encoded whole.  Its geometry-free
parts — each span's nest structure and absolute storage bases, each
reference's span bounds and ``locator, vectors`` tail — are encoded once
per (reuse table, layout) and kept in ``reuse.derived((layout,
"memo.key"))``; each :class:`KeyBuilder` adds only what its geometry
decides, the ``[C, Ls, k]`` header and every span's rebased placements.
The spliced text is byte-identical to ``json.dumps(doc, separators=(",",
":"))`` of the whole document, so keys do not depend on how they were
assembled.

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
from repro.reuse.vectors import SPATIAL, TEMPORAL

#: Version tag hashed into every key; bump on any change to the key layout.
KEY_SCHEMA = "repro.memo.key/1"

#: Modules whose source code determines solver outcomes — every module the
#: per-reference units and the classifier import from the solver
#: packages, plus the simulator's trace builder, which builds the
#: classifier's window index.  The persistent store stamps their combined
#: hash into its header: editing any of them (including this module)
#: invalidates every stored entry.
FINGERPRINT_MODULES = (
    "repro.cme.backend",
    "repro.cme.batch",
    "repro.cme.decisions",
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


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


class KeyBuilder:
    """Computes canonical keys for the references of one analysis state.

    One builder is bound to a ``(NormalizedProgram, MemoryLayout,
    CacheConfig, ReuseTable)`` quadruple — exactly the state a solver run is
    bound to.  A fragment is the JSON text of ``[KEY_SCHEMA, geometry,
    [structure, placements], locator, vectors]``, spliced from parts of two
    lifetimes:

    * the **geometry-free parts** — each interference span's nest
      structure and absolute storage bases, each reference's span bounds
      and ``locator, vectors`` tail — are encoded once per (reuse table,
      layout) and kept in ``reuse.derived((layout, "memo.key"))``, so
      every builder over that table (every geometry of its line size,
      every session) shares them;
    * the **geometry** ``[C, Ls, k]`` and each span's placements, rebased
      to ``num_sets * line_bytes``, are encoded per builder.

    The splice is byte-identical to encoding the whole document with one
    ``json.dumps(doc, separators=(",", ":"))``.
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
        # Entries are pure functions of (reuse table, layout): concurrent
        # builders publish them with ``setdefault``, without a lock.
        self._shared = reuse.derived((layout, "memo.key"))
        self._set_span = cache.num_sets * cache.line_bytes
        geometry = [cache.size_bytes, cache.line_bytes, cache.assoc]
        self._head = f"[{_dumps(KEY_SCHEMA)},{_dumps(geometry)},"
        self._locators: dict[int, list] = {}
        self._spans: dict[tuple[int, int], str] = {}
        self._fragments: dict[int, str] = {}

    # -- canonical structure (once per reuse table and layout) -----------------

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

    def _encode_span(self, first: int, last: int) -> tuple[str, tuple]:
        """``("[" + structure JSON, absolute storage bases)`` of the nests
        ``roots[first..last]``; storages are numbered by first use."""
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
        bases = tuple(self.layout.base_of(a) for a in storages)
        return "[" + _dumps(roots), bases

    def _encode_ref(self, ref: NRef) -> tuple[int, int, str]:
        """``(first, last, tail)``: the bounds of ``ref``'s interference span
        and the ``,locator,vectors]`` text that closes its fragment."""
        c_idx = self._ord2idx[ref.label[0]]
        first = c_idx
        vectors = []
        reuse, refs = self.reuse, self.nprog.refs
        rows = reuse.rows(ref)
        for vec, p, spatial in zip(
            reuse.vecs[rows].tolist(),
            reuse.producers[rows].tolist(),
            reuse.spatial[rows].tolist(),
        ):
            producer = refs[p]
            p_idx = self._ord2idx[producer.label[0]]
            first = min(first, p_idx)
            vectors.append([
                vec, SPATIAL if spatial else TEMPORAL, c_idx - p_idx,
                self._locator(producer),
            ])
        return first, c_idx, f",{_dumps(self._locator(ref))},{_dumps(vectors)}]"

    # -- geometry (once per builder) -------------------------------------------

    def _span(self, first: int, last: int) -> str:
        """``[structure,placements]`` of ``roots[first..last]`` under this
        builder's geometry."""
        text = self._spans.get((first, last))
        if text is None:
            key = ("span", first, last)
            structure, bases = self._shared.get(key) or self._shared.setdefault(
                key, self._encode_span(first, last)
            )
            rebase = (min(bases) // self._set_span) * self._set_span if bases else 0
            text = f"{structure},{_dumps([b - rebase for b in bases])}]"
            self._spans[(first, last)] = text
        return text

    # -- keys -----------------------------------------------------------------

    def fragment(self, ref: NRef) -> str:
        """The method-independent structural JSON fragment of ``ref``."""
        frag = self._fragments.get(ref.uid)
        if frag is None:
            key = ("ref", ref.uid)
            first, last, tail = self._shared.get(key) or self._shared.setdefault(
                key, self._encode_ref(ref)
            )
            frag = self._head + self._span(first, last) + tail
            self._fragments[ref.uid] = frag
        return frag

    def key(self, ref: NRef, method: str, params: Sequence = ()) -> str:
        """The content hash of ``ref``'s analysis unit.

        ``params`` carries the solver inputs outside the structural fragment
        — empty for ``FindMisses``, ``(confidence, width, seed ^ uid)`` for
        ``EstimateMisses``.
        """
        head = _dumps([method, list(params)])
        return hashlib.sha256((head + self.fragment(ref)).encode()).hexdigest()
