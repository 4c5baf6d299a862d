"""The one-shot memo-key encoder: the oracle of the spliced keys.

:class:`OracleKeyBuilder` builds each reference's whole key document —
schema tag, cache geometry, the interference span's nest structure and
rebased placements, the reference's locator and reuse vectors — as one
list, and encodes it with one ``json.dumps``, exactly as every key was
built before :class:`repro.memo.key.KeyBuilder` learnt to encode the
geometry-free parts once per reuse table and splice them.  It shares no
code with that module beyond :data:`KEY_SCHEMA`, so the key tests diff
the production keys against an encoder that cannot make the same
splicing mistake.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Sequence

from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.memo.key import KEY_SCHEMA
from repro.normalize.nprogram import NLeaf, NLoop, NormalizedProgram, NRef
from repro.polyhedra.affine import Affine
from repro.polyhedra.constraints import EQ, ConstraintSet
from repro.reuse.generator import ReuseTable


def _affine_doc(expr: Affine) -> list:
    """``[const, [[dim, coeff], ...]]`` with positional dimension indices."""
    terms = []
    for name, coeff in expr.coeffs.items():
        if not name.startswith("I"):
            raise ValueError(f"unexpected variable {name!r} in {expr}")
        terms.append([int(name[1:]) - 1, coeff])
    terms.sort()
    return [expr.constant, terms]


def _guard_doc(guard: ConstraintSet) -> list:
    """Order-canonical guard document (conjunction order is irrelevant)."""
    return sorted(
        [0 if c.kind == EQ else 1, _affine_doc(c.expr)] for c in guard
    )


class OracleKeyBuilder:
    """Canonical keys for the references of one analysis state, each
    fragment encoded from its whole document.

    Bound to the same ``(NormalizedProgram, MemoryLayout, CacheConfig,
    ReuseTable)`` quadruple as :class:`repro.memo.key.KeyBuilder`, with the
    same ``key(ref, method, params)``; it keeps nothing beyond itself.
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
