"""The cold equations' tail grid against the per-vector loop.

:meth:`BatchClassifier._cold` tries a reference's reuse vectors one by one
over the shrinking set of undecided points.  Once at most ``_TAIL`` points
are left, and more than ``_TAIL_VECTORS`` vectors, it decides every
remaining (point, vector) pair at once (:meth:`BatchClassifier._cold_tail`):
producer-RIS containment as one comparison per conjunct, the same-line
test through the uniformly-generated-set identity ``addr_p(p − s) =
addr_c(p) − row·s + (c_p − c_c)``, and the first true vector per point.
The loop computes the producer's address from its own row, so it checks
that identity independently.

Here ``_cold`` runs with the grid never used, at the default switch, from
trial 0 and from trial 0 down to the last vector, and every output — the
deciding vector, the producer point, the consumer line and the trials —
must equal the loop's.  The inputs are the 210-case pool (whole RISs and
``EstimateMisses`` samples), the Table 6 programs' samples and the Fig. 8
kernels, plus two small programs: a diagonal ``IF (I .EQ. J)`` producer
(a RIS with equality conjuncts) and a reference with no reuse vectors.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import CacheConfig, prepare
from repro.cme import batch as cme_batch
from repro.cme.batch import BatchClassifier
from repro.cme.estimate import _draw
from repro.ir import ProgramBuilder
from repro.polyhedra.batch import enumerate_points_array
from repro.polyhedra.constraints import EQ
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.reuse import build_reuse_table
from repro.serve.engine import load_kernel
from tests.harness.differential import FAMILIES, generate_cases

#: Module settings of each way to run ``_cold``; "loop" is the reference.
MODES = {
    "loop": {"_TAIL": -1},
    "default": {},
    "from_trial_0": {"_TAIL": 1 << 62},
    "to_last_vector": {"_TAIL": 1 << 62, "_TAIL_VECTORS": 0},
}


class TailSpy:
    """Records what each tail grid covered, per mode."""

    def __init__(self, monkeypatch):
        self.seen: Counter = Counter()
        self.mode = None
        self._ref = None
        cold, tail = BatchClassifier._cold, BatchClassifier._cold_tail
        spy = self

        def spy_cold(classifier, ref, pts):
            spy._ref = ref
            return cold(classifier, ref, pts)

        def spy_tail(classifier, table, first, pts, addr, lines):
            rows, via = tail(classifier, table, first, pts, addr, lines)
            spy.note(classifier, first, len(rows))
            return rows, via

        monkeypatch.setattr(BatchClassifier, "_cold", spy_cold)
        monkeypatch.setattr(BatchClassifier, "_cold_tail", spy_tail)

    def note(self, classifier, first, decided):
        vectors = classifier.reuse.vectors_for(self._ref)
        nprog = classifier.nprog
        leaves = {id(rv.producer.leaf): rv.producer.leaf
                  for rv in vectors[first:]}
        seen = self.seen
        seen[self.mode, "tails"] += 1
        seen[self.mode, "decided"] += decided
        seen[self.mode, "left", len(vectors) - first] += 1
        seen["leaves>1"] += len(leaves) > 1
        for leaf in leaves.values():
            seen["guard"] += bool(leaf.guard.constraints)
            seen["eq"] += any(
                kind == EQ for _, _, kind in nprog.ris(leaf).conjunct_rows()
            )


def check_cold(monkeypatch, spy, classifier, ref, points):
    """``_cold`` in every mode equals the loop's outputs."""
    outputs = {}
    for mode, settings in MODES.items():
        spy.mode = mode
        with monkeypatch.context() as m:
            for name, value in settings.items():
                m.setattr(cme_batch, name, value)
            outputs[mode] = classifier._cold(ref, points)
    via, producers, lines, trials = outputs["loop"]
    decided = via >= 0
    for mode, (v, p, l, t) in outputs.items():
        where = f"{ref} ({mode})"
        assert np.array_equal(v, via), where
        assert np.array_equal(p[decided], producers[decided]), where
        assert np.array_equal(l, lines), where
        assert t == trials, where
    spy.seen["points"] += len(points)
    spy.seen["no_vectors"] += not classifier.reuse.vectors_for(ref)


def check_program(monkeypatch, spy, nprog, layout, cache, walker=None,
                  whole=True, seed=0):
    reuse = build_reuse_table(nprog, cache.line_bytes)
    classifier = BatchClassifier(nprog, layout, cache, reuse, walker)
    for ref in nprog.refs:
        ris = nprog.ris(ref.leaf)
        volume = ris.count()
        if not volume:
            continue
        if whole:
            check_cold(monkeypatch, spy, classifier, ref,
                       enumerate_points_array(ris))
        sample, _ = _draw(ris, ref, 0.95, 0.05, seed, volume)
        if sample is not None:
            check_cold(monkeypatch, spy, classifier, ref, sample)


@pytest.fixture
def spy(monkeypatch):
    return TailSpy(monkeypatch)


def test_tail_equals_loop_on_pool(monkeypatch, spy):
    for case in generate_cases(30 * len(FAMILIES)):
        nprog, layout = case.prepared()
        check_program(monkeypatch, spy, nprog, layout, case.cache, seed=7)
    seen = spy.seen
    assert seen["loop", "tails"] == 0, seen
    for mode in ("default", "from_trial_0", "to_last_vector"):
        assert seen[mode, "decided"] > 0, (mode, seen)
    # The switch's boundary: the grid takes over with one vector more
    # than _TAIL_VECTORS left, never with fewer.
    tail_vectors = cme_batch._TAIL_VECTORS
    assert seen["from_trial_0", "left", tail_vectors + 1] > 0, seen
    assert not any(
        key[0] != "to_last_vector" and key[1] == "left"
        and key[2] <= tail_vectors
        for key in seen if isinstance(key, tuple)
    ), seen
    assert seen["to_last_vector", "left", 1] > 0, seen
    assert seen["guard"] > 0 and seen["leaves>1"] > 0, seen


def test_tail_equals_loop_on_table6_samples(monkeypatch, spy):
    cache = CacheConfig.kb(4, 32, 1)
    for program in (build_tomcatv_like(40, 2), build_swim_like(40, 2),
                    build_applu_like(20, 2)):
        prep = prepare(program)
        check_program(monkeypatch, spy, prep.nprog, prep.layout, cache,
                      prep.walker, whole=False)
    assert spy.seen["default", "decided"] > 0, spy.seen
    assert spy.seen["leaves>1"] > 0, spy.seen


def test_tail_equals_loop_on_fig8_kernels(monkeypatch, spy):
    cache = CacheConfig.kb(1, 32, 1)
    for name, size in (("hydro", 12), ("mgrid", 8), ("mmt", 8)):
        prep = prepare(load_kernel(name, size))
        check_program(monkeypatch, spy, prep.nprog, prep.layout, cache,
                      prep.walker)
    assert spy.seen["default", "decided"] > 0, spy.seen


def build_diagonal(n: int):
    """A diagonal ``IF (I .EQ. J)`` producer of ``A(I)``, read back by
    every later iteration, and ``B(16·I, J)``: 128-byte strides on 32-byte
    lines, columns half a stride apart and no other reference to ``B``,
    so it has no reuse vector."""
    pb = ProgramBuilder("DIAGONAL")
    a = pb.array("A", (n,))
    b = pb.array("B", (16 * n + 8, n))
    s = pb.array("S", (1,))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, n) as j:
            with pb.do("I", 1, n) as i:
                with pb.if_(i.eq(j)):
                    pb.assign(a[i], s[1])
                pb.assign(s[1], a[i], label="S2")
        with pb.do("J", 1, n) as j:
            with pb.do("I", 1, n) as i:
                pb.assign(b[16 * i, j], s[1], label="S3")
    return pb.build()


def test_tail_equals_loop_on_equality_conjuncts_and_no_vectors(
    monkeypatch, spy
):
    prep = prepare(build_diagonal(24))
    check_program(monkeypatch, spy, prep.nprog, prep.layout,
                  CacheConfig.kb(1, 32, 1), prep.walker)
    assert spy.seen["eq"] > 0, spy.seen
    assert spy.seen["no_vectors"] > 0, spy.seen
