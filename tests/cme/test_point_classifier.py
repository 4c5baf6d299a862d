"""Unit tests of the scalar oracle classifier: outcomes, kinds and via-vectors."""

import pytest

from repro.ir import ProgramBuilder
from repro.layout import CacheConfig, layout_for_refs
from repro.normalize import normalize
from repro.reuse import build_reuse_table
from repro.cme import Outcome
from tests.cme.scalar_oracle import PointClassifier


def classifier_for(pb, cache, align=32):
    prog = pb.build()
    nprog = normalize(prog.main)
    layout = layout_for_refs(
        nprog.refs, declared_order=prog.global_arrays, align=align
    )
    reuse = build_reuse_table(nprog, cache.line_bytes)
    return nprog, PointClassifier(nprog, layout, cache, reuse)


class TestOutcomes:
    def test_first_touch_is_cold(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 16) as i:
                pb.assign(a[i])
        cache = CacheConfig.kb(32, 32, 1)
        nprog, classifier = classifier_for(pb, cache)
        ref = nprog.refs[0]
        result = classifier.classify(ref, (1,))
        assert result.outcome is Outcome.COLD
        assert result.outcome.is_miss
        assert result.via is None

    def test_same_line_successor_is_hit_via_spatial_vector(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 16) as i:
                pb.assign(a[i])
        cache = CacheConfig.kb(32, 32, 1)
        nprog, classifier = classifier_for(pb, cache)
        ref = nprog.refs[0]
        result = classifier.classify(ref, (2,))
        assert result.outcome is Outcome.HIT
        assert not result.outcome.is_miss
        assert result.via is not None
        assert result.via.kind == "spatial"

    def test_line_boundary_is_cold_again(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 16) as i:
                pb.assign(a[i])
        cache = CacheConfig.kb(32, 32, 1)
        nprog, classifier = classifier_for(pb, cache)
        ref = nprog.refs[0]
        # I = 5 starts the second 32B line (elements 5..8).
        assert classifier.classify(ref, (5,)).outcome is Outcome.COLD

    @staticmethod
    def conflicting_copy(cache):
        """``B(I) = A(I)`` with A and B one 1KB cache apart."""
        pb = ProgramBuilder("P")
        a = pb.array("A", (128,))
        b = pb.array("B", (128,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 128) as i:
                pb.assign(b[i], a[i])
        nprog, classifier = classifier_for(pb, cache, align=1024)
        return nprog.refs[0], classifier

    def test_conflict_eviction_is_replacement_miss(self):
        a_ref, classifier = self.conflicting_copy(CacheConfig.kb(1, 32, 1))
        # A(2) would reuse A(1)'s line, but B(1)'s write in between maps to
        # the same set in a direct-mapped cache and evicts it.
        result = classifier.classify(a_ref, (2,))
        assert result.outcome is Outcome.REPLACEMENT
        assert result.via is not None

    def test_associativity_turns_replacement_into_hit(self):
        a_ref, classifier = self.conflicting_copy(CacheConfig.kb(1, 32, 2))
        assert classifier.classify(a_ref, (2,)).outcome is Outcome.HIT

    def test_temporal_reuse_across_nests(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (8,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 8) as i:
                pb.assign(a[i])
            with pb.do("I", 1, 8) as i:
                pb.read(a[i])
        cache = CacheConfig.kb(32, 32, 1)
        nprog, classifier = classifier_for(pb, cache)
        consumer = nprog.refs[1]
        # At I = 3 the *nearest* producer is the previous read in the same
        # nest (a spatial self vector); the classifier must prefer it.
        near = classifier.classify(consumer, (3,))
        assert near.outcome is Outcome.HIT
        assert near.via.is_self
        # At I = 1 the only producers are the nest-1 writes: group reuse
        # across nests, the paper's headline generalisation.  (The chosen
        # vector is the nest-1 write *nearest in time* to the consumed
        # line — the spatial (1, −3) to A(4) — not the temporal (1, 0).)
        across = classifier.classify(consumer, (1,))
        assert across.outcome is Outcome.HIT
        assert across.via.is_group
        assert across.via.label_part() == (1,)
        assert across.via.producer.is_write

    def test_guarded_producer_limits_group_reuse(self):
        """Cold equations must reject producer points outside the guard:
        A(I) is only written for I ≤ 8, so the second nest's reads reuse
        lines up to the guard boundary and go cold beyond it."""
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 16) as i:
                with pb.if_(i.le(8)):
                    pb.assign(a[i])
            with pb.do("I", 1, 16) as i:
                pb.read(a[i])
        cache = CacheConfig.kb(32, 32, 1)
        nprog, classifier = classifier_for(pb, cache)
        consumer = nprog.refs[1]
        # I = 1: the guarded write at I = 1 satisfies its guard -> group hit.
        head = classifier.classify(consumer, (1,))
        assert head.outcome is Outcome.HIT
        assert head.via.is_group
        # I = 9 starts the third line (elements 9..12): every candidate
        # producer point violates the guard, and no earlier consumer access
        # touched the line -> cold miss.
        assert classifier.classify(consumer, (9,)).outcome is Outcome.COLD
        # I = 10 reuses the line the consumer itself fetched at I = 9.
        follow = classifier.classify(consumer, (10,))
        assert follow.outcome is Outcome.HIT
        assert follow.via.is_self

    def test_guarded_reference_classified_inside_its_own_ris(self):
        """A guarded reference's own points follow the usual line pattern."""
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 16) as i:
                with pb.if_(i.le(8)):
                    pb.assign(a[i])
        cache = CacheConfig.kb(32, 32, 1)
        nprog, classifier = classifier_for(pb, cache)
        ref = nprog.refs[0]
        # Elements 1..4 share the first 32B line, 5..8 the second.
        assert classifier.classify(ref, (1,)).outcome is Outcome.COLD
        assert classifier.classify(ref, (2,)).outcome is Outcome.HIT
        assert classifier.classify(ref, (5,)).outcome is Outcome.COLD
        assert classifier.classify(ref, (6,)).outcome is Outcome.HIT

    def test_guarded_consumer_temporal_reuse_across_time_steps(self):
        """A guarded consumer still sees its own previous time step: the
        producer point (T−1, I) satisfies the same guard."""
        pb = ProgramBuilder("P")
        a = pb.array("A", (16,))
        with pb.subroutine("MAIN"):
            with pb.do("T", 1, 2):
                with pb.do("I", 1, 16) as i:
                    with pb.if_(i.le(8)):
                        pb.read(a[i])
        cache = CacheConfig.kb(32, 32, 1)
        nprog, classifier = classifier_for(pb, cache)
        ref = nprog.refs[0]
        assert classifier.classify(ref, (1, 1)).outcome is Outcome.COLD
        second_sweep = classifier.classify(ref, (2, 1))
        assert second_sweep.outcome is Outcome.HIT

    def test_intra_statement_read_then_write_hits(self):
        pb = ProgramBuilder("P")
        a = pb.array("A", (8,))
        with pb.subroutine("MAIN"):
            with pb.do("I", 1, 8) as i:
                pb.assign(a[i], a[i])  # A(I) = f(A(I))
        cache = CacheConfig.kb(32, 32, 1)
        nprog, classifier = classifier_for(pb, cache)
        write_ref = nprog.refs[1]
        result = classifier.classify(write_ref, (1,))
        # The write reuses the read's line at distance r = 0.
        assert result.outcome is Outcome.HIT
        assert all(c == 0 for c in result.via.vec)


class TestTallyPoints:
    def test_array_rows_reach_the_classifier_as_int_tuples(self):
        """Samples arrive as int64 arrays; the scalar oracle computes on
        Python ints, so it shares no fixed-width arithmetic with them."""
        import numpy as np

        from repro.cme import RefResult
        from repro.cme import Classification
        from tests.cme.scalar_oracle import tally_points

        seen = []

        def classify(ref, point):
            seen.append(point)
            return Classification(Outcome.HIT)

        result = RefResult("R", 0, population=2)
        tally_points(classify, None, result, np.array([[1, 2], [3, 4]]))
        assert seen == [(1, 2), (3, 4)]
        assert all(type(v) is int for point in seen for v in point)
        assert (result.analysed, result.hits) == (2, 2)
