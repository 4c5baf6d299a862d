"""Reuse vectors for multiple nests (Section 3.5 of the paper).

A reuse vector from a producer reference ``R_p`` to a consumer ``R_c`` lives
in the 2n-dimensional iteration-vector space: it interleaves the *label
difference* ``ℓc − ℓp`` with an index-space solution ``x``:

    r = (ℓ1c−ℓ1p, x1, ℓ2c−ℓ2p, x2, …, ℓnc−ℓnp, xn),   r ⪰ 0.

Temporal vectors solve ``M·x = m_p − m_c`` exactly; spatial vectors only
need the producer and consumer *addresses* to fall within one memory line,
i.e. ``|Δm_lin − S·x| < Ls`` where ``S`` is the stride-weighted (linearised)
subscript row — a formulation that uniformly covers both of the paper's
spatial kinds: the intra-column family (eq. 2) *and* the cross-column
vectors of Fig. 3 such as ``(0, 1, 0, 1−N)``.

:class:`~repro.reuse.generator.ReuseTable` keeps its vectors as array
rows (``vec``, producer uid, kind), which the classifier and the memo keys
read directly; a :class:`ReuseVector` is that row as an object, built on
the first :meth:`~repro.reuse.generator.ReuseTable.vectors_for` of its
consumer, for the API, the regional solver, the probabilistic baseline
and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.normalize.nprogram import NRef

TEMPORAL = "temporal"
SPATIAL = "spatial"


@dataclass(frozen=True)
class ReuseVector:
    """One reuse vector from a producer reference to a consumer reference."""

    vec: tuple[int, ...]  # interleaved, length 2n
    producer: NRef
    consumer: NRef
    kind: str  # TEMPORAL or SPATIAL

    @property
    def is_self(self) -> bool:
        """Self reuse (producer and consumer are the same reference)."""
        return self.producer is self.consumer

    @property
    def is_group(self) -> bool:
        """Group reuse (distinct references)."""
        return not self.is_self

    def index_part(self) -> tuple[int, ...]:
        """The index-space components ``(x1, …, xn)``."""
        return self.vec[1::2]

    def label_part(self) -> tuple[int, ...]:
        """The label-difference components ``(ℓ1c−ℓ1p, …)``."""
        return self.vec[0::2]

    def sort_key(self) -> tuple:
        """Increasing-lex order with nearer producers first on ties.

        ``MissAnalyser`` (Fig. 6) sorts each reference's vectors in
        increasing ``≺``; for equal vectors the lexically *later* producer
        is the more recent access, so it is preferred.
        """
        return (self.vec, -self.producer.lexpos)

    def __repr__(self) -> str:
        tag = "self" if self.is_self else "group"
        return f"ReuseVector({self.vec}, {self.kind}/{tag}, p={self.producer.name()})"
