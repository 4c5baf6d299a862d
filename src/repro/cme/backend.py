"""The classifier the CME solvers run on.

Every solver classifies iteration points with the vectorized
:class:`~repro.cme.batch.BatchClassifier` (whole ``(N, n)`` point batches
through NumPy integer arithmetic).  It embeds the scalar
:class:`~repro.cme.point.PointClassifier` for the references its
vectorized path cannot handle, so the scalar classifier stays the
per-point oracle the tests diff against.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cme.batch import BatchClassifier
    from repro.layout.cache import CacheConfig
    from repro.layout.memory import MemoryLayout
    from repro.normalize.nprogram import NormalizedProgram
    from repro.iteration.walker import Walker
    from repro.reuse.generator import ReuseTable


def make_classifier(
    nprog: "NormalizedProgram",
    layout: "MemoryLayout",
    cache: "CacheConfig",
    reuse: "ReuseTable",
    walker: Optional["Walker"] = None,
) -> "BatchClassifier":
    """Build the classifier of one (program, layout, cache) analysis state."""
    from repro.cme.batch import BatchClassifier

    return BatchClassifier(nprog, layout, cache, reuse, walker)
