"""The classifier the CME solvers run on.

Every solver classifies iteration points with
:class:`~repro.cme.batch.BatchClassifier` (whole ``(N, n)`` point batches
through NumPy integer arithmetic); :func:`make_classifier` builds one per
(program, layout, cache) analysis state.
"""

from __future__ import annotations

from typing import Optional

from repro.cme.batch import BatchClassifier
from repro.iteration.walker import Walker
from repro.layout.cache import CacheConfig
from repro.layout.memory import MemoryLayout
from repro.normalize.nprogram import NormalizedProgram
from repro.reuse.generator import ReuseTable


def make_classifier(
    nprog: NormalizedProgram,
    layout: MemoryLayout,
    cache: CacheConfig,
    reuse: ReuseTable,
    walker: Optional[Walker] = None,
) -> BatchClassifier:
    """Build the classifier of one (program, layout, cache) analysis state."""
    return BatchClassifier(nprog, layout, cache, reuse, walker)
