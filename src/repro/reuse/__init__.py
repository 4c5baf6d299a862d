"""Reuse analysis across multiple nests (Sections 3.4–3.5 of the paper)."""

from repro.reuse.generator import (
    ReuseOptions,
    ReuseTable,
    build_reuse_table,
)
from repro.reuse.ugs import (
    constant_part,
    linear_part,
    ugs_key,
    uniformly_generated_sets,
)
from repro.reuse.vectors import SPATIAL, TEMPORAL, ReuseVector

__all__ = [
    "ReuseOptions",
    "ReuseTable",
    "build_reuse_table",
    "constant_part",
    "linear_part",
    "ugs_key",
    "uniformly_generated_sets",
    "ReuseVector",
    "SPATIAL",
    "TEMPORAL",
]
