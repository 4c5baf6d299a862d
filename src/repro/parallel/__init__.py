"""Process-pool parallelisation of the per-reference CME solves."""

from repro.parallel.engine import (
    CHUNKS_PER_JOB,
    ParallelEngine,
    resolve_jobs,
)

__all__ = [
    "CHUNKS_PER_JOB",
    "ParallelEngine",
    "resolve_jobs",
]
