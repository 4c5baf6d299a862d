"""The cache model of Section 2 of the paper.

A uniprocessor data cache: ``k``-way set associative with LRU replacement and
a fetch-on-write policy, so writes and reads are modelled identically.
``Cs`` (cache size) and ``Ls`` (line size) follow the paper's notation; the
paper quotes ``Ls`` in array elements, so a helper converts from elements of
a given size.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Most sets a cache may have: the simulator and the trace index number
#: sets with int32.
MAX_SETS = 2**31 - 1

#: Largest cache size in bytes: addresses and line numbers are int64.
MAX_BYTES = 2**63 - 1


@dataclass(frozen=True)
class CacheConfig:
    """A ``k``-way set associative cache with LRU replacement.

    Attributes
    ----------
    size_bytes:
        Total capacity ``Cs`` in bytes.
    line_bytes:
        Line size ``Ls`` in bytes.
    assoc:
        Associativity ``k`` (1 = direct mapped).
    """

    size_bytes: int
    line_bytes: int
    assoc: int = 1

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.size_bytes <= 0 or self.assoc <= 0:
            raise ValueError("cache parameters must be positive")
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError(
                f"cache size {self.size_bytes} is not divisible by "
                f"line_bytes*assoc = {self.line_bytes * self.assoc}"
            )
        if self.size_bytes > MAX_BYTES or self.num_sets > MAX_SETS:
            raise ValueError(
                f"cache of {self.size_bytes} bytes in {self.num_sets} sets "
                f"is too large: at most {MAX_BYTES} bytes and {MAX_SETS} sets"
            )

    @staticmethod
    def kb(size_kb: int, line_bytes: int = 32, assoc: int = 1) -> "CacheConfig":
        """The paper's usual spec: ``CacheConfig.kb(32, 32, k)`` = 32KB/32B."""
        return CacheConfig(size_kb * 1024, line_bytes, assoc)

    @property
    def num_lines(self) -> int:
        """Number of cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.num_lines // self.assoc

    def line_elements(self, element_size: int = 8) -> int:
        """``Ls`` in array elements of the given size (paper notation)."""
        return max(1, self.line_bytes // element_size)

    def memory_line(self, address: int) -> int:
        """The memory line containing byte ``address``."""
        return address // self.line_bytes

    def set_of_line(self, line: int) -> int:
        """The cache set a memory line maps to."""
        return line % self.num_sets

    def set_of_address(self, address: int) -> int:
        """The cache set a byte address maps to."""
        return (address // self.line_bytes) % self.num_sets

    def describe(self) -> str:
        """Human-readable summary, e.g. ``32KB/32B 2-way``."""
        kb = self.size_bytes / 1024
        way = "direct" if self.assoc == 1 else f"{self.assoc}-way"
        return f"{kb:g}KB/{self.line_bytes}B {way}"
