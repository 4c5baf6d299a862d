"""Unit tests for the cache configuration and memory layout."""

import pytest

from repro.errors import LayoutError
from repro.ir import Array, ArrayView
from repro.layout import CacheConfig, MemoryLayout, layout_for_refs


class TestCacheConfig:
    def test_paper_default_32kb_32b(self):
        c = CacheConfig.kb(32, 32, 1)
        assert c.num_lines == 1024
        assert c.num_sets == 1024
        assert c.line_elements(8) == 4  # Ls = 4 REAL*8 elements

    def test_associativity_reduces_sets(self):
        assert CacheConfig.kb(32, 32, 2).num_sets == 512
        assert CacheConfig.kb(32, 32, 4).num_sets == 256

    def test_memory_line_and_set(self):
        c = CacheConfig.kb(1, 32, 1)  # 32 sets
        assert c.memory_line(0) == 0
        assert c.memory_line(31) == 0
        assert c.memory_line(32) == 1
        assert c.set_of_line(33) == 1
        assert c.set_of_address(32 * 33) == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(100, 32, 1)
        with pytest.raises(ValueError):
            CacheConfig(0, 32, 1)

    def test_geometry_beyond_the_index_types_rejected(self):
        # Sets are numbered with int32 and addresses with int64.
        assert CacheConfig(2**31 - 1, 1, 1).num_sets == 2**31 - 1
        assert CacheConfig(2**63 - 2**32, 2**32, 1).num_sets == 2**31 - 1
        with pytest.raises(ValueError, match="too large"):
            CacheConfig(2**31, 1, 1)
        with pytest.raises(ValueError, match="too large"):
            CacheConfig(2**63, 2**62, 2)
        with pytest.raises(ValueError, match="too large"):
            CacheConfig.kb(99999999999999999999, 32, 1)

    def test_describe(self):
        assert CacheConfig.kb(32, 32, 1).describe() == "32KB/32B direct"
        assert "2-way" in CacheConfig.kb(32, 32, 2).describe()


class TestMemoryLayout:
    def test_sequential_placement(self):
        a = Array("A", (10,))  # 80 bytes
        b = Array("B", (5, 5))  # 200 bytes
        layout = MemoryLayout([a, b])
        assert layout.base_of(a) == 0
        assert layout.base_of(b) == 80
        assert layout.total_bytes == 280

    def test_alignment(self):
        a = Array("A", (3,), element_size=4)  # 12 bytes
        b = Array("B", (3,), element_size=4)
        layout = MemoryLayout([a, b], align=32)
        assert layout.base_of(a) == 0
        assert layout.base_of(b) == 32

    def test_base_offset(self):
        a = Array("A", (4,))
        layout = MemoryLayout([a], base=1000, align=1)
        assert layout.base_of(a) == 1000

    def test_uniform_padding(self):
        a = Array("A", (4,))
        b = Array("B", (4,))
        layout = MemoryLayout([a, b], pad_bytes=16, align=1)
        assert layout.base_of(b) == 32 + 16

    def test_per_array_padding(self):
        a = Array("A", (4,))
        b = Array("B", (4,))
        layout = MemoryLayout([a, b], pad_bytes={"A": 8}, align=1)
        assert layout.base_of(b) == 40

    def test_view_resolves_to_root_base(self):
        b = Array("B", (20, 20))
        v = ArrayView("B1", b, (10, 10, None))
        layout = MemoryLayout([b])
        assert layout.base_of(v) == layout.base_of(b)  # @B = @B1 (Fig. 5)

    def test_view_cannot_be_laid_out(self):
        b = Array("B", (4,))
        v = ArrayView("V", b, (4,))
        with pytest.raises(LayoutError):
            MemoryLayout([v])

    def test_assumed_size_root_rejected(self):
        s = Array("S", (10, None))
        with pytest.raises(LayoutError):
            MemoryLayout([s])

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            MemoryLayout([Array("A", (4,)), Array("A", (4,))])

    def test_unknown_array_raises(self):
        layout = MemoryLayout([Array("A", (4,))])
        with pytest.raises(LayoutError):
            layout.base_of(Array("Z", (4,)))

    def test_contains(self):
        a = Array("A", (4,))
        layout = MemoryLayout([a])
        assert a in layout
        assert Array("Z", (4,)) not in layout

    def test_layout_for_refs_declaration_order_first(self):
        a = Array("A", (4,))
        b = Array("B", (4,))
        refs = [b[1], a[1]]
        layout = layout_for_refs(refs, declared_order=[a, b], align=1)
        assert layout.base_of(a) < layout.base_of(b)

    def test_layout_for_refs_discovers_undeclared(self):
        a = Array("A", (4,))
        b = Array("B", (4,))
        layout = layout_for_refs([a[1], b[2]], align=1)
        assert b in layout
