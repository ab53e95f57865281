"""Tests for index-space partitioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.scheduler import Chunk, block_partition


class TestChunk:
    def test_points(self):
        assert Chunk((0, 0), (2, 3)).points == 6

    def test_empty(self):
        assert Chunk((1, 0), (1, 5)).is_empty

    def test_slices(self):
        assert Chunk((1, 2), (3, 4)).slices() == (slice(1, 3), slice(2, 4))

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Chunk((2,), (1,))
        with pytest.raises(ValueError):
            Chunk((0, 0), (1,))


class TestBlockPartition:
    @given(st.integers(1, 64), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_covers_space_exactly(self, extent, workers):
        chunks = block_partition((extent, 5), workers)
        assert len(chunks) == workers
        # Chunks tile the axis: contiguous and complete.
        covered = []
        for c in chunks:
            covered.extend(range(c.lo[0], c.hi[0]))
        assert covered == list(range(extent))

    @given(st.integers(1, 64), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_balanced(self, extent, workers):
        chunks = block_partition((extent,), workers)
        sizes = [c.points for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_planes(self):
        chunks = block_partition((2,), 5)
        assert sum(c.points for c in chunks) == 2
        assert sum(1 for c in chunks if c.is_empty) == 3

    def test_other_axis(self):
        chunks = block_partition((4, 8), 2, axis=1)
        assert chunks[0].slices() == (slice(0, 4), slice(0, 4))
        assert chunks[1].slices() == (slice(0, 4), slice(4, 8))

    def test_rank0_rejected(self):
        with pytest.raises(ValueError):
            block_partition((), 2)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            block_partition((4,), 0)

