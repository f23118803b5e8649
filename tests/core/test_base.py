"""Tests for the shared SPCIndex interface."""

from repro.core.ctls import CTLSIndex
from repro.graph.generators import grid_graph


class TestSPCIndexInterface:
    def test_query_batch_matches_query(self):
        index = CTLSIndex.build(grid_graph(4, 4))
        pairs = [(0, 15), (3, 12), (7, 7)]
        batch = index.query_batch(pairs)
        assert [tuple(r) for r in batch] == [
            tuple(index.query(s, t)) for s, t in pairs
        ]

    def test_distance_count_helpers(self):
        index = CTLSIndex.build(grid_graph(4, 4))
        assert index.distance(0, 15) == 6
        assert index.count(0, 15) == 20

    def test_repr_mentions_shape(self):
        index = CTLSIndex.build(grid_graph(3, 3))
        text = repr(index)
        assert "CTLSIndex" in text
        assert "n=9" in text

    def test_size_bytes_consistent_with_stats(self):
        index = CTLSIndex.build(grid_graph(4, 4))
        assert index.size_bytes() == index.stats().size_bytes
