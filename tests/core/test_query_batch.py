"""Tests for the batch query API across all three index types."""

import pytest

from repro.baselines.tl import TLIndex
from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.exceptions import IndexQueryError
from repro.search.dijkstra import ssspc
from repro.types import INF, QueryResult

BUILDERS = [
    pytest.param(lambda g: CTLIndex.build(g), id="ctl"),
    pytest.param(lambda g: CTLSIndex.build(g), id="ctls"),
    pytest.param(lambda g: TLIndex.build(g), id="tl"),
]


@pytest.mark.parametrize("builder", BUILDERS)
class TestBatchParity:
    def test_matches_per_pair_queries(self, builder, road_graph, road_pairs):
        index = builder(road_graph)
        expected = [index.query(s, t) for s, t in road_pairs]
        assert index.query_batch(road_pairs) == expected

    def test_self_pairs(self, builder, small_grid):
        index = builder(small_grid)
        assert index.query_batch([(4, 4), (0, 0)]) == [
            index.query(4, 4),
            index.query(0, 0),
        ]
        assert index.query(4, 4).distance == 0

    def test_disconnected_pairs(self, builder, two_components):
        index = builder(two_components)
        results = index.query_batch([(0, 3), (0, 1), (2, 0)])
        assert results[0].distance == INF
        assert results[0].count == 0
        assert results[1].count == 1
        assert results[2].count == 0

    def test_unknown_vertex_raises(self, builder, small_grid):
        index = builder(small_grid)
        with pytest.raises(IndexQueryError):
            index.query_batch([(0, 15), (0, 999)])

    def test_empty_batch(self, builder, small_grid):
        index = builder(small_grid)
        assert index.query_batch([]) == []

    def test_agrees_with_counting_dijkstra(self, builder, weighted_grid):
        index = builder(weighted_grid)
        vertices = sorted(weighted_grid.vertices())
        pairs = [(s, t) for s in vertices[:8] for t in vertices[-8:]]
        expected = []
        for s, t in pairs:
            dist, count = ssspc(weighted_grid, s)
            expected.append(QueryResult(dist.get(t, INF), count.get(t, 0)))
        assert [index.query(s, t) for s, t in pairs] == expected
        assert index.query_batch(pairs) == expected

def test_batch_records_metrics(small_grid):
    import repro.obs as obs

    rec = obs.configure()
    try:
        index = CTLSIndex.build(small_grid)
        index.query_batch([(0, 15), (1, 14), (2, 2)])
        snapshot = rec.metrics_snapshot()
        assert snapshot["counters"]["query.batch.count"] == 1
        assert snapshot["counters"]["query.count"] == 3
        assert "query.batch.size" in snapshot["histograms"]
        assert "query.batch.seconds" in snapshot["histograms"]
    finally:
        obs.disable()
