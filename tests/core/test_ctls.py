"""Tests for the CTLS-Index (Algorithms 3-5, all strategies)."""

import itertools

import pytest

from repro.core.ctls import STRATEGIES, CTLSIndex
from repro.exceptions import IndexBuildError, IndexQueryError
from repro.graph.generators import cycle_graph, grid_graph
from repro.search.pairwise import spc_query
from repro.types import INF


@pytest.fixture(params=STRATEGIES)
def strategy(request):
    return request.param


class TestCTLSCorrectness:
    def test_exhaustive_small_grid(self, strategy):
        g = grid_graph(4, 3)
        index = CTLSIndex.build(g, strategy=strategy)
        for s, t in itertools.product(range(12), repeat=2):
            assert tuple(index.query(s, t)) == tuple(spc_query(g, s, t))

    def test_cycle(self, strategy):
        g = cycle_graph(9)
        index = CTLSIndex.build(g, strategy=strategy)
        for s, t in itertools.product(range(9), repeat=2):
            assert tuple(index.query(s, t)) == tuple(spc_query(g, s, t))

    def test_road_network(self, road_graph, road_pairs, strategy):
        index = CTLSIndex.build(road_graph, strategy=strategy)
        for s, t in road_pairs:
            assert tuple(index.query(s, t)) == tuple(
                spc_query(road_graph, s, t)
            )

    def test_power_network(self, power_graph, strategy):
        index = CTLSIndex.build(power_graph, strategy=strategy)
        vertices = sorted(power_graph.vertices())
        for s in vertices[::19]:
            for t in vertices[::23]:
                assert tuple(index.query(s, t)) == tuple(
                    spc_query(power_graph, s, t)
                )

    def test_disconnected(self, two_components, strategy):
        index = CTLSIndex.build(two_components, strategy=strategy)
        result = index.query(0, 3)
        assert result.distance == INF and result.count == 0
        assert tuple(index.query(0, 1)) == (5, 1)

    def test_same_vertex(self, diamond, strategy):
        index = CTLSIndex.build(diamond, strategy=strategy)
        assert tuple(index.query(0, 0)) == (0, 1)

    def test_unit_grid_big_counts(self, strategy):
        g = grid_graph(5, 5)
        index = CTLSIndex.build(g, strategy=strategy)
        assert tuple(index.query(0, 24)) == (8, 70)  # C(8, 4)

    def test_unknown_vertex(self, diamond):
        index = CTLSIndex.build(diamond)
        with pytest.raises(IndexQueryError):
            index.query(5, 0)


class TestCTLSConstruction:
    def test_unknown_strategy(self, diamond):
        with pytest.raises(IndexBuildError):
            CTLSIndex.build(diamond, strategy="bogus")

    def test_pruning_reduces_shortcuts(self, road_graph):
        basic = CTLSIndex.build(road_graph, strategy="basic")
        pruned = CTLSIndex.build(road_graph, strategy="pruned")
        assert pruned.build_stats.shortcuts_added < basic.build_stats.shortcuts_added
        assert pruned.build_stats.shortcuts_pruned > 0

    def test_cutsearch_runs_fewer_boundary_searches(self, road_graph):
        basic = CTLSIndex.build(road_graph, strategy="basic")
        cutsearch = CTLSIndex.build(road_graph, strategy="cutsearch")
        assert cutsearch.build_stats.ssspc_runs < basic.build_stats.ssspc_runs

    def test_strategy_recorded(self, diamond):
        index = CTLSIndex.build(diamond, strategy="pruned")
        assert index.strategy == "pruned"
        assert index.build_stats.extras["strategy"] == "pruned"

    def test_deterministic_build(self, power_graph):
        a = CTLSIndex.build(power_graph, seed=3)
        b = CTLSIndex.build(power_graph, seed=3)
        assert a.labels.dist == b.labels.dist
        assert a.labels.count == b.labels.count

    def test_progress_counts_label_entries(self, road_graph):
        events = []
        index = CTLSIndex.build(road_graph, progress=events.append)
        assert [e["nodes"] for e in events] == list(
            range(1, index.tree.num_nodes + 1)
        )
        totals = [e["labels"] for e in events]
        assert totals == sorted(totals)
        assert totals[-1] == index.arena.total_entries

    def test_input_graph_not_modified(self, road_graph):
        m_before = road_graph.num_edges
        CTLSIndex.build(road_graph)
        assert road_graph.num_edges == m_before

    def test_stats_cover_every_vertex(self, road_graph, strategy):
        index = CTLSIndex.build(road_graph, strategy=strategy)
        assert index.stats().num_vertices == road_graph.num_vertices


class TestCTLSQueryShape:
    def test_lca_only_scan_is_narrow(self, road_graph, road_pairs):
        """CTLS visits at most one node block (width), not a root path."""
        index = CTLSIndex.build(road_graph)
        w = index.stats().width
        for s, t in road_pairs[:100]:
            stats = index.query_with_stats(s, t)
            assert stats.visited_labels <= w

    def test_visits_fewer_labels_than_ctl(self, road_graph, road_pairs):
        from repro.core.ctl import CTLIndex

        ctls = CTLSIndex.build(road_graph)
        ctl = CTLIndex.build(road_graph)
        total_ctls = sum(
            ctls.query_with_stats(s, t).visited_labels for s, t in road_pairs
        )
        total_ctl = sum(
            ctl.query_with_stats(s, t).visited_labels for s, t in road_pairs
        )
        assert total_ctls < total_ctl
