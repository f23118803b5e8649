"""Tests for dynamic edge-weight maintenance."""

import random

import pytest

from repro.core.dynamic import DynamicCTL, DynamicCTLS
from repro.exceptions import EdgeError, LiveUpdateError
from repro.graph.generators import grid_graph, road_network
from repro.search.pairwise import spc_query


def assert_matches_oracle(dynamic, graph, pairs):
    for s, t in pairs:
        assert tuple(dynamic.query(s, t)) == tuple(spc_query(graph, s, t))


class TestDynamicCTL:
    def test_initial_queries(self, diamond):
        dyn = DynamicCTL(diamond)
        assert tuple(dyn.query(0, 3)) == (2, 2)

    def test_increase_breaks_tie(self, diamond):
        dyn = DynamicCTL(diamond)
        dyn.update_weight(0, 1, 5)  # route via 1 now longer
        assert tuple(dyn.query(0, 3)) == (2, 1)

    def test_decrease_creates_shorter_path(self, diamond):
        dyn = DynamicCTL(diamond)
        dyn.update_weight(0, 1, 0.5)
        assert tuple(dyn.query(0, 3)) == (1.5, 1)

    def test_missing_edge(self, diamond):
        dyn = DynamicCTL(diamond)
        with pytest.raises(EdgeError):
            dyn.update_weight(0, 3, 2)

    def test_non_positive_weight(self, diamond):
        dyn = DynamicCTL(diamond)
        with pytest.raises(EdgeError):
            dyn.update_weight(0, 1, 0)

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_weight_rejected(self, diamond, weight):
        dyn = DynamicCTL(diamond)
        with pytest.raises(EdgeError, match="finite"):
            dyn.update_weight(0, 1, weight)
        assert dyn.graph.weight(0, 1) == 1
        assert tuple(dyn.query(0, 3)) == (2, 2)

    def test_boolean_weight_rejected(self, diamond):
        dyn = DynamicCTL(diamond)
        with pytest.raises(LiveUpdateError, match="number"):
            dyn.update_weight(0, 1, True)
        assert tuple(dyn.query(0, 3)) == (2, 2)

    def test_last_repaired_entries(self, diamond):
        dyn = DynamicCTL(diamond)
        dyn.update_weight(0, 1, 5)
        assert dyn.last_repaired_entries > 0
        dyn.update_weight(0, 1, 5)
        assert dyn.last_repaired_entries == 0

    def test_noop_update(self, diamond):
        dyn = DynamicCTL(diamond)
        dyn.update_weight(0, 1, 1)
        assert dyn.last_repaired_nodes == 0

    def test_repair_is_local(self):
        g = road_network(300, seed=6)
        dyn = DynamicCTL(g)
        u, v, w, _c = next(iter(g.edges()))
        dyn.update_weight(u, v, w + 7)
        assert 0 < dyn.last_repaired_nodes <= dyn.index.tree.num_nodes

    def test_random_update_sequence_grid(self):
        g = grid_graph(5, 5)
        dyn = DynamicCTL(g)
        rng = random.Random(3)
        edges = sorted((u, v) for u, v, _w, _c in g.edges())
        pairs = [(rng.randrange(25), rng.randrange(25)) for _ in range(40)]
        for step in range(6):
            u, v = edges[rng.randrange(len(edges))]
            new_weight = rng.choice((1, 2, 3, 5))
            dyn.update_weight(u, v, new_weight)
            assert_matches_oracle(dyn, dyn.graph, pairs)

    def test_random_update_sequence_road(self):
        g = road_network(200, seed=8)
        dyn = DynamicCTL(g)
        rng = random.Random(4)
        edges = sorted((u, v) for u, v, _w, _c in g.edges())
        vertices = sorted(g.vertices())
        pairs = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(30)
        ]
        for _step in range(4):
            u, v = edges[rng.randrange(len(edges))]
            old = dyn.graph.weight(u, v)
            new_weight = max(1, old + rng.choice((-20, -5, 5, 20)))
            dyn.update_weight(u, v, new_weight)
            assert_matches_oracle(dyn, dyn.graph, pairs)


class TestDynamicCTLBatches:
    def test_batch_matches_sequential(self):
        g = grid_graph(4, 4)
        batch = [(0, 1, 5), (5, 6, 2), (10, 11, 7)]
        batched = DynamicCTL(grid_graph(4, 4))
        assert batched.update_weights(batch) == batched.last_repaired_nodes
        sequential = DynamicCTL(g)
        for u, v, w in batch:
            sequential.update_weight(u, v, w)
        for s in range(16):
            for t in range(16):
                assert tuple(batched.query(s, t)) == tuple(
                    sequential.query(s, t)
                )

    def test_batch_dedupes_shared_ancestors(self):
        """Two updates under one LCA repair each node once, not twice."""
        dyn = DynamicCTL(grid_graph(4, 4))
        dyn.update_weights([(0, 1, 5), (1, 2, 5)])
        both = dyn.last_repaired_nodes
        dyn2 = DynamicCTL(grid_graph(4, 4))
        dyn2.update_weight(0, 1, 5)
        first = dyn2.last_repaired_nodes
        dyn2.update_weight(1, 2, 5)
        second = dyn2.last_repaired_nodes
        assert both < first + second

    def test_batch_last_write_wins(self, diamond):
        dyn = DynamicCTL(diamond)
        dyn.update_weights([(0, 1, 9), (0, 1, 5)])
        assert dyn.graph.weight(0, 1) == 5
        assert_matches_oracle(dyn, dyn.graph, [(0, 3), (1, 2)])

    def test_batch_of_noops_repairs_nothing(self, diamond):
        dyn = DynamicCTL(diamond)
        weights = [(u, v, w) for u, v, w, _c in diamond.edges()]
        assert dyn.update_weights(weights) == 0
        assert dyn.last_repaired_nodes == 0

    def test_batch_validates_before_writing(self, diamond):
        dyn = DynamicCTL(diamond)
        with pytest.raises(EdgeError):
            dyn.update_weights([(0, 1, 7), (0, 3, 1)])  # (0,3) missing
        assert dyn.graph.weight(0, 1) == 1  # first write never landed


class TestDynamicCTLS:
    def test_deferred_rebuild(self, diamond):
        dyn = DynamicCTLS(diamond)
        dyn.update_weight(0, 1, 3)
        dyn.update_weight(0, 2, 3)
        assert dyn.rebuilds == 0  # deferred
        assert tuple(dyn.query(0, 3)) == (4, 2)
        assert dyn.rebuilds == 1

    def test_noop_update_no_rebuild(self, diamond):
        dyn = DynamicCTLS(diamond)
        dyn.update_weight(0, 1, 1)
        dyn.query(0, 3)
        assert dyn.rebuilds == 0

    def test_refresh_idempotent(self, diamond):
        dyn = DynamicCTLS(diamond)
        dyn.update_weight(0, 1, 2)
        dyn.refresh()
        dyn.refresh()
        assert dyn.rebuilds == 1

    def test_matches_oracle_after_updates(self):
        g = grid_graph(4, 4)
        dyn = DynamicCTLS(g)
        rng = random.Random(5)
        edges = sorted((u, v) for u, v, _w, _c in g.edges())
        for _ in range(3):
            u, v = edges[rng.randrange(len(edges))]
            dyn.update_weight(u, v, rng.choice((1, 2, 4)))
        pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(40)]
        assert_matches_oracle(dyn, dyn.graph, pairs)

    def test_validation_errors(self, diamond):
        dyn = DynamicCTLS(diamond)
        with pytest.raises(EdgeError):
            dyn.update_weight(0, 3, 1)
        with pytest.raises(EdgeError):
            dyn.update_weight(0, 1, -2)

    def test_pending_updates_counter(self, diamond):
        dyn = DynamicCTLS(diamond)
        assert dyn.pending_updates == 0
        dyn.update_weight(0, 1, 3)
        dyn.update_weight(0, 2, 3)
        assert dyn.pending_updates == 2
        assert dyn.refresh() is True
        assert dyn.pending_updates == 0
        assert dyn.rebuilds == 1

    def test_refresh_without_pending_is_noop(self, diamond):
        dyn = DynamicCTLS(diamond)
        assert dyn.refresh() is False
        assert dyn.rebuilds == 0

    def test_refresh_force_rebuilds_clean_index(self, diamond):
        dyn = DynamicCTLS(diamond)
        assert dyn.refresh(force=True) is True
        assert dyn.rebuilds == 1
        assert tuple(dyn.query(0, 3)) == (2, 2)
