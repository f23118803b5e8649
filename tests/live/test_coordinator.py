"""UpdateCoordinator: validation, atomic batches, rebuild-and-swap."""

import random

import pytest

from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.exceptions import EdgeError, LiveUpdateError
from repro.graph.generators import grid_graph, road_network
from repro.live import UpdateCoordinator
from repro.search.pairwise import spc_query


@pytest.fixture()
def graph():
    return road_network(100, seed=7)


@pytest.fixture()
def coordinator(graph):
    return UpdateCoordinator(graph, CTLIndex.build(graph))


def _random_batches(graph, *, rounds, per_batch=4, seed=0):
    rng = random.Random(seed)
    edges = [(u, v, w) for u, v, w, _ in graph.edges()]
    for _ in range(rounds):
        yield [
            (u, v, rng.randint(1, 2 * max(w, 1)))
            for u, v, w in rng.sample(edges, per_batch)
        ]


def _assert_parity(coordinator, mirror, *, seed, samples=80):
    rng = random.Random(seed)
    vertices = sorted(mirror.vertices())
    pairs = [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(samples)
    ]
    got = coordinator.live_index.query_batch(pairs)
    for (s, t), result in zip(pairs, got):
        assert tuple(result) == tuple(spc_query(mirror, s, t)), (s, t)


class TestValidation:
    def test_rejects_non_ctl_index(self, graph):
        with pytest.raises(LiveUpdateError, match="CTL"):
            UpdateCoordinator(graph, CTLSIndex.build(graph))

    def test_rejects_swapped_graph_and_index(self, graph):
        # Any object in the index's place is refused with the same
        # error, naming its type.
        index = CTLIndex.build(graph)
        with pytest.raises(LiveUpdateError, match="got Graph"):
            UpdateCoordinator(index, graph)

    def test_rejects_unknown_edge(self, coordinator):
        with pytest.raises(EdgeError):
            coordinator.apply_batch([(0, 10**9, 5)])

    def test_rejects_non_positive_weight(self, coordinator, graph):
        u, v, _w, _c = next(iter(graph.edges()))
        with pytest.raises(EdgeError):
            coordinator.apply_batch([(u, v, 0)])

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_non_finite_weight(self, coordinator, graph, weight):
        u, v, w, _c = next(iter(graph.edges()))
        with pytest.raises(EdgeError, match="finite"):
            coordinator.validate_batch([(u, v, weight)])
        with pytest.raises(EdgeError, match="finite"):
            coordinator.apply_batch([(u, v, weight)])
        assert coordinator.graph.weight(u, v) == w
        assert coordinator.live_index.state.seqno == 0

    def test_rejects_malformed_updates(self, coordinator):
        for bad in [[(1, 2)], [(1, 2, 3, 4)], [(True, 2, 3)], "nope", [17]]:
            with pytest.raises(LiveUpdateError):
                coordinator.validate_batch(bad)

    def test_validation_is_atomic(self, coordinator, graph):
        """One bad update rejects the whole batch before any write."""
        u, v, w, _c = next(iter(graph.edges()))
        before = coordinator.live_index.state.seqno
        with pytest.raises(EdgeError):
            coordinator.apply_batch([(u, v, w + 1), (0, 10**9, 5)])
        assert coordinator.live_index.state.seqno == before
        assert coordinator.graph.weight(u, v) == w


class TestApplyBatch:
    def test_report_fields(self, coordinator, graph):
        u, v, w, _c = next(iter(graph.edges()))
        report = coordinator.apply_batch([(u, v, w + 3), (u, v, w + 3)])
        assert report.seqno == 1
        assert report.epoch == 1
        assert report.submitted_edges == 2
        assert report.updated_edges == 1  # deduplicated no-op second write
        assert report.repaired_nodes > 0
        assert report.repaired_entries >= len(report.changed_vertices)
        assert u in report.changed_vertices or v in report.changed_vertices \
            or report.overlay_entries == 0

    def test_noop_batch_still_bumps_seqno(self, coordinator, graph):
        u, v, w, _c = next(iter(graph.edges()))
        report = coordinator.apply_batch([(u, v, w)])
        assert report.updated_edges == 0
        assert report.seqno == 1
        assert report.overlay_entries == 0

    def test_parity_across_stream(self, coordinator, graph):
        mirror = graph.copy()
        for i, batch in enumerate(_random_batches(graph, rounds=5, seed=1)):
            coordinator.apply_batch(batch)
            for a, b, w in batch:
                mirror.add_edge(a, b, w, mirror.count(a, b))
            _assert_parity(coordinator, mirror, seed=100 + i)

    def test_revert_shrinks_overlay(self, coordinator, graph):
        """Undoing a batch un-patches entries instead of stacking them."""
        original = [(u, v, w) for u, v, w, _ in graph.edges()][:4]
        changed = [(u, v, w + 5) for u, v, w in original]
        coordinator.apply_batch(changed)
        grown = coordinator.live_index.state.entries
        assert grown > 0
        coordinator.apply_batch(original)
        assert coordinator.live_index.state.entries == 0
        _assert_parity(coordinator, graph, seed=9)


class TestRebuild:
    def test_rebuild_and_adopt_clears_overlay(self, coordinator, graph):
        mirror = graph.copy()
        for batch in _random_batches(graph, rounds=3, seed=2):
            coordinator.apply_batch(batch)
            for a, b, w in batch:
                mirror.add_edge(a, b, w, mirror.count(a, b))
        assert coordinator.live_index.state.entries > 0
        new_index, base_seqno = coordinator.rebuild()
        info = coordinator.adopt_base(new_index, base_seqno)
        assert info["epoch"] == 2
        assert info["replayed_edges"] == 0
        assert coordinator.live_index.state.entries == 0
        _assert_parity(coordinator, mirror, seed=20)

    def test_adopt_replays_post_snapshot_batches(self, coordinator, graph):
        mirror = graph.copy()
        batches = list(_random_batches(graph, rounds=4, seed=3))
        for batch in batches[:2]:
            coordinator.apply_batch(batch)
            for a, b, w in batch:
                mirror.add_edge(a, b, w, mirror.count(a, b))
        new_index, base_seqno = coordinator.rebuild()
        # Updates landing while the rebuild runs must survive the swap.
        for batch in batches[2:]:
            coordinator.apply_batch(batch)
            for a, b, w in batch:
                mirror.add_edge(a, b, w, mirror.count(a, b))
        info = coordinator.adopt_base(new_index, base_seqno)
        assert info["replayed_edges"] > 0
        assert coordinator.live_index.state.epoch == 2
        # seqno is continuous across the swap: clients see one timeline.
        assert coordinator.live_index.state.seqno == len(batches)
        _assert_parity(coordinator, mirror, seed=30)

    def test_adopt_after_thousands_of_post_snapshot_batches(self):
        """Adoption sweeps exactly the edges changed since the snapshot,
        however many batches changed them."""
        grid = grid_graph(4, 4)
        coordinator = UpdateCoordinator(grid, CTLIndex.build(grid))
        mirror = grid.copy()
        edges = sorted((u, v) for u, v, _w, _c in grid.edges())
        for u, v in edges[-2:]:  # changed before the snapshot only
            coordinator.apply_batch([(u, v, 4)])
            mirror.add_edge(u, v, 4, mirror.count(u, v))
        new_index, base_seqno = coordinator.rebuild()
        rng = random.Random(6)
        changed = set()
        for _ in range(4100):
            u, v = rng.choice(edges[:8])
            weight = rng.randint(1, 3)
            if coordinator.apply_batch([(u, v, weight)]).updated_edges:
                changed.add((u, v))
            mirror.add_edge(u, v, weight, mirror.count(u, v))
        info = coordinator.adopt_base(new_index, base_seqno)
        assert info["seqno"] == base_seqno + 4100
        assert info["replayed_edges"] == len(changed) == 8
        _assert_parity(coordinator, mirror, seed=40, samples=200)

    def test_should_rebuild_threshold(self, graph):
        coordinator = UpdateCoordinator(
            graph, CTLIndex.build(graph), overlay_threshold=1
        )
        assert not coordinator.should_rebuild()
        for batch in _random_batches(graph, rounds=1, seed=5):
            coordinator.apply_batch(batch)
        assert coordinator.should_rebuild()


class TestFreshnessFallback:
    def test_stats_shape(self, coordinator):
        stats = coordinator.stats()
        for key in (
            "epoch",
            "seqno",
            "overlay_entries",
            "poisoned_vertices",
            "applied_batches",
            "applied_edges",
            "rebuilds",
            "rebuild_due",
        ):
            assert key in stats
