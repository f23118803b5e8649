"""Overlay semantics: immutable snapshots, side rows, patched scans."""

import random
import sys
import threading

import pytest

from repro.core.ctl import CTLIndex
from repro.exceptions import IndexQueryError, LiveUpdateError
from repro.graph.generators import road_network
from repro.live import LiveIndex, OverlayState, UpdateCoordinator
from repro.live.overlay import read_patch_rows
from repro.search.pairwise import spc_query
from repro.types import INF


class TestOverlayState:
    def test_initial_is_empty(self):
        state = OverlayState.initial()
        assert state.epoch == 1
        assert state.seqno == 0
        assert state.entries == 0
        assert state.poisoned_vertices == 0

    def test_with_batch_merges_per_position(self):
        state = OverlayState.initial()
        one = state.with_batch({4: {0: (10, 2), 3: (7, 1)}})
        two = one.with_batch({4: {0: (9, 1)}, 5: {1: (2, 2)}})
        assert two.seqno == 2
        assert two.patches[4] == {0: (9, 1), 3: (7, 1)}
        assert two.patches[5] == {1: (2, 2)}
        # The older snapshots are untouched (readers may hold them).
        assert one.patches[4] == {0: (10, 2), 3: (7, 1)}
        assert 5 not in one.patches

    def test_none_unpatches_and_drops_empty_vertices(self):
        state = OverlayState.initial().with_batch({4: {0: (10, 2)}})
        cleared = state.with_batch({4: {0: None}})
        assert cleared.entries == 0
        assert 4 not in cleared.patches

    def test_read_patch_rows_refuses_malformed_entries(self):
        assert read_patch_rows([[4, 0, "inf", 0], [4, 1, None, None]]) == {
            4: {0: (INF, 0), 1: None}
        }
        # A negative count would read as the overflow-lane marker.
        for row in ([4, 0, 1, -1], [4, 0, -1, 1], [4, 0, "inf", "1"]):
            with pytest.raises(LiveUpdateError):
                read_patch_rows([row])

    def test_seqno_bumps_even_for_empty_batch(self):
        state = OverlayState.initial()
        assert state.with_batch({}).seqno == 1


@pytest.fixture(scope="module")
def setting():
    graph = road_network(120, seed=5)
    index = CTLIndex.build(graph)
    coordinator = UpdateCoordinator(graph, index)
    return graph, coordinator


def _apply_some_updates(graph, coordinator, seed=0, rounds=3):
    rng = random.Random(seed)
    edges = [(u, v, w) for u, v, w, _ in graph.edges()]
    mirror = graph.copy()
    for _ in range(rounds):
        batch = [
            (u, v, rng.randint(1, 2 * max(w, 1)))
            for u, v, w in rng.sample(edges, 4)
        ]
        coordinator.apply_batch(batch)
        for a, b, w in batch:
            mirror.add_edge(a, b, w, mirror.count(a, b))
    return mirror


class TestLiveIndex:
    def test_clean_index_delegates(self, setting):
        graph, coordinator = setting
        live = coordinator.live_index
        assert live.name == "CTL+live"
        for s, t in [(0, 1), (5, 80), (3, 3)]:
            assert tuple(live.query(s, t)) == tuple(spc_query(graph, s, t))

    def test_unknown_vertex_raises_like_base(self, setting):
        _, coordinator = setting
        with pytest.raises(IndexQueryError):
            coordinator.live_index.query(0, 10**9)

    def test_patched_scan_matches_dijkstra(self):
        graph = road_network(120, seed=5)
        coordinator = UpdateCoordinator(graph, CTLIndex.build(graph))
        mirror = _apply_some_updates(graph, coordinator, seed=2)
        live = coordinator.live_index
        assert live.state.entries > 0, "updates produced no patches"
        rng = random.Random(3)
        vertices = sorted(graph.vertices())
        poisoned_seen = 0
        for _ in range(200):
            s, t = rng.choice(vertices), rng.choice(vertices)
            poisoned_seen += live.pair_poisoned(s, t)
            assert tuple(live.query(s, t)) == tuple(spc_query(mirror, s, t))
        assert poisoned_seen > 0, "workload never hit a poisoned pair"

    def test_query_batch_mixes_clean_and_poisoned(self):
        graph = road_network(120, seed=5)
        coordinator = UpdateCoordinator(graph, CTLIndex.build(graph))
        mirror = _apply_some_updates(graph, coordinator, seed=4)
        live = coordinator.live_index
        rng = random.Random(5)
        vertices = sorted(graph.vertices())
        pairs = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(300)
        ]
        got = live.query_batch(pairs)
        expected = [spc_query(mirror, s, t) for s, t in pairs]
        assert [tuple(r) for r in got] == [tuple(r) for r in expected]

    def test_query_with_stats_poisoned_path(self):
        graph = road_network(120, seed=5)
        coordinator = UpdateCoordinator(graph, CTLIndex.build(graph))
        mirror = _apply_some_updates(graph, coordinator, seed=6)
        live = coordinator.live_index
        vertices = sorted(graph.vertices())
        for s in vertices[:20]:
            for t in vertices[-5:]:
                stats = live.query_with_stats(s, t)
                assert tuple(stats.result) == tuple(spc_query(mirror, s, t))


class TestSideRows:
    def test_side_rows_track_exactly_the_patched_vertices(self):
        graph = road_network(120, seed=5)
        base = CTLIndex.build(graph)
        coordinator = UpdateCoordinator(graph, base)
        live = coordinator.live_index
        assert live.side is None
        arena = base.arena
        sizes = []
        rng = random.Random(11)
        edges = [(u, v, w) for u, v, w, _ in graph.edges()]
        for _ in range(25):
            coordinator.apply_batch([
                (u, v, rng.randint(1, 2 * max(w, 1)))
                for u, v, w in rng.sample(edges, 2)
            ])
            patched = live.state.patches
            side = live.side
            if not patched:
                assert side is None
                continue
            in_side = {
                v for v in arena.vertices
                if side.starts[arena.vertex_ids[v]] >= arena.total_entries
            }
            assert in_side == set(patched)
            for v, row in patched.items():
                expected = [
                    row.get(p, arena.entry(v, p))
                    for p in range(arena.label_length(v))
                ]
                got = [
                    arena.entry(v, p, side)
                    for p in range(arena.label_length(v))
                ]
                assert got == expected
            assert side.size <= side.arena.total_entries
            sizes.append(side.size)
        # Rewritten rows are dropped once the buffers run out of room.
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_unfit_rows_are_refused_and_publish_nothing(self):
        graph = road_network(60, seed=3)
        live = LiveIndex(CTLIndex.build(graph))
        vertex = min(graph.vertices())
        for diff in (
            {vertex: {10**6: (1, 1)}},
            {999999: {0: (2, 3)}},
            {vertex: {-1: (5, 5)}},
        ):
            with pytest.raises(LiveUpdateError):
                live.apply(diff)
            assert live.state.seqno == 0
            assert live.state.entries == 0
        with pytest.raises(LiveUpdateError):
            live.swap(live.base, OverlayState(1, 3, {vertex: {0: None}}))
        assert live.state.seqno == 0

    def test_readers_see_whole_snapshots_while_batches_apply(self):
        """Queries racing batch publication each see one published
        state: never a half-built side arena."""
        graph = road_network(120, seed=5)
        coordinator = UpdateCoordinator(graph, CTLIndex.build(graph))
        live = coordinator.live_index
        rng = random.Random(13)
        vertices = sorted(graph.vertices())
        pairs = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(40)
        ]
        edges = [(u, v, w) for u, v, w, _ in graph.edges()]
        batches = [
            [(u, v, rng.randint(1, 2 * max(w, 1)))
             for u, v, w in rng.sample(edges, 3)]
            for _ in range(12)
        ]
        mirror = graph.copy()
        published = {tuple(tuple(spc_query(mirror, s, t)) for s, t in pairs)}
        for batch in batches:
            for a, b, w in batch:
                mirror.add_edge(a, b, w, mirror.count(a, b))
            published.add(
                tuple(tuple(spc_query(mirror, s, t)) for s, t in pairs)
            )
        seen, stop = [], threading.Event()

        def read():
            while not stop.is_set():
                seen.append(tuple(tuple(r) for r in live.query_batch(pairs)))

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for batch in batches:
                coordinator.apply_batch(batch)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert seen and set(seen) <= published
