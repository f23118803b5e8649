"""Tests for the packed label arena."""

import random
from array import array

import pytest

from repro.core.ctls import CTLSIndex
from repro.graph.graph import Graph
from repro.labels.arena import (
    COUNT_OVERFLOW,
    INF_ENCODED,
    MAX_INT_DIST,
    WIDTHS,
    LabelArena,
    record_layout_gauges,
)
from repro.labels.store import LabelStore
from repro.obs import Recorder
from repro.types import INF


def diamond_chain(k: int) -> Graph:
    """A chain of ``k`` diamonds: spc(0, end) = 2**k."""
    g = Graph()
    at = 0
    for _ in range(k):
        a, b, c, d = at, at + 1, at + 2, at + 3
        g.add_edge(a, b, 1)
        g.add_edge(a, c, 1)
        g.add_edge(b, d, 1)
        g.add_edge(c, d, 1)
        at = d
    return g


@pytest.fixture
def simple_lists():
    order = [3, 7, 9]
    dist = {3: [0, 2, INF], 7: [1, 0], 9: []}
    count = {3: [1, 4, 0], 7: [2, 1], 9: []}
    return order, dist, count


@pytest.fixture
def all_widths(simple_lists):
    """``(typecode, arena)``: ``simple_lists`` packed at 16 bits, then at
    32 and at 64 bits by one extra last vertex whose distance and count
    need it."""
    order, dist, count = simple_lists

    def extra(distance, count_):
        return LabelArena.from_lists(
            order + [11], {**dist, 11: [distance]}, {**count, 11: [count_]}
        )

    return [
        ("H", LabelArena.from_lists(order, dist, count)),
        ("i", extra(2 ** 14, 2 ** 16)),
        ("q", extra(2 ** 29, 2 ** 31)),
    ]


class TestPacking:
    def test_pack_unpack_round_trip(self, simple_lists):
        order, dist, count = simple_lists
        arena = LabelArena.from_lists(order, dist, count)
        dist_back, count_back = arena.to_lists()
        assert dist_back == dist
        assert count_back == count

    def test_dense_ids_follow_order(self, simple_lists):
        arena = LabelArena.from_lists(*simple_lists)
        assert arena.vertices == [3, 7, 9]
        assert arena.vertex_ids == {3: 0, 7: 1, 9: 2}
        assert list(arena.offsets) == [0, 3, 5, 5]

    def test_inf_is_encoded_not_stored(self, all_widths):
        for code, arena in all_widths:
            assert arena.dist.typecode == code
            assert arena.count.typecode == code
            assert arena.dist[2] == WIDTHS[code].inf
            assert arena.decode_dist(arena.dist[2]) == INF
            assert arena.entry(3, 2) == (INF, 0)
        assert all_widths[2][1].dist[2] == INF_ENCODED

    @pytest.mark.parametrize(
        "distance, code",
        [
            (2 ** 14 - 1, "H"),
            (2 ** 14, "i"),
            (2 ** 29 - 1, "i"),
            (2 ** 29, "q"),
            (MAX_INT_DIST, "q"),
        ],
    )
    def test_dist_width_boundaries(self, distance, code):
        arena = LabelArena.from_lists(
            [0, 1], {0: [distance, INF], 1: [0, 1]}, {0: [1, 0], 1: [1, 1]}
        )
        assert arena.dist_typecode == code
        assert arena.entry(0, 0) == (distance, 1)
        assert arena.entry(0, 1) == (INF, 0)
        assert arena.scan(0, 1, 0, 2) == (distance, 1)

    @pytest.mark.parametrize(
        "count, code, spilled",
        [
            (2 ** 16 - 1, "H", 0),
            (2 ** 16, "i", 0),
            (2 ** 31 - 1, "i", 0),
            (2 ** 31, "q", 0),
            (2 ** 63 - 1, "q", 0),
            (2 ** 63, "q", 1),
        ],
    )
    def test_count_width_boundaries(self, count, code, spilled):
        arena = LabelArena.from_lists(
            [0, 1], {0: [3], 1: [4]}, {0: [count], 1: [count]}
        )
        assert arena.count_typecode == code
        assert len(arena.overflow_positions) == 2 * spilled
        assert arena.to_lists()[1] == {0: [count], 1: [count]}
        assert arena.scan(0, 1, 0, 1) == (7, count * count)

    def test_narrowed_keeps_packed_and_repacks_wider(self, all_widths):
        for _, arena in all_widths:
            assert arena.narrowed() is arena
        narrow = all_widths[0][1]
        # The same values in int32 buffers, as a loader hands over a
        # file written before 16-bit widths existed.
        wider = LabelArena(
            narrow.vertices, narrow.offsets,
            array("i", [0, 2, WIDTHS["i"].inf, 1, 0]), array("i", narrow.count),
        )
        assert wider.to_lists() == narrow.to_lists()
        assert wider.narrowed() == narrow

    def test_float_weights_fall_back_to_doubles(self):
        arena = LabelArena.from_lists(
            [0, 1], {0: [0.5, INF], 1: [1.25]}, {0: [1, 0], 1: [3]}
        )
        assert arena.dist.typecode == "d"
        assert arena.entry(0, 1) == (INF, 0)
        dist_back, count_back = arena.to_lists()
        assert dist_back == {0: [0.5, INF], 1: [1.25]}
        assert count_back == {0: [1, 0], 1: [3]}

    def test_huge_int_distance_falls_back_to_doubles(self):
        arena = LabelArena.from_lists(
            [0], {0: [MAX_INT_DIST + 1]}, {0: [1]}
        )
        assert arena.dist.typecode == "d"

    def test_from_store_uses_sorted_vertex_order(self):
        store = LabelStore([9, 2, 5])
        for v in (2, 5, 9):
            store.append(v, v, 1)
        arena = LabelArena.from_store(store)
        assert arena.vertices == [2, 5, 9]
        assert store.seal().vertices == [2, 5, 9]

    def test_to_store_round_trip(self, simple_lists):
        arena = LabelArena.from_lists(*simple_lists)
        store = arena.to_store()
        assert store.dist == simple_lists[1]
        assert store.count == simple_lists[2]
        assert LabelArena.from_store(store, order=arena.vertices) == arena


class TestOverflowLane:
    def test_counts_beyond_64_bits_survive(self):
        big = 2 ** 200 + 17
        arena = LabelArena.from_lists(
            [0, 1], {0: [0, 1], 1: [0]}, {0: [1, big], 1: [big ** 2]}
        )
        assert arena.count[1] == COUNT_OVERFLOW
        assert arena.entry(0, 1) == (1, big)
        assert arena.entry(1, 0) == (0, big ** 2)
        _, count_back = arena.to_lists()
        assert count_back == {0: [1, big], 1: [big ** 2]}

    def test_scan_reads_overflow_counts(self):
        big = 2 ** 100
        arena = LabelArena.from_lists(
            [0, 1], {0: [3], 1: [4]}, {0: [big], 1: [big]}
        )
        assert arena.scan(0, 1, 0, 1) == (7, big * big)

    def test_index_query_overflows_exactly(self):
        # Deep enough that single *labels* (not just the final product)
        # carry counts beyond 63 bits and land in the overflow lane.
        k = 140
        g = diamond_chain(k)
        index = CTLSIndex.build(g)
        end = 3 * k
        result = index.query(0, end)
        assert result.count == 2 ** k
        assert result.count > 2 ** 63 - 1
        assert len(index.arena.overflow_positions) > 0
        assert index.query_batch([(0, end)]) == [result]


class TestScan:
    def test_scan_matches_reference(self, simple_lists):
        arena = LabelArena.from_lists(*simple_lists)
        # Position 0: 0+1=1 with count 1*2=2; position 1: 2+0=2 loses.
        assert arena.scan(0, 1, 0, 2) == (1, 2)

    def test_scan_disconnected_is_inf(self):
        arena = LabelArena.from_lists(
            [0, 1], {0: [INF], 1: [2]}, {0: [0], 1: [1]}
        )
        assert arena.scan(0, 1, 0, 1) == (INF, 0)

    def test_scan_empty_range(self, simple_lists):
        arena = LabelArena.from_lists(*simple_lists)
        assert arena.scan(0, 1, 0, 0) == (INF, 0)

    def test_scan_batch_matches_scalar(self):
        rng = random.Random(11)
        order = list(range(12))
        dist = {}
        count = {}
        for v in order:
            n = rng.randrange(0, 8)
            dist[v] = [
                INF if rng.random() < 0.2 else rng.randrange(0, 50)
                for _ in range(n)
            ]
            count[v] = [
                0 if d == INF else rng.randrange(1, 9) for d in dist[v]
            ]
        arena = LabelArena.from_lists(order, dist, count)
        offsets = arena.offsets
        starts_a, starts_b, lengths, expected = [], [], [], []
        for _ in range(100):
            a = rng.randrange(12)
            b = rng.randrange(12)
            n = min(len(dist[a]), len(dist[b]))
            n = rng.randrange(0, n + 1)
            starts_a.append(offsets[a])
            starts_b.append(offsets[b])
            lengths.append(n)
            expected.append(arena.scan(a, b, 0, n))
        assert arena.scan_batch(starts_a, starts_b, lengths) == expected

    def test_scan_batch_without_numpy(self, simple_lists, monkeypatch):
        # The vectorised kernel is optional; the scalar fallback must
        # produce identical answers when numpy is unavailable.
        import repro.labels.arena as arena_module

        arena = LabelArena.from_lists(*simple_lists)
        windows = ([0, 0, 3, 0], [3, 0, 0, 3], [2, 3, 2, 0])
        with_numpy = arena.scan_batch(*windows)
        monkeypatch.setattr(arena_module, "_numpy", lambda: None)
        assert arena.scan_batch(*windows) == with_numpy

    def test_scan_batch_small_batches_and_empty(self, simple_lists):
        arena = LabelArena.from_lists(*simple_lists)
        assert arena.scan_batch([], [], []) == []
        assert arena.scan_batch([0], [3], [2]) == [arena.scan(0, 1, 0, 2)]

    def test_scan_batch_overflow_counts(self):
        big = 2 ** 90
        arena = LabelArena.from_lists(
            [0, 1], {0: [3, 5], 1: [4, 1]}, {0: [big, 2], 1: [big, 3]}
        )
        windows = ([0, 0, 0, 0, 0], [2, 2, 2, 2, 2], [1, 2, 1, 2, 0])
        assert arena.scan_batch(*windows) == [
            arena.scan(0, 1, 0, 1),
            arena.scan(0, 1, 0, 2),
            arena.scan(0, 1, 0, 1),
            arena.scan(0, 1, 0, 2),
            (INF, 0),
        ]


class TestSideRows:
    """Rows in a side arena wider than the base compare decoded: the
    base's uint16 ``INF`` code (``2**15 - 1``) is no distance next to an
    int64 side row, and a base row copied into that side row keeps its
    ``INF`` an ``INF``."""

    def _arenas(self):
        base = LabelArena.from_lists(
            [0, 1, 2],
            {0: [INF, 5], 1: [3, 4], 2: [INF, 6]},
            {0: [0, 2], 1: [1, 3], 2: [0, 1]},
        )
        side = base.with_rows(None, {1: {1: (2**40, 7)}, 2: {1: (2**41, 5)}})
        assert (base.dist_typecode, side.arena.dist_typecode) == ("H", "q")
        return base, side

    def test_mixed_width_pairs_match_the_decoded_merge(self, monkeypatch):
        import repro.labels.arena as arena_module

        base, side = self._arenas()
        s = side.starts
        assert s[0] == 0  # vertex 0 keeps its base row
        windows = ([s[0], s[1], s[1], s[2]], [s[1], s[0], s[2], s[1]], [2] * 4)
        expected = [
            (2**40 + 5, 14),
            (2**40 + 5, 14),
            (2**40 + 2**41, 35),
            (2**40 + 2**41, 35),
        ]
        assert base.scan_batch(*windows, side.arena) == expected
        assert [
            base.scan_batch([a], [b], [n], side.arena)[0]
            for a, b, n in zip(*windows)
        ] == expected
        monkeypatch.setattr(arena_module, "_numpy", lambda: None)
        assert base.scan_batch(*windows, side.arena) == expected

    def test_float_side_rows_keep_integer_answers_integers(self):
        base = LabelArena.from_lists(
            [0, 1, 2],
            {0: [0, 4], 1: [3, 1], 2: [2, 5]},
            {0: [1, 1], 1: [1, 2], 2: [1, 1]},
        )
        side = base.with_rows(None, {2: {1: (2.5, 1)}})
        assert side.arena.dist_typecode == "d"
        s = side.starts
        windows = ([s[0], s[1], s[0], s[2]], [s[1], s[0], s[2], s[0]], [2] * 4)
        got = base.scan_batch(*windows, side.arena)
        assert got == [(3, 1), (3, 1), (2, 1), (2, 1)]
        # Base rows add up to integers whatever the batch size; a
        # float-width side row makes its pairs' sums floats.
        singles = [
            base.scan_batch([a], [b], [n], side.arena)[0]
            for a, b, n in zip(*windows)
        ]
        assert [type(d) for d, _ in got] == [type(d) for d, _ in singles]
        assert [type(d) for d, _ in got[:2]] == [int, int]

    def test_side_entries_read_through_entry(self):
        base, side = self._arenas()
        assert base.entry(2, 0, side) == (INF, 0)
        assert base.entry(2, 1, side) == (2**41, 5)
        assert base.entry(0, 1, side) == (5, 2)
        assert base.entry(2, 1) == (6, 1)


class TestShapeAndAccounting:
    def test_lengths_and_totals(self, simple_lists):
        arena = LabelArena.from_lists(*simple_lists)
        assert arena.num_vertices == 3
        assert arena.total_entries == 5
        assert arena.label_length(3) == 3
        assert arena.label_length(9) == 0
        assert arena.max_label_length() == 3

    def test_nbytes_counts_buffers(self, all_widths):
        (_, narrow), (_, middle), (_, wide) = all_widths
        # offsets: 4 * 8, dist: 5 * 2, count: 5 * 2, no overflow.
        assert narrow.nbytes() == 32 + 10 + 10
        assert narrow.size_bytes() == 2 * 4 * 5
        # offsets: 5 * 8, dist: 6 * 4, count: 6 * 4, no overflow.
        assert middle.nbytes() == 40 + 24 + 24
        # offsets: 5 * 8, dist: 6 * 8, count: 6 * 8, no overflow.
        assert wide.nbytes() == 40 + 48 + 48
        assert wide.size_bytes() == middle.size_bytes() == 2 * 4 * 6

    def test_dict_layout_dominates_arena(self, simple_lists):
        arena = LabelArena.from_lists(*simple_lists)
        modelled = LabelArena.dict_layout_bytes(
            arena.num_vertices, arena.total_entries
        )
        assert modelled > arena.nbytes()

    def test_equality_is_bit_for_bit(self, simple_lists):
        a = LabelArena.from_lists(*simple_lists)
        b = LabelArena.from_lists(*simple_lists)
        assert a == b
        order, dist, count = simple_lists
        count = {v: list(c) for v, c in count.items()}
        count[7][0] += 1
        assert a != LabelArena.from_lists(order, dist, count)
        assert a.__eq__(object()) is NotImplemented

    def test_record_layout_gauges(self, simple_lists):
        arena = LabelArena.from_lists(*simple_lists)
        rec = Recorder()
        record_layout_gauges(rec, arena)
        snapshot = rec.metrics_snapshot()["gauges"]
        assert snapshot["labels.arena_bytes"] == arena.nbytes()
        assert snapshot["labels.dict_bytes"] > snapshot["labels.arena_bytes"]
        assert snapshot["labels.overflow_entries"] == 0

    def test_repr_mentions_shape(self, simple_lists):
        arena = LabelArena.from_lists(*simple_lists)
        assert "n=3" in repr(arena)
        assert "entries=5" in repr(arena)
