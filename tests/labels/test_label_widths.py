"""Label widths: the narrowest of 16, 32 and 64 bits the values fit.

``LabelArena.from_lists`` picks each array's width from its values:
distances are uint16 up to ``2**14 - 1`` and int32 up to ``2**29 - 1``,
counts uint16 up to ``2**16 - 1`` and int32 up to ``2**31 - 1``;
anything larger keeps the int64 layout and, past ``2**63 - 1``, the
overflow lane.  The properties below build indexes whose largest label
value sits on either side of each boundary and check that the width
is the one the rule names, that every answer equals counting Dijkstra
(with and without numpy), and that a v4 round trip keeps both.

The largest label value is placed exactly by a pendant vertex: every
label entry that involves it is the matching entry of its neighbour
shifted by the pendant edge's weight (distances) or scaled by its
count multiplicity (counts), so one probe build tells which edge puts
the maximum where the test wants it.
"""

from __future__ import annotations

import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.labels.arena as arena_module
from repro.baselines.tl import TLIndex
from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.core.dynamic import DynamicCTL
from repro.core.serialize import load_index, save_index
from repro.graph.generators import grid_graph
from repro.graph.graph import Graph
from repro.labels.arena import LabelArena
from repro.search.dijkstra import ssspc
from repro.types import INF

INDEX_TYPES = (CTLIndex, CTLSIndex, TLIndex)

#: Largest label distance on each side of the uint16 and int32
#: boundaries.
DIST_TOPS = (2 ** 14 - 1, 2 ** 14, 2 ** 29 - 1, 2 ** 29)

#: Count boundaries: uint16 → int32, int32 → int64, and int64 →
#: overflow lane.
COUNT_LIMITS = (2 ** 16 - 1, 2 ** 31 - 1, 2 ** 63 - 1)

#: The width rule spelled out: ``(largest value, typecode)``, narrowest
#: first.
DIST_RULE = ((2 ** 14 - 1, "H"), (2 ** 29 - 1, "i"), (2 ** 60 - 1, "q"))
COUNT_RULE = ((2 ** 16 - 1, "H"), (2 ** 31 - 1, "i"))

#: The stored ``INF`` code of each integer distance width.
INF_CODES = {"H": 2 ** 15 - 1, "i": 2 ** 30 - 1, "q": 2 ** 61}


@st.composite
def integer_graphs(draw, max_vertices: int = 10):
    """Random connected graphs with small integer weights."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    g = Graph()
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, rng.randint(1, 9))
    for _ in range(rng.randrange(n)):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.randint(1, 9))
    return g


@st.composite
def count_grids(draw):
    """Unit-weight grids whose edges carry count multiplicities."""
    rows = draw(st.integers(min_value=2, max_value=5))
    cols = draw(st.integers(min_value=2, max_value=5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    g = Graph()
    for u, v, weight, _ in grid_graph(rows, cols).edges():
        g.add_edge(u, v, weight, rng.randint(1, 3))
    return g


def _with_pendant(graph: Graph, weight: int, count: int) -> Graph:
    g = graph.copy()
    g.add_edge(0, max(g.vertices()) + 1, weight, count)
    return g


def _largest(index):
    """``(largest finite label distance, largest label count)``."""
    dist_of, count_of = index.arena.to_lists()
    top_dist = max(
        (d for row in dist_of.values() for d in row if d != INF), default=0
    )
    top_count = max((c for row in count_of.values() for c in row), default=0)
    return top_dist, top_count


def _dist_cases(graph, index_type):
    """``(graph, index)`` whose largest label distance is each top."""
    probe = 2 ** 20
    shift = _largest(index_type.build(_with_pendant(graph, probe, 1)))[0]
    shift -= probe
    for top in DIST_TOPS:
        g = _with_pendant(graph, top - shift, 1)
        index = index_type.build(g)
        assert _largest(index)[0] == top
        yield g, index


def _count_cases(graph, index_type):
    """``(graph, index)`` whose largest label count straddles each limit."""
    probe = 2 ** 40
    factor, rest = divmod(
        _largest(index_type.build(_with_pendant(graph, 1, probe)))[1], probe
    )
    assert rest == 0 and factor >= 1
    for limit in COUNT_LIMITS:
        for multiplicity in (limit // factor, limit // factor + 1):
            g = _with_pendant(graph, 1, multiplicity)
            index = index_type.build(g)
            assert _largest(index)[1] == multiplicity * factor
            yield g, index


def _expected_widths(index):
    """``(dist, count, overflow entries)`` as the width rule names them."""
    dist_of, count_of = index.arena.to_lists()
    top_dist, top_count = _largest(index)
    spilled = sum(
        c > 2 ** 63 - 1 for row in count_of.values() for c in row
    )
    return (
        next((code for top, code in DIST_RULE if top_dist <= top), "d"),
        next((code for top, code in COUNT_RULE if top_count <= top), "q"),
        spilled,
    )


def _widths(index):
    arena = index.arena
    return (
        arena.dist_typecode,
        arena.count_typecode,
        len(arena.overflow_positions),
    )


def _reference(graph):
    """Every ordered pair and its counting-Dijkstra answer."""
    vertices = sorted(graph.vertices())
    pairs, answers = [], []
    for s in vertices:
        dist, count = ssspc(graph, s)
        for t in vertices:
            pairs.append((s, t))
            answers.append((dist.get(t, INF), count.get(t, 0)))
    return pairs, answers


def _answers(index, pairs):
    batch = [tuple(r) for r in index.query_batch(pairs)]
    assert batch == [tuple(index.query(s, t)) for s, t in pairs]
    return batch


def _check(graph, index, workdir):
    want = _expected_widths(index)
    assert _widths(index) == want
    pairs, expected = _reference(graph)
    assert _answers(index, pairs) == expected
    with mock.patch.object(arena_module, "_numpy", lambda: None):
        assert _answers(index, pairs) == expected
    path = os.path.join(workdir, "index.bin")
    save_index(index, path, format="binary")
    for options in ({}, {"mmap": False}, {"verify": True}):
        loaded = load_index(path, **options)
        assert _widths(loaded) == want
        assert loaded.arena.is_mapped == options.get("mmap", True)
        assert _answers(loaded, pairs) == expected


width_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@width_settings
@given(graph=integer_graphs())
def test_distance_widths_either_side_of_int32(graph):
    """Each index type at distances either side of ``2**14`` and
    ``2**29``."""
    with tempfile.TemporaryDirectory() as workdir:
        for index_type in INDEX_TYPES:
            for g, index in _dist_cases(graph, index_type):
                _check(g, index, workdir)


@width_settings
@given(graph=count_grids())
def test_count_widths_either_side_of_int32_and_int64(graph):
    """Each index type at counts either side of ``2**16``, ``2**31``
    and ``2**63``."""
    with tempfile.TemporaryDirectory() as workdir:
        for index_type in INDEX_TYPES:
            for g, index in _count_cases(graph, index_type):
                _check(g, index, workdir)


def _dynamic_crossing(narrow: str, top: int) -> None:
    """A :class:`DynamicCTL` whose pendant edge weighs just under ``top``
    (the largest distance of width ``narrow``) is updated past it,
    re-seals a width wider and exact, and re-seals at uint16 once the
    weight falls back to 3."""
    graph = _with_pendant(grid_graph(4, 4), top - 100, 1)
    pendant = max(graph.vertices())
    dynamic = DynamicCTL(graph)
    assert dynamic.index.arena.dist_typecode == narrow

    def exact():
        pairs, expected = _reference(dynamic.graph)
        assert _answers(dynamic.index, pairs) == expected

    exact()
    dynamic.update_weight(0, pendant, top + 6)
    wider = "iq"["Hi".index(narrow)]
    assert dynamic.index.arena.dist_typecode == wider
    assert dynamic.query(pendant, 15) == (top + 6 + 6, 20)
    exact()
    dynamic.update_weight(0, pendant, 3)
    assert dynamic.index.arena.dist_typecode == "H"
    exact()


def test_dynamic_update_past_int32_reseals_wide_and_exact():
    _dynamic_crossing("i", 2 ** 29 - 1)


def test_dynamic_update_past_uint16_reseals_wide_and_back():
    _dynamic_crossing("H", 2 ** 14 - 1)


def _merge(dist_of, count_of, a, b):
    """Reference merge of two decoded label rows (INF sums stay INF)."""
    best, total = INF, 0
    for d_a, d_b, c_a, c_b in zip(
        dist_of[a], dist_of[b], count_of[a], count_of[b]
    ):
        d = d_a + d_b
        if d < best:
            best, total = d, c_a * c_b
        elif d == best:
            total += c_a * c_b
    return (best, total) if total else (INF, 0)


@pytest.mark.parametrize("numpy_on", [True, False], ids=["numpy", "scalar"])
@pytest.mark.parametrize(
    "top_dist, top_count, widths",
    [
        (2 ** 14 - 1, 2 ** 16 - 1, "HH"),
        (2 ** 14, 2 ** 16 - 1, "iH"),
        (2 ** 14 - 1, 2 ** 16, "Hi"),
        (2 ** 14, 2 ** 16, "ii"),
    ],
)
def test_16bit_boundaries(top_dist, top_count, widths, numpy_on, monkeypatch):
    """Distances ``2**14 - 1`` / ``2**14`` and counts ``2**16 - 1`` /
    ``2**16`` beside ``INF`` entries: the width, the stored ``INF``
    code, the decoded rows and every merge, sums of two largest
    distances included."""
    order = [0, 1, 2, 3]
    dist = {
        0: [top_dist, INF, 0],
        1: [top_dist, 3, INF],
        2: [INF, INF, 1],
        3: [0, top_dist, INF],
    }
    count = {
        0: [top_count, 0, 1],
        1: [top_count, 2, 0],
        2: [0, 0, top_count],
        3: [1, 1, 0],
    }
    if not numpy_on:
        monkeypatch.setattr(arena_module, "_numpy", lambda: None)
    arena = LabelArena.from_lists(order, dist, count)
    assert arena.dist_typecode + arena.count_typecode == widths
    assert arena.dist[1] == INF_CODES[arena.dist_typecode]
    assert arena.decode_dist(arena.dist[1]) == INF
    assert arena.to_lists() == (dist, count)
    assert arena.entry(2, 0) == (INF, 0)
    assert arena.narrowed() is arena
    pairs = [(a, b) for a in order for b in order]
    expected = [_merge(dist, count, a, b) for a, b in pairs]
    assert expected[1] == (2 * top_dist, top_count ** 2)
    starts = [arena.offsets[a] for a, _ in pairs]
    ends = [arena.offsets[b] for _, b in pairs]
    assert arena.scan_batch(starts, ends, [3] * len(pairs)) == expected
    assert [arena.scan(a, b, 0, 3) for a, b in pairs] == expected


@st.composite
def weighted_trees(draw, max_vertices: int = 8):
    """Random trees with small integer weights (every count is 1)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    g = Graph()
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, rng.randint(1, 9))
    return g


def _with_pendant_and_ladder(tree: Graph, ladder_count: int):
    """``tree`` plus a pendant ``p`` at vertex 0 and a ladder ``0-a-q``,
    ``0-b-q`` whose edge ``a-q`` carries ``ladder_count``; the rung
    ``b-q`` is one longer than ``a-q``, so no shortest paths tie yet.
    Setting the rung to 1 ties them: some label count reaches
    ``ladder_count + 1``."""
    g = tree.copy()
    p, a, b, q = range(max(g.vertices()) + 1, max(g.vertices()) + 5)
    g.add_edge(0, p, 1)
    g.add_edge(0, a, 1)
    g.add_edge(0, b, 1)
    g.add_edge(a, q, 1, ladder_count)
    g.add_edge(b, q, 2)
    return g, p, (b, q)


def _largest_patch(state):
    values = [v for row in state.patches.values() for v in row.values()]
    return (
        max(d for d, _ in values if d != INF),
        max(c for _, c in values),
    )


def _live_side_rows(tree, ladder_count, base_widths, steps):
    """Live batches over a CTL base of ``base_widths`` push the largest
    patched distance to each step's ``top`` (the first step also ties
    the ladder, pushing a patched count past ``ladder_count``): the
    side rows take each step's widths, and answers stay exact for every
    pair of patched and base rows, with and without numpy."""
    from repro.live import UpdateCoordinator

    graph, pendant, (b, q) = _with_pendant_and_ladder(tree, ladder_count)
    index = CTLIndex.build(graph)
    arena = index.arena
    assert arena.dist_typecode + arena.count_typecode == base_widths
    coordinator = UpdateCoordinator(graph, index)
    live = coordinator.live_index
    probe = 2 ** 20
    coordinator.apply_batch([(0, pendant, probe)])
    shift = _largest_patch(live.state)[0] - probe
    seen = set()
    for step, (top, widths) in enumerate(steps):
        batch = [(0, pendant, top - shift)] + [(b, q, 1)] * (step == 0)
        coordinator.apply_batch(batch)
        top_dist, top_count = _largest_patch(live.state)
        assert top_dist == top
        assert top_count > ladder_count
        side = live.side.arena
        assert side.dist_typecode + side.count_typecode == widths
        pairs, expected = _reference(coordinator.graph)
        patched = live.state.patches
        seen |= {(s in patched, t in patched) for s, t in pairs}
        assert _answers(live, pairs) == expected
        with mock.patch.object(arena_module, "_numpy", lambda: None):
            assert _answers(live, pairs) == expected
    assert {(True, True), (True, False), (False, True)} <= seen


@width_settings
@given(tree=weighted_trees())
def test_live_side_rows_either_side_of_int32(tree):
    """A patched distance of exactly ``2**29 - 1`` and then ``2**29``,
    and a patched count past ``2**31 - 1``, over a uint16/int32 base."""
    _live_side_rows(
        tree, 2 ** 31 - 1, "Hi", ((2 ** 29 - 1, "iq"), (2 ** 29, "qq"))
    )


@width_settings
@given(tree=weighted_trees())
def test_live_side_rows_over_a_uint16_base(tree):
    """A uint16 base with uint16, int32 and int64 side rows: patched
    distances ``2**14 - 1``, ``2**14`` and ``2**29`` beside a patched
    count past ``2**16 - 1``."""
    _live_side_rows(
        tree, 2 ** 16 - 1, "HH",
        ((2 ** 14 - 1, "Hi"), (2 ** 14, "ii"), (2 ** 29, "qi")),
    )
