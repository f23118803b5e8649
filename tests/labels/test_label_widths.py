"""Label widths: 32-bit arrays where the values fit, 64-bit past them.

``LabelArena.from_lists`` picks each array's width from its values:
distances are int32 up to ``2**29 - 1`` and counts up to ``2**31 - 1``;
anything larger keeps the int64 layout and, past ``2**63 - 1``, the
overflow lane.  The property below builds indexes whose largest label
value sits on either side of each boundary and checks that the width
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
from repro.search.dijkstra import ssspc
from repro.types import INF

INDEX_TYPES = (CTLIndex, CTLSIndex, TLIndex)

#: Largest label distance on each side of the int32 boundary.
DIST_TOPS = (2 ** 29 - 1, 2 ** 29)

#: Count boundaries: int32 → int64, and int64 → overflow lane.
COUNT_LIMITS = (2 ** 31 - 1, 2 ** 63 - 1)


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
        "i" if top_dist <= 2 ** 29 - 1 else "q",
        "i" if top_count <= 2 ** 31 - 1 else "q",
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
    with mock.patch.object(arena_module, "_np", None):
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
    with tempfile.TemporaryDirectory() as workdir:
        for index_type in INDEX_TYPES:
            for g, index in _dist_cases(graph, index_type):
                _check(g, index, workdir)


@width_settings
@given(graph=count_grids())
def test_count_widths_either_side_of_int32_and_int64(graph):
    with tempfile.TemporaryDirectory() as workdir:
        for index_type in INDEX_TYPES:
            for g, index in _count_cases(graph, index_type):
                _check(g, index, workdir)


def test_dynamic_update_past_int32_reseals_wide_and_exact():
    graph = _with_pendant(grid_graph(4, 4), 2 ** 29 - 100, 1)
    pendant = max(graph.vertices())
    dynamic = DynamicCTL(graph)
    assert dynamic.index.arena.dist_typecode == "i"

    def exact():
        pairs, expected = _reference(dynamic.graph)
        assert _answers(dynamic.index, pairs) == expected

    exact()
    dynamic.update_weight(0, pendant, 2 ** 29 + 5)
    assert dynamic.index.arena.dist_typecode == "q"
    assert dynamic.query(pendant, 15) == (2 ** 29 + 5 + 6, 20)
    exact()
    dynamic.update_weight(0, pendant, 3)
    assert dynamic.index.arena.dist_typecode == "i"
    exact()


#: Count multiplicity of the ladder edge ``a-q``: the int32 limit.
LADDER_COUNT = 2 ** 31 - 1


@st.composite
def weighted_trees(draw, max_vertices: int = 8):
    """Random trees with small integer weights (every count is 1)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    g = Graph()
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, rng.randint(1, 9))
    return g


def _with_pendant_and_ladder(tree: Graph):
    """``tree`` plus a pendant ``p`` at vertex 0 and a ladder ``0-a-q``,
    ``0-b-q`` whose edge ``a-q`` carries :data:`LADDER_COUNT`; the rung
    ``b-q`` is one longer than ``a-q``, so no shortest paths tie yet.
    Setting the rung to 1 ties them: some label count reaches
    ``LADDER_COUNT + 1``."""
    g = tree.copy()
    p, a, b, q = range(max(g.vertices()) + 1, max(g.vertices()) + 5)
    g.add_edge(0, p, 1)
    g.add_edge(0, a, 1)
    g.add_edge(0, b, 1)
    g.add_edge(a, q, 1, LADDER_COUNT)
    g.add_edge(b, q, 2)
    return g, p, (b, q)


def _largest_patch(state):
    values = [v for row in state.patches.values() for v in row.values()]
    return (
        max(d for d, _ in values if d != INF),
        max(c for _, c in values),
    )


@width_settings
@given(tree=weighted_trees())
def test_live_side_rows_either_side_of_int32(tree):
    """A live batch on an int32 CTL base pushes a patched distance to
    exactly ``2**29 - 1`` and then ``2**29``, and a patched count past
    ``2**31 - 1``: answers stay exact for every pair of patched and
    base rows, with and without numpy."""
    from repro.live import UpdateCoordinator

    graph, pendant, (b, q) = _with_pendant_and_ladder(tree)
    index = CTLIndex.build(graph)
    arena = index.arena
    assert (arena.dist_typecode, arena.count_typecode) == ("i", "i")
    coordinator = UpdateCoordinator(graph, index)
    live = coordinator.live_index
    probe = 2 ** 20
    coordinator.apply_batch([(0, pendant, probe)])
    shift = _largest_patch(live.state)[0] - probe
    seen = set()
    for top, batch, widths in (
        (2 ** 29 - 1, [(0, pendant, 2 ** 29 - 1 - shift), (b, q, 1)], "iq"),
        (2 ** 29, [(0, pendant, 2 ** 29 - shift)], "qq"),
    ):
        coordinator.apply_batch(batch)
        top_dist, top_count = _largest_patch(live.state)
        assert top_dist == top
        assert top_count > 2 ** 31 - 1
        side = live.side.arena
        assert side.dist_typecode + side.count_typecode == widths
        pairs, expected = _reference(coordinator.graph)
        patched = live.state.patches
        seen |= {(s in patched, t in patched) for s, t in pairs}
        assert _answers(live, pairs) == expected
        with mock.patch.object(arena_module, "_np", None):
            assert _answers(live, pairs) == expected
    assert {(True, True), (True, False), (False, True)} <= seen
