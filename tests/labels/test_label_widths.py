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
