"""Property tests on structural substrates: TD, serialization, LCA."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.tree_decomposition import minimum_degree_elimination
from repro.core.ctls import CTLSIndex
from repro.core.serialize import load_index, save_index
from repro.graph.graph import Graph
from repro.graph.spc_graph import is_spc_graph_of
from repro.graph.subgraph import boundary_graph, border_vertices
from repro.tree.lca import BitCodeLCA, LCATable

common_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_graphs(draw, max_vertices: int = 14):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=9_999))
    rng = random.Random(seed)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, rng.choice((1, 2, 3)))
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and rng.random() < 0.25:
                g.add_edge(u, v, rng.choice((1, 2, 3, 4)))
    return g


@common_settings
@given(graph=small_graphs())
def test_tree_decomposition_invariants(graph):
    td = minimum_degree_elimination(graph)
    # Every vertex eliminated exactly once.
    assert sorted(td.order) == sorted(graph.vertices())
    # Bags reference only later-eliminated vertices; parents belong to
    # the bag; contraction preserved counts is covered elsewhere.
    for v, bag in td.bags.items():
        members = [u for u, _w, _c in bag]
        assert all(td.order_of[u] > td.order_of[v] for u in members)
        if members:
            assert td.parent[v] in members
    # Original edges are covered: each edge appears in the bag of its
    # earlier-eliminated endpoint with the original (or shorter) weight.
    for u, v, w, _c in graph.edges():
        first, second = (u, v) if td.order_of[u] < td.order_of[v] else (v, u)
        bag_targets = {t: bw for t, bw, _bc in td.bags[first]}
        assert second in bag_targets
        assert bag_targets[second] <= w


@common_settings
@given(graph=small_graphs())
def test_serialize_round_trip_property(graph):
    import tempfile
    from pathlib import Path

    index = CTLSIndex.build(graph, leaf_size=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.json"
        save_index(index, path)
        loaded = load_index(path)
    vertices = sorted(graph.vertices())
    for s in vertices[:5]:
        for t in vertices[-5:]:
            assert tuple(loaded.query(s, t)) == tuple(index.query(s, t))


@common_settings
@given(graph=small_graphs())
def test_boundary_graph_partition_of_edges(graph):
    """Every edge is inside G[L] xor in the boundary graph of L."""
    vertices = sorted(graph.vertices())
    part = set(vertices[: len(vertices) // 2])
    bg = boundary_graph(graph, part)
    inner = graph.induced_subgraph(part)
    for u, v, _w, _c in graph.edges():
        in_inner = inner.has_edge(u, v)
        in_bg = bg.has_edge(u, v)
        assert in_inner != in_bg
    # Border vertices appear in the boundary graph (unless isolated).
    for b in border_vertices(graph, part):
        assert bg.has_vertex(b)


@common_settings
@given(
    seed=st.integers(min_value=0, max_value=9_999),
    n=st.integers(min_value=1, max_value=60),
)
def test_lca_matches_bruteforce(seed, n):
    rng = random.Random(seed)
    parents = [-1] + [rng.randrange(i) for i in range(1, n)]
    table = LCATable(parents)

    def chain(x):
        out = []
        while x >= 0:
            out.append(x)
            x = parents[x]
        return out

    for _ in range(10):
        a, b = rng.randrange(n), rng.randrange(n)
        chain_b = set(chain(b))
        expected = next(x for x in chain(a) if x in chain_b)
        assert table.lca(a, b) == expected


def _walk_lca(parents, a, b):
    """The LCA by walking parent links: the reference answer."""
    def chain(x):
        out = []
        while x >= 0:
            out.append(x)
            x = parents[x]
        return out

    chain_b = set(chain(b))
    return next(x for x in chain(a) if x in chain_b)


@st.composite
def binary_parent_arrays(draw):
    """Random binary trees as parent arrays (parents before children),
    often grown on top of a spine deeper than 64 levels, so codes
    outgrow a machine word."""
    spine = draw(st.sampled_from([0, 0, 70, 130]))
    extra = draw(st.integers(min_value=0, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=9_999))
    rng = random.Random(seed)
    parents = [-1] + list(range(max(spine, 1) - 1))
    kids = [1] * (len(parents) - 1) + [0]
    for i in range(len(parents), len(parents) + extra):
        open_nodes = [j for j in range(i) if kids[j] < 2]
        p = rng.choice(open_nodes)
        kids[p] += 1
        kids.append(0)
        parents.append(p)
    return parents


@common_settings
@given(parents=binary_parent_arrays(), seed=st.integers(0, 9_999))
def test_bit_code_lca_matches_parent_walk(parents, seed):
    rng = random.Random(seed)
    lca = BitCodeLCA(parents)
    n = len(parents)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(20)]
    deepest = max(range(n), key=lca.depths.__getitem__)
    pairs += [(deepest, rng.randrange(n)), (0, deepest), (deepest, deepest)]
    for a, b in pairs:
        want = _walk_lca(parents, a, b)
        assert lca.lca(a, b) == want
        assert lca.depths[a] == len(bin(lca.codes[a])) - 3


@common_settings
@given(graph=small_graphs(max_vertices=10))
def test_identity_spc_graph(graph):
    """Sanity: every graph is an SPC-Graph of itself."""
    assert is_spc_graph_of(graph, graph)
