"""Property tests (hypothesis) for the construction's cut and searches.

* The flat-array vertex cut against networkx on random small graphs:
  its size is networkx's minimum node cut between the contracted
  regions, it separates them, and it is the source-closest minimum cut
  (the one a residual-reachability scan of any maximum flow yields).
* The bounded, CSR-based cut-vertex searches of CTLS*-Construct against
  a reference kept here: the unbounded searches over the boundary graph
  of ``side ∪ cut``, as Algorithm 5 states them.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.spc_graph_build import BlockOutDist, build_spc_graph_cutsearch
from repro.flow.vertex_cut import min_vertex_cut_between_regions
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.spc_graph import add_shortcut
from repro.graph.subgraph import boundary_graph
from repro.obs import Recorder
from repro.partition.balanced_cut import balanced_cut
from repro.search.dijkstra import ssspc
from repro.search.fast import ssspc_csr
from repro.types import INF

common_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def region_cases(draw):
    """A random graph and two non-adjacent regions; the rest is middle."""
    n = draw(st.integers(min_value=3, max_value=14))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    density = draw(st.floats(min_value=0.1, max_value=0.6))
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            g.add_edge(u, v, 1)
    vertices = list(range(n))
    rng.shuffle(vertices)
    left = set(vertices[: rng.randint(1, max(1, n // 3))])
    near = set(left)
    for v in left:
        near.update(g.adj(v))
    far = [v for v in vertices if v not in near]
    right = set(far[: rng.randint(0, len(far))])
    middle = [v for v in range(n) if v not in left and v not in right]
    return g, left, right, middle


def split_network(graph, left, right, middle):
    """The vertex-split digraph networkx solves, with ``s`` and ``t``."""
    net = nx.DiGraph()
    net.add_nodes_from(["s", "t"])
    node = {v: "s" for v in left}
    node.update({v: "t" for v in right})
    for v in middle:
        net.add_edge(("in", v), ("out", v), capacity=1)
    for u, v, _w, _c in graph.edges():
        for a, b in ((u, v), (v, u)):
            tail = ("out", a) if a in middle else node.get(a)
            head = ("in", b) if b in middle else node.get(b)
            if tail is not None and head is not None and tail != head:
                net.add_edge(tail, head)  # no capacity: infinite
    return net


def reached_without(graph, sources, removed):
    seen = set(sources)
    stack = list(sources)
    while stack:
        v = stack.pop()
        for w in graph.adj(v):
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return seen


@common_settings
@given(case=region_cases())
def test_vertex_cut_matches_networkx(case):
    graph, left, right, middle = case
    cut = min_vertex_cut_between_regions(graph, left, right, middle)
    assert cut == sorted(cut) and set(cut) <= set(middle)
    if not right:
        assert cut == []
        return

    # Minimum: networkx's min node cut between the contracted regions.
    contracted = nx.Graph()
    contracted.add_nodes_from(["s", "t", *middle])
    rename = {v: "s" for v in left}
    rename.update({v: "t" for v in right})
    for u, v, _w, _c in graph.edges():
        a, b = rename.get(u, u), rename.get(v, v)
        if a != b:
            contracted.add_edge(a, b)
    assert len(cut) == nx.node_connectivity(contracted, "s", "t")

    # It separates the regions.
    assert not reached_without(graph, left, set(cut)) & right

    # Source-closest: the cut a residual scan of networkx's flow yields.
    net = split_network(graph, left, right, middle)
    residual = nx.algorithms.flow.edmonds_karp(net, "s", "t")
    reachable = {"s"}
    stack = ["s"]
    while stack:
        x = stack.pop()
        for y, arc in residual[x].items():
            if arc["capacity"] - arc["flow"] > 0 and y not in reachable:
                reachable.add(y)
                stack.append(y)
    want = sorted(
        v for v in middle
        if ("in", v) in reachable and ("out", v) not in reachable
    )
    assert cut == want


@st.composite
def tie_graphs(draw):
    """Grid-like graphs with few distinct weights (many equal-length
    paths, wide cuts), some edges dropped, and sometimes a separate
    component (unreachable pairs)."""
    rows = draw(st.integers(min_value=2, max_value=6))
    cols = draw(st.integers(min_value=3, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    keep = draw(st.floats(min_value=0.7, max_value=1.0))
    g = Graph()
    for v in range(rows * cols):
        g.add_vertex(v)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            for w in (v + 1 if c + 1 < cols else None,
                      v + cols if r + 1 < rows else None):
                if w is not None and rng.random() < keep:
                    weight = rng.choice((1, 1, 2))
                    g.add_edge(v, w, weight, rng.choice((1, 1, 2)))
    if draw(st.booleans()):
        base = rows * cols
        for i in range(draw(st.integers(min_value=1, max_value=4))):
            g.add_edge(base + i, base + i + 1, rng.choice((1, 2)))
    return g


def reference_cutsearch(pg, side, cut, through_cut):
    """Algorithm 5 with unbounded phase-1 searches on the boundary graph."""
    cut_list = sorted(cut)
    cut_set = set(cut_list)
    zone = set(side) | cut_set
    work = pg.induced_subgraph(zone)
    bg = boundary_graph(pg, zone)
    for u in cut_list:
        if not bg.has_vertex(u):
            continue
        dist, count = ssspc(bg, u, terminal=cut_set)
        for v in cut_list:
            if v > u and v in dist and dist[v] == through_cut(u, v):
                add_shortcut(work, u, v, dist[v], count[v])
    for c in cut_list:
        neighbours = sorted(work.adj(c).items())
        for (u, (du, cu)), (v, (dv, cv)) in combinations(neighbours, 2):
            if through_cut(u, v) == du + dv:
                add_shortcut(work, u, v, du + dv, cu * cv)
        work.remove_vertex(c)
    return work


def adjacency(graph):
    """Edges with their data, in the graph's own order."""
    return [(v, list(graph.adj(v).items())) for v in graph.vertices()]


@common_settings
@given(graph=tie_graphs())
def test_bounded_cutsearch_matches_boundary_graph_reference(graph):
    part = balanced_cut(graph, leaf_size=2)
    if part.is_degenerate:
        return
    csr = CSRGraph(graph)
    blocks = {v: [] for v in graph.vertices()}
    excluded = set()
    for c in part.cut:
        dist, _count = ssspc_csr(csr, c, excluded=excluded)
        for v in blocks:
            if v not in excluded:
                blocks[v].append(dist.get(v, INF))
        excluded.add(c)
    through = BlockOutDist(blocks)
    for side in (part.left, part.right):
        if not side:
            continue
        want = reference_cutsearch(graph, side, part.cut, through)
        got = build_spc_graph_cutsearch(
            graph, side, part.cut, through, Recorder(), csr=csr
        )
        # Equal edges, weights, counts, and even adjacency order (the
        # next node's BalancedCut breaks ties by it).
        assert adjacency(got) == adjacency(want)
