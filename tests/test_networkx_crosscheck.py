"""Cross-checks against networkx reference implementations.

networkx is a dev-environment dependency only (the library itself does
not import it); these tests exist because independent implementations
are the strongest oracle available for flow, cut and centrality code.
"""

import random

import networkx as nx
import pytest

from repro.apps.betweenness import betweenness_exact
from repro.flow.vertex_cut import max_flow, min_vertex_cut_pair
from repro.graph.generators import grid_graph, road_network
from repro.graph.graph import Graph
from repro.search.dijkstra import ssspc


def random_digraph_flow_case(seed):
    """A random digraph as flat arrays and as networkx, with ``s``, ``t``."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    adjacency = [[] for _ in range(n)]
    to, cap = [], []
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.35:
                capacity = rng.randint(1, 9)
                adjacency[u].append(len(to))
                to.append(v)
                cap.append(capacity)
                adjacency[v].append(len(to))
                to.append(u)
                cap.append(0)
                nxg.add_edge(u, v, capacity=capacity)
    return (adjacency, to, cap), nxg, 0, n - 1


def random_cut_case(seed):
    """A random graph with two non-adjacent endpoints, and networkx's."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) != (0, n - 1) and rng.random() < 0.35:
                g.add_edge(u, v, 1)
    return g, to_networkx(g), 0, n - 1


class TestDinitzAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(12))
    def test_max_flow_values_agree(self, seed):
        network, nxg, s, t = random_digraph_flow_case(seed)
        assert max_flow(*network, s, t)[0] == nx.maximum_flow_value(nxg, s, t)
        # The vertex cut's size is the max flow of its split network.
        graph, undirected, s, t = random_cut_case(seed)
        cut = min_vertex_cut_pair(graph, s, t)
        assert len(cut) == nx.node_connectivity(undirected, s, t)


def to_networkx(graph: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.vertices())
    for u, v, w, _c in graph.edges():
        nxg.add_edge(u, v, weight=w)
    return nxg


class TestBetweennessAgainstNetworkx:
    @pytest.mark.parametrize(
        "graph_factory",
        [lambda: grid_graph(4, 4), lambda: road_network(150, seed=3)],
        ids=["grid", "road"],
    )
    def test_exact_brandes_agrees(self, graph_factory):
        graph = graph_factory()
        ours = betweenness_exact(graph)
        theirs = nx.betweenness_centrality(
            to_networkx(graph), weight="weight", normalized=False
        )
        for v in graph.vertices():
            assert ours[v] == pytest.approx(theirs[v], abs=1e-9)


class TestCountsAgainstNetworkx:
    def test_ssspc_counts_match_all_shortest_paths(self):
        graph = road_network(120, seed=9)
        nxg = to_networkx(graph)
        source = sorted(graph.vertices())[0]
        dist, count = ssspc(graph, source)
        rng = random.Random(1)
        targets = rng.sample(sorted(graph.vertices()), 15)
        for t in targets:
            if t == source:
                continue
            paths = list(
                nx.all_shortest_paths(nxg, source, t, weight="weight")
            )
            assert count[t] == len(paths)
            assert dist[t] == nx.shortest_path_length(
                nxg, source, t, weight="weight"
            )
