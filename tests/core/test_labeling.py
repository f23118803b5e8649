"""Tests for per-node label computation against reference searches.

Each test computes the expected labels itself — one SSSPC per cut
vertex, higher-ranked cut vertices excluded — with a reference search:
``dict`` is :func:`repro.search.dijkstra.ssspc`, ``csr`` is
:func:`repro.search.fast.ssspc_csr`.
"""

import pytest

from repro.core.labeling import compute_node_labels
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph
from repro.graph.graph import Graph
from repro.labels.store import LabelStore
from repro.obs import Recorder
from repro.partition.balanced_cut import balanced_cut
from repro.search.dijkstra import ssspc
from repro.search.fast import ssspc_csr
from repro.types import INF

SEARCHES = {
    "dict": ssspc,
    "csr": lambda graph, source, excluded: ssspc_csr(
        CSRGraph(graph), source, excluded=excluded
    ),
}


def reference_labels(graph, cut, search):
    """``{v: [(dist, count)]}``: this node's label block of every vertex."""
    entries = {v: [] for v in graph.vertices()}
    processed = set()
    for c in cut:
        dist, count = search(graph, c, excluded=processed)
        for u in entries:
            if u not in processed:
                entries[u].append((dist.get(u, INF), count.get(u, 0)))
        processed.add(c)
    return entries


def node_labels(graph, cut, rec=None):
    labels = LabelStore(graph.vertices())
    blocks = compute_node_labels(
        CSRGraph(graph), cut, labels, rec or Recorder()
    )
    return labels, blocks


def as_entries(labels, v):
    return list(zip(labels.dist[v], labels.count[v]))


@pytest.fixture
def node_case():
    graph = grid_graph(5, 5)
    part = balanced_cut(graph)
    assert not part.is_degenerate
    return graph, part


@pytest.mark.parametrize("search", ["dict", "csr"])
class TestComputeNodeLabels:
    def test_appends_one_entry_per_cut_vertex(self, node_case, search):
        graph, part = node_case
        rec = Recorder()
        labels, _blocks = node_labels(graph, part.cut, rec)
        for v in part.left + part.right:
            assert labels.label_length(v) == len(part.cut)
        # Cut vertices get truncated rows ending at themselves.
        for position, c in enumerate(part.cut):
            assert labels.label_length(c) == position + 1
            assert labels.entry(c, position) == (0, 1)
        assert rec.counter_value("build.ssspc_runs") == len(part.cut)
        assert rec.counter_value("build.label_entries") == labels.total_entries
        want = reference_labels(graph, part.cut, SEARCHES[search])
        for v in graph.vertices():
            assert as_entries(labels, v) == want[v]

    def test_blocks_mirror_label_distances(self, node_case, search):
        graph, part = node_case
        labels, blocks = node_labels(graph, part.cut)
        want = reference_labels(graph, part.cut, SEARCHES[search])
        for v in graph.vertices():
            assert list(blocks[v]) == labels.dist[v]
            assert list(blocks[v]) == [d for d, _c in want[v]]

    def test_does_not_mutate_graph(self, node_case, search):
        graph, part = node_case
        before = reference_labels(graph, part.cut, SEARCHES[search])
        before_n, before_m = graph.num_vertices, graph.num_edges
        node_labels(graph, part.cut)
        assert (graph.num_vertices, graph.num_edges) == (before_n, before_m)
        assert reference_labels(graph, part.cut, SEARCHES[search]) == before

    def test_unreachable_padding(self, search):
        graph = Graph.from_edges([(0, 1, 1), (2, 3, 1)])
        labels, _blocks = node_labels(graph, (0, 2))
        # Vertex 3 is unreachable from cut vertex 0: padded with INF.
        assert labels.dist[3][0] == INF
        assert labels.count[3][0] == 0
        assert labels.dist[3][1] == 1  # reachable from cut vertex 2
        want = reference_labels(graph, (0, 2), SEARCHES[search])
        for v in graph.vertices():
            assert as_entries(labels, v) == want[v]


def test_engines_agree_exactly(node_case=None):
    # The CSR label path against the dict reference search, with ties.
    graph = grid_graph(6, 6)
    part = balanced_cut(graph)
    labels, blocks = node_labels(graph, part.cut)
    want = reference_labels(graph, part.cut, ssspc)
    for v in graph.vertices():
        assert as_entries(labels, v) == want[v]
        assert list(blocks[v]) == [d for d, _c in want[v]]
