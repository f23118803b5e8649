"""Tests for Dinitz max-flow over the vertex cut's flat int arrays."""

from repro.flow.vertex_cut import SINK, SOURCE, max_flow, split_ids


def flat_network(num_nodes, arcs):
    """``(adjacency, to, cap, arc ids)`` for ``(u, v, capacity)`` arcs."""
    adjacency = [[] for _ in range(num_nodes)]
    to, cap, ids = [], [], []
    for u, v, capacity in arcs:
        ids.append(len(to))
        adjacency[u].append(len(to))
        to.append(v)
        cap.append(capacity)
        adjacency[v].append(len(to))
        to.append(u)
        cap.append(0)
    return adjacency, to, cap, ids


def flow_value(num_nodes, arcs, s=0, t=1):
    adjacency, to, cap, _ids = flat_network(num_nodes, arcs)
    return max_flow(adjacency, to, cap, s, t)[0]


def test_node_ids_are_stable():
    # The regions are nodes 0 and 1; middle vertex k splits into
    # in = 2 + 2k and out = 3 + 2k, so every id is used exactly once.
    assert (SOURCE, SINK) == (0, 1)
    assert split_ids(0) == (2, 3)
    assert split_ids(5) == (12, 13)
    ids = [i for k in range(50) for i in split_ids(k)]
    assert ids == list(range(2, 102))


def test_single_edge_flow():
    assert flow_value(2, [(0, 1, 5)]) == 5


def test_bottleneck():
    assert flow_value(3, [(0, 2, 10), (2, 1, 3)]) == 3


def test_parallel_paths():
    arcs = [(0, 2, 2), (2, 1, 2), (0, 3, 3), (3, 1, 3)]
    assert flow_value(4, arcs) == 5


def test_classic_augmenting_case():
    # The diamond with a cross edge that tempts a greedy algorithm.
    arcs = [(0, 2, 1), (0, 3, 1), (2, 3, 1), (2, 1, 1), (3, 1, 1)]
    assert flow_value(4, arcs) == 2


def test_no_path_gives_zero():
    adjacency, to, cap, _ids = flat_network(2, [])
    flow, levels = max_flow(adjacency, to, cap, 0, 1)
    assert flow == 0
    assert levels == [0, -1]


def test_residual_reachable_is_min_cut_side():
    adjacency, to, cap, _ids = flat_network(3, [(0, 2, 2), (2, 1, 1)])
    flow, levels = max_flow(adjacency, to, cap, 0, 1)
    assert flow == 1
    assert levels[0] >= 0
    assert levels[2] >= 0  # s->a not saturated (2 > 1)
    assert levels[1] < 0


def test_push_updates_residual():
    adjacency, to, cap, (e,) = flat_network(2, [(0, 1, 4)])
    max_flow(adjacency, to, cap, 0, 1)
    assert cap[e] == 0
    assert cap[e ^ 1] == 4
