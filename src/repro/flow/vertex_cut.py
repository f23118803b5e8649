"""Minimum s-t *vertex* cut via vertex splitting, on flat int arrays.

BalancedCut contracts its two grown regions into supernodes and needs the
smallest set of middle-region vertices whose removal disconnects them.
The classic reduction: every splittable vertex ``v`` becomes an arc
``v_in -> v_out`` of capacity 1, original edges become infinite-capacity
arcs between the corresponding sides, and the min edge cut of the
transformed network — all of whose saturated arcs are split arcs — is the
min vertex cut.

The network lives in three flat lists, the standard adjacency-list
max-flow layout: node ``0`` is the contracted left region (the source),
node ``1`` the right region (the sink), and the ``k``-th middle vertex
splits into ``in = 2 + 2k`` and ``out = 3 + 2k``.  ``to[e]`` and
``cap[e]`` describe arc ``e``; its residual twin is ``e ^ 1``; and
``adjacency[x]`` lists the arcs leaving node ``x``.  Dinitz' algorithm
runs directly over them — ``O(E * sqrt(V))`` on these unit-capacity
vertex-split networks, which is what the paper's Lemma 3.5 relies on.

The source side of the cut — every node still reachable from the source
in the residual network — is the same for every maximum flow, so the
cut returned is the unique source-closest minimum cut, whatever order
the arcs were added in.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.graph.graph import Graph
from repro.types import Vertex

#: Node ids of the contracted regions.
SOURCE = 0
SINK = 1


def split_ids(k: int) -> Tuple[int, int]:
    """``(in, out)`` node ids of the ``k``-th middle vertex."""
    return 2 + 2 * k, 3 + 2 * k


def max_flow(
    adjacency: List[List[int]],
    to: List[int],
    cap: List[int],
    source: int,
    sink: int,
) -> Tuple[int, List[int]]:
    """Dinitz' maximum flow over a flat network, saturating ``cap``.

    Returns ``(flow, levels)``: ``levels[x] >= 0`` exactly for the nodes
    reachable from ``source`` in the final residual network (the source
    side of a minimum cut, by the max-flow min-cut theorem).
    """
    n = len(adjacency)
    total = 0
    while True:
        levels = _levels(adjacency, to, cap, source, sink, n)
        if levels[sink] < 0:
            return total, levels
        cursor = [0] * n
        while True:
            pushed = _augment(adjacency, to, cap, source, sink, levels, cursor)
            if not pushed:
                break
            total += pushed


def _levels(adjacency, to, cap, source, sink, n) -> List[int]:
    """BFS levels of the residual network, cut short at the sink.

    Every node one level short of the sink is labelled before the sink
    is, so stopping there loses nothing the blocking flow could use.
    Without a path to the sink the BFS labels every reachable node.
    """
    levels = [-1] * n
    levels[source] = 0
    queue = [source]
    for v in queue:  # the list grows while it is walked
        next_level = levels[v] + 1
        for e in adjacency[v]:
            if cap[e] > 0:
                w = to[e]
                if levels[w] < 0:
                    levels[w] = next_level
                    if w == sink:
                        return levels
                    queue.append(w)
    return levels


def _augment(adjacency, to, cap, s, t, levels, cursor) -> int:
    """Push one augmenting path along the level graph; 0 when blocked."""
    path: List[int] = []  # arc indices
    v = s
    while v != t:
        arcs = adjacency[v]
        end = len(arcs)
        i = cursor[v]
        want = levels[v] + 1
        while i < end:
            e = arcs[i]
            if cap[e] > 0 and levels[to[e]] == want:
                break
            i += 1
        cursor[v] = i
        if i < end:
            path.append(e)
            v = to[e]
        elif v == s:
            return 0
        else:
            # Dead end: retreat and drop the node from this phase.
            levels[v] = -1
            v = to[path.pop() ^ 1]
            cursor[v] += 1
    bottleneck = min(cap[e] for e in path)
    for e in path:
        cap[e] -= bottleneck
        cap[e ^ 1] += bottleneck
    return bottleneck


def min_vertex_cut_between_regions(
    graph: Graph,
    left_region: Iterable[Vertex],
    right_region: Iterable[Vertex],
    middle: Iterable[Vertex],
) -> List[Vertex]:
    """Smallest subset of ``middle`` separating the two regions.

    ``left_region`` and ``right_region`` are contracted into a source and
    a sink supernode; only ``middle`` vertices are splittable (capacity
    1).  The three sets must be disjoint and cover every vertex incident
    to a crossing edge.  Raises ``ValueError`` when the regions are
    directly adjacent (no vertex cut inside ``middle`` can exist).

    Returns the cut sorted by vertex id.
    """
    left = set(left_region)
    right = set(right_region)
    for u in left:
        for w in graph.adj(u):
            if w in right:
                raise ValueError(
                    f"regions are directly adjacent via edge "
                    f"({min(u, w)}, {max(u, w)}); no vertex cut inside "
                    "the middle region exists"
                )
    # Region code of every relevant vertex: the source, the sink, or
    # the in-node of a middle vertex.
    node_of = dict.fromkeys(left, SOURCE)
    node_of.update(dict.fromkeys(right, SINK))
    order = list(set(middle))
    infinite = len(order) + 1  # any finite cut beats this
    node_of.update(zip(order, range(2, 2 * len(order) + 2, 2)))

    size = 2 + 2 * len(order)
    adjacency: List[List[int]] = [[] for _ in range(size)]
    to: List[int] = []
    cap: List[int] = []
    source_arcs = adjacency[SOURCE]
    sink_arcs = adjacency[SINK]
    for u in order:
        u_in = node_of[u]
        u_out = u_in + 1
        # The split arc and its twin.
        e = len(to)
        to += (u_out, u_in)
        cap += (1, 0)
        adjacency[u_in].append(e)
        adjacency[u_out].append(e + 1)
        fed = drained = False
        out_arcs = adjacency[u_out]
        for w in graph.adj(u):
            x = node_of.get(w)
            if x is None:
                continue  # outside all three sets: irrelevant to the cut
            e = len(to)
            if x == SOURCE:
                if fed:
                    continue  # one source arc per middle vertex suffices
                fed = True
                to += (u_in, SOURCE)
                cap += (infinite, 0)
                source_arcs.append(e)
                adjacency[u_in].append(e + 1)
            elif x == SINK:
                if drained:
                    continue
                drained = True
                to += (SINK, u_out)
                cap += (infinite, 0)
                out_arcs.append(e)
                sink_arcs.append(e + 1)
            else:
                # out(u) -> in(w); the edge's other direction is added
                # while ``w`` is the vertex being walked.
                to += (x, u_out)
                cap += (infinite, 0)
                out_arcs.append(e)
                adjacency[x].append(e + 1)

    flow, levels = max_flow(adjacency, to, cap, SOURCE, SINK)
    if flow >= infinite:
        raise ValueError("regions are connected outside the middle region")
    cut = []
    for k, v in enumerate(order):
        v_in, v_out = split_ids(k)
        if levels[v_in] >= 0 and levels[v_out] < 0:
            cut.append(v)
    if len(cut) != flow:
        raise AssertionError(
            f"min-cut extraction mismatch: flow={flow}, |cut|={len(cut)}"
        )
    return sorted(cut)


def min_vertex_cut_pair(
    graph: Graph, source: Vertex, target: Vertex
) -> List[Vertex]:
    """Smallest vertex set (excluding endpoints) separating two vertices.

    Raises ``ValueError`` when the vertices are adjacent.  Convenience
    wrapper used by tests and the partition module's sanity checks.
    """
    middle: Set[Vertex] = set(graph.vertices()) - {source, target}
    return min_vertex_cut_between_regions(graph, [source], [target], middle)
