"""Region growing: the first phase of BalancedCut.

From two distant endpoints, grow two regions of roughly ``beta * n``
vertices each in Dijkstra (distance) order.  The second region refuses
vertices adjacent to the first, so the regions are never directly
adjacent and a vertex cut between them always exists in the remaining
middle region.

:func:`grow_dense` works on a :class:`~repro.graph.csr.CSRGraph`'s dense
ids (BalancedCut shares its node's snapshot); :func:`grow_region` is the
same growth on a :class:`~repro.graph.graph.Graph`.  Vertices are taken
in ``(distance, id)`` order, so the region does not depend on the
adjacency order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Sequence, Set

from repro.graph.csr import CSRGraph, NeighborTriples
from repro.graph.graph import Graph
from repro.types import Vertex


def grow_dense(
    neighbors: Sequence[NeighborTriples],
    source: int,
    target_size: int,
    forbidden: Optional[Sequence[bool]] = None,
) -> List[int]:
    """The ``target_size`` dense ids nearest to ``source``, in growth order.

    ``forbidden`` (a dense mask) vertices are neither entered nor
    traversed.  The region is grown in settled-distance order, so it is
    connected.  Returns fewer vertices when the reachable area is
    smaller, and none when ``source`` is forbidden.
    """
    if forbidden is not None and forbidden[source]:
        return []
    n = len(neighbors)
    taken = [False] * n
    dist: list = [None] * n
    dist[source] = 0
    region: List[int] = []
    heap: list = [(0, source)]
    while heap and len(region) < target_size:
        d, v = heappop(heap)
        if taken[v]:
            continue
        taken[v] = True
        region.append(v)
        for w, weight, _count in neighbors[v]:
            if taken[w] or (forbidden is not None and forbidden[w]):
                continue
            nd = d + weight
            old = dist[w]
            if old is None or nd < old:
                dist[w] = nd
                heappush(heap, (nd, w))
    return region


def grow_region(
    graph: Graph,
    source: Vertex,
    target_size: int,
    *,
    forbidden: Optional[Set[Vertex]] = None,
) -> Set[Vertex]:
    """The ``target_size`` vertices nearest to ``source`` (see :func:`grow_dense`)."""
    csr = CSRGraph(graph)
    mask = [False] * csr.num_vertices
    for v in forbidden or ():
        if v in csr.vertex_ids:
            mask[csr.vertex_ids[v]] = True
    region = grow_dense(csr.neighbors, csr.dense_id(source), target_size, mask)
    return {csr.vertices[v] for v in region}


def closed_neighborhood(graph: Graph, region: Set[Vertex]) -> Set[Vertex]:
    """``region`` plus every vertex adjacent to it."""
    result = set(region)
    for v in region:
        result.update(graph.adj(v))
    return result
