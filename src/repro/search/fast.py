"""Packed-adjacency SSSPC: the hot loop of index construction.

Semantically identical to :func:`repro.search.dijkstra.ssspc` (exact
Python-int counts, count-weight folding, terminal/excluded semantics)
but iterating :class:`~repro.graph.csr.CSRGraph` triples with flat-list
search state.  Index construction runs on it; the dict implementation
remains the reference and both are cross-tested.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.graph.csr import CSRGraph
from repro.types import Vertex, Weight


def ssspc_csr(
    csr: CSRGraph,
    source: Vertex,
    *,
    excluded: Optional[Set[Vertex]] = None,
    terminal: Optional[Set[Vertex]] = None,
) -> Tuple[Dict[Vertex, Weight], Dict[Vertex, int]]:
    """Single-source shortest distances and exact path counts on CSR.

    ``excluded``/``terminal`` take *original* vertex ids, like the
    dict-based version.  Returns maps keyed by original ids; vertices
    reached but not traversed (``terminal``) are included.
    """
    n = csr.num_vertices
    banned = [False] * n
    if excluded:
        for v in excluded:
            idx = csr.vertex_ids.get(v)
            if idx is not None:
                banned[idx] = True
    frozen = [False] * n
    if terminal:
        for v in terminal:
            idx = csr.vertex_ids.get(v)
            if idx is not None:
                frozen[idx] = True

    src = csr.dense_id(source)
    dist, count, settled = _run(csr, src, banned, frozen)

    vertex_of = csr.vertices
    dist_map: Dict[Vertex, Weight] = {}
    count_map: Dict[Vertex, int] = {}
    for idx in range(n):
        if settled[idx]:
            dist_map[vertex_of[idx]] = dist[idx]
            count_map[vertex_of[idx]] = count[idx]
    return dist_map, count_map


def ssspc_csr_arrays(
    csr: CSRGraph,
    source_dense: int,
    *,
    banned: Optional[Sequence[bool]] = None,
):
    """Lower-level variant keyed by dense ids, returning flat lists.

    ``banned`` is a dense boolean mask.  Returns ``(dist, count)``
    lists indexed by dense id, with ``None`` distance for unreached
    vertices — the zero-copy interface index construction uses to fill
    label blocks without dict churn.
    """
    # Without terminals the heap runs dry, so every vertex given a
    # distance is settled and the rest keep ``None``.
    dist, count, _settled = _run(
        csr, source_dense, banned or ([False] * csr.num_vertices), None
    )
    return dist, count


def _run(csr, src, banned, frozen):
    n = csr.num_vertices
    neighbors = csr.neighbors
    dist: list = [None] * n
    count: list = [0] * n
    settled = [False] * n
    dist[src] = 0
    count[src] = 1
    heap: list = [(0, src)]
    while heap:
        d, v = heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        if frozen is not None and frozen[v] and v != src:
            continue
        pc_v = count[v]
        for w, weight, sigma in neighbors[v]:
            if settled[w] or banned[w]:
                continue
            nd = d + weight
            old = dist[w]
            if old is None or nd < old:
                dist[w] = nd
                count[w] = pc_v * sigma
                heappush(heap, (nd, w))
            elif nd == old:
                count[w] += pc_v * sigma
    return dist, count, settled
