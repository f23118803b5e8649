"""BalancedCut: a balanced minimum vertex cut of a graph (paper §III-D).

Following HC2L (Farhan et al., SIGMOD 2023), summarised in Algorithm 2
line 1 of the paper, a cut is found in three steps:

1. *Rough partitioning* — pick two distant endpoints by double sweep and
   grow a region of about ``beta * n`` vertices around each.
2. *Min cut* — contract the regions into supernodes and compute the
   minimum vertex cut between them inside the middle region (Dinitz on
   the vertex-split network).
3. *Balancing* — removing the cut splits the graph into components;
   whole components are assigned greedily to the lighter of the two
   sides.  Because every component goes wholly to one side, the result
   is a valid vertex cut for the two sides regardless of assignment
   order, and disconnected inputs are handled for free.

All three steps run on dense ids of the node graph's
:class:`~repro.graph.csr.CSRGraph` snapshot, which index construction
shares with the node's labels and SPC-Graph searches.  The snapshot
keeps the graph's adjacency order and orders its ids like the
vertices, so every tie — the BFS order the sweep's start is drawn
from, the first farthest vertex, the order of equally large components
— falls exactly as it does over the dict adjacency.

Degenerate inputs (tiny graphs, graphs too dense to split) return a
partition whose cut is the entire vertex set (``is_degenerate``), which
the index construction turns into a leaf tree node.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from typing import Iterable, List, Optional, Sequence

import repro.obs as obs
from repro.flow.vertex_cut import min_vertex_cut_between_regions
from repro.graph.csr import CSRGraph, NeighborTriples
from repro.graph.graph import Graph
from repro.partition.grow import grow_dense
from repro.types import Partition


def _degenerate(graph: Graph) -> Partition:
    return Partition((), tuple(sorted(graph.vertices())), ())


def _components(
    neighbors: Sequence[NeighborTriples],
    starts: Iterable[int],
    blocked: List[bool],
) -> List[List[int]]:
    """Components over unblocked dense ids, discovered from ``starts``.

    Components come in discovery order, each in BFS order;
    ``blocked`` is consumed as the seen-mask.
    """
    components = []
    for start in starts:
        if blocked[start]:
            continue
        blocked[start] = True
        component = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u, _w, _c in neighbors[v]:
                if not blocked[u]:
                    blocked[u] = True
                    component.append(u)
                    queue.append(u)
        components.append(component)
    return components


def _farthest(neighbors: Sequence[NeighborTriples], source: int) -> int:
    """:func:`repro.search.sweep.farthest_vertex` on dense ids.

    Ties go to the vertex reached first, as ``max`` over the dict
    search's insertion-ordered distance map picks it.
    """
    n = len(neighbors)
    dist: list = [None] * n
    dist[source] = 0
    reached = [source]
    settled = [False] * n
    heap: list = [(0, source)]
    while heap:
        d, v = heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        for w, weight, _count in neighbors[v]:
            if settled[w]:
                continue
            nd = d + weight
            old = dist[w]
            if old is None:
                reached.append(w)
            elif nd >= old:
                continue
            dist[w] = nd
            heappush(heap, (nd, w))
    return max(reached, key=dist.__getitem__)


def _assign_components(
    graph: Graph, csr: CSRGraph, cut: List
) -> Partition:
    """Split ``G - cut`` into components and balance them over two sides."""
    cut_set = set(cut)
    ids = csr.vertex_ids
    blocked = [False] * csr.num_vertices
    for v in cut:
        blocked[ids[v]] = True
    # Discovery walks the remaining vertices in the order of a set built
    # from their list, which decides between equally large components.
    remaining = set([v for v in graph.vertices() if v not in cut_set])
    components = _components(
        csr.neighbors, [ids[v] for v in remaining], blocked
    )
    components.sort(key=len, reverse=True)
    left: list = []
    right: list = []
    for component in components:
        side = left if len(left) <= len(right) else right
        side.extend(component)
    vertex_of = csr.vertices
    return Partition(
        tuple(sorted(vertex_of[v] for v in left)),
        tuple(sorted(cut)),
        tuple(sorted(vertex_of[v] for v in right)),
    )


def balanced_cut(
    graph: Graph,
    beta: float = 0.2,
    *,
    leaf_size: int = 4,
    rng: Optional[random.Random] = None,
    rec=None,
    csr: Optional[CSRGraph] = None,
) -> Partition:
    """Partition ``graph`` into ``(L, C, R)`` with a small balanced cut ``C``.

    Args:
        graph: the (sub)graph to split; may be disconnected.
        beta: balance factor — each grown region targets ``beta * n``
            vertices (paper default 0.2).
        leaf_size: graphs with at most this many vertices are not split
            (returned as a degenerate all-cut partition).
        rng: randomness for the double sweep start; defaults to a fresh
            ``Random(0)`` so results are deterministic.
        rec: :mod:`repro.obs` recorder for cut-quality metrics and the
            ``partition.balanced_cut`` span; defaults to the globally
            active recorder (a no-op unless ``obs.configure()`` ran).
        csr: ``graph``'s snapshot when the caller already holds one.

    The returned partition satisfies: ``L``, ``C``, ``R`` disjoint, their
    union is ``V``, and every path between ``L`` and ``R`` crosses ``C``.
    """
    if rec is None:
        rec = obs.recorder()
    with rec.span("partition.balanced_cut", n=graph.num_vertices) as span:
        part = _balanced_cut(graph, beta, leaf_size, rng, csr)
        span.set(cut_size=len(part.cut), degenerate=part.is_degenerate)
    rec.observe("partition.cut_size", len(part.cut))
    if not part.is_degenerate:
        smaller = min(len(part.left), len(part.right))
        rec.observe(
            "partition.balance",
            smaller / graph.num_vertices,
            boundaries=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
        )
    return part


def _balanced_cut(
    graph: Graph,
    beta: float,
    leaf_size: int,
    rng: Optional[random.Random],
    csr: Optional[CSRGraph],
) -> Partition:
    if not 0 < beta <= 0.5:
        raise ValueError(f"beta must be in (0, 0.5], got {beta}")
    n = graph.num_vertices
    if n <= leaf_size:
        return _degenerate(graph)
    rng = rng or random.Random(0)
    csr = csr or CSRGraph(graph)
    neighbors = csr.neighbors
    vertex_of = csr.vertices
    order = [csr.vertex_ids[v] for v in graph.vertices()]

    components = _components(neighbors, order, [False] * n)
    components.sort(key=len, reverse=True)
    main = components[0]
    if len(main) <= leaf_size:
        # Dust of tiny components: no meaningful cut exists.
        return _degenerate(graph)

    # Step 1: rough partitioning inside the largest component.
    target = max(1, int(beta * len(main)))
    start = main[rng.randrange(len(main))]
    a = _farthest(neighbors, start)
    b = _farthest(neighbors, a)
    region_a = grow_dense(neighbors, a, target)
    blocked = [False] * n
    for v in region_a:
        blocked[v] = True
        for w, _w, _c in neighbors[v]:
            blocked[w] = True
    if blocked[b]:
        candidates = [v for v in main if not blocked[v]]
        if not candidates:
            return _degenerate(graph)
        b = max(candidates, key=lambda v: (len(neighbors[v]), -v))
    region_b = grow_dense(neighbors, b, target, blocked)
    if not region_b:
        return _degenerate(graph)

    # Step 2: minimum vertex cut between the regions.
    grown = [False] * n
    for v in region_a + region_b:
        grown[v] = True
    left = [vertex_of[v] for v in region_a]
    right = [vertex_of[v] for v in region_b]
    middle = [vertex_of[v] for v in order if not grown[v]]
    cut = min_vertex_cut_between_regions(graph, left, right, middle)
    if not cut:
        # The regions live in different components; separate them by
        # component assignment with an arbitrary minimal cut of the main
        # component to keep the recursion shrinking.
        cut = [next(iter(set(left)))]

    # Step 3: balance whole components over the two sides.
    return _assign_components(graph, csr, cut)
