"""SPC-Graph construction for CTLS-Index (paper §IV-B and §IV-C).

Given the current node's graph ``PG`` (itself an SPC-Graph of the
original network), its cut ``C`` and one side ``L``, these builders
produce a count-preserved graph over ``L`` — the graph the recursion
partitions next.  Three strategies mirror the paper's construction
variants:

* ``basic`` (Algorithm 4, plain CTLS-Construct): search the boundary
  graph of ``L`` from every border vertex and add all Outer-Only
  shortcuts.
* ``pruned`` (CTLS+-Construct): same searches, but a shortcut is kept
  only when its distance equals the through-cut distance
  ``sd_G(u, v, C)`` obtained from the labels just computed (Lemma 4.4).
* ``cutsearch`` (CTLS*-Construct, Algorithm 5): search only from the
  (few) cut vertices in the boundary graph of ``L ∪ C``, then eliminate
  the cut vertices one by one, connecting neighbour pairs whose two-hop
  distance matches the through-cut threshold.

Outer-Only semantics — interiors of restored paths must avoid the side
being preserved — is enforced on the node graph's own CSR snapshot with
a zone mask (:func:`outer_only_search`): the source never steps into
the zone, and every other zone vertex is a terminal (reachable, never
traversed).  With pruning, each search also stops once it pops a
distance beyond the largest through-cut threshold of its targets: a
shortcut is kept only when its distance *equals* that threshold, and an
Outer-Only distance is never below the through-cut distance, so nothing
past the bound could be kept.

Instrumentation (``build.ssspc_runs``, ``build.shortcuts_added``,
``build.shortcuts_pruned``) goes through the build-scoped
:mod:`repro.obs` recorder passed as ``rec``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.spc_graph import add_shortcut
from repro.types import INF, Vertex, Weight

#: ``(u, v) -> sd_G(u, v, C)``: shortest distance through the cut.
ThroughCutDistance = Callable[[Vertex, Vertex], Weight]


class BlockOutDist:
    """Through-cut distances ``sd_G(u, v, C)`` from node label blocks.

    ``blocks[v]`` holds the strong convex distances from ``v`` to the
    current node's cut vertices in ascending-id order (truncated at the
    vertex's own position for cut vertices).  The through-cut distance
    of a pair is the minimum label sum over the shared prefix — Eq. (1)
    restricted to the cut, as in Algorithm 5 lines 2-3 and 11-13.
    """

    def __init__(self, blocks: Dict[Vertex, Sequence[Weight]]) -> None:
        self._blocks = blocks
        self._cache: Dict[Tuple[Vertex, Vertex], Weight] = {}

    def __call__(self, u: Vertex, v: Vertex) -> Weight:
        if u > v:
            u, v = v, u
        key = (u, v)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        du = self._blocks[u]
        dv = self._blocks[v]
        best = INF
        for a, b in zip(du, dv):
            d = a + b
            if d < best:
                best = d
        self._cache[key] = best
        return best


def _border_of(pg: Graph, side_set: set) -> List[Vertex]:
    """Vertices of ``side_set`` with an edge leaving it, ascending."""
    return sorted(
        v
        for v in side_set
        if any(u not in side_set for u in pg.adj(v))
    )


def outer_only_search(
    csr: CSRGraph, src: int, zone: Sequence[bool], bound: Weight = INF
) -> Tuple[list, list, list]:
    """SSSPC from dense id ``src`` over paths whose interior avoids ``zone``.

    The source steps only onto vertices outside the zone; any other zone
    vertex it reaches is a terminal, settled but not expanded.  The
    search stops at the first popped distance above ``bound``.  Returns
    ``(dist, count, settled)`` lists over dense ids; only settled entries
    are final.
    """
    neighbors = csr.neighbors
    n = len(neighbors)
    dist: list = [None] * n
    count: list = [0] * n
    settled = [False] * n
    settled[src] = True
    heap: list = []
    for w, weight, sigma in neighbors[src]:
        if not zone[w]:
            dist[w] = weight
            count[w] = sigma
            heappush(heap, (weight, w))
    while heap:
        d, v = heappop(heap)
        if settled[v]:
            continue
        if d > bound:
            break
        settled[v] = True
        if zone[v]:
            continue
        pc_v = count[v]
        for w, weight, sigma in neighbors[v]:
            if settled[w]:
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


def _restore(
    csr: CSRGraph,
    zone: Sequence[bool],
    ends: List[Vertex],
    into: Graph,
    rec,
    through_cut: Optional[ThroughCutDistance],
) -> None:
    """Add the Outer-Only shortcuts between every pair of ``ends``.

    One search per end ``u`` towards the ends after it; with
    ``through_cut`` a shortcut is kept only at the through-cut distance
    and the search is bounded by the largest such distance.
    """
    ids = csr.vertex_ids
    neighbors = csr.neighbors
    for i, u in enumerate(ends):
        targets = ends[i + 1:]
        src = ids[u]
        if not targets or all(zone[w] for w, _w, _c in neighbors[src]):
            continue  # nothing to restore towards, or no way out
        if through_cut is None:
            bound = INF
        else:
            thresholds = [through_cut(u, v) for v in targets]
            bound = max(thresholds)
        dist, count, settled = outer_only_search(csr, src, zone, bound)
        rec.incr("build.ssspc_runs")
        for j, v in enumerate(targets):
            k = ids[v]
            if not settled[k]:
                continue
            d = dist[k]
            if through_cut is not None and d != thresholds[j]:
                rec.incr("build.shortcuts_pruned")
                continue
            add_shortcut(into, u, v, d, count[k])
            rec.incr("build.shortcuts_added")


def _zone_mask(csr: CSRGraph, zone: Iterable[Vertex]) -> List[bool]:
    mask = [False] * csr.num_vertices
    ids = csr.vertex_ids
    for v in zone:
        mask[ids[v]] = True
    return mask


def build_spc_graph_basic(
    pg: Graph,
    side: Iterable[Vertex],
    rec,
    *,
    through_cut: ThroughCutDistance = None,
    prune: bool = False,
    csr: Optional[CSRGraph] = None,
) -> Graph:
    """Algorithm 4: SPC-Graph of ``side`` by border-vertex searches.

    With ``prune=True`` (CTLS+), a shortcut ``(u, v)`` is added only
    when its Outer-Only distance equals ``through_cut(u, v)``; redundant
    shortcuts — dominated by shorter global routes — are dropped.
    ``csr`` is ``pg``'s snapshot when the caller already holds one.
    """
    side_set = set(side)
    border = _border_of(pg, side_set)
    result = pg.induced_subgraph(side_set)
    if not border:
        return result
    csr = csr or CSRGraph(pg)
    _restore(
        csr, _zone_mask(csr, side_set), border, result, rec,
        through_cut if prune else None,
    )
    return result


def build_spc_graph_cutsearch(
    pg: Graph,
    side: Iterable[Vertex],
    cut: Iterable[Vertex],
    through_cut: ThroughCutDistance,
    rec,
    *,
    csr: Optional[CSRGraph] = None,
) -> Graph:
    """Algorithm 5: SPC-Graph of ``side`` by searching from cut vertices.

    Phase 1 restores Outer-Only shortest paths *between cut vertices*
    through the far side, pruned by global shortest distances (labels
    make ``sd_G(u, v, C)`` exact for cut pairs).  Phase 2 eliminates the
    cut vertices from ``PG[side ∪ cut]``, contraction-style: removing
    ``c`` connects each neighbour pair whose two-hop distance matches
    the through-cut threshold.  What remains is a count-preserved graph
    over ``side``.  ``csr`` is ``pg``'s snapshot when the caller already
    holds one.
    """
    side_set = set(side)
    cut_list = sorted(cut)
    # Built as ``side | cut``: the set's iteration order fixes the
    # vertex order of ``work``, which BalancedCut's tie-breaking reads.
    zone = side_set | set(cut_list)

    # Working graph Z: the induced graph on side + cut.
    work = pg.induced_subgraph(zone)

    # Phase 1 (lines 4-9): cut-to-cut shortcuts through the far side.
    # The far side never touches ``side`` (the cut separates them), so
    # a search leaving the zone reaches only far vertices and cut
    # vertices.
    csr = csr or CSRGraph(pg)
    _restore(csr, _zone_mask(csr, zone), cut_list, work, rec, through_cut)

    # Phase 2 (lines 14-19): eliminate cut vertices, preserving counts
    # between the remaining neighbours.
    for c in cut_list:
        neighbours = sorted(work.adj(c).items())
        for (u, (du, cu)), (v, (dv, cv)) in combinations(neighbours, 2):
            d = du + dv
            if through_cut(u, v) != d:
                rec.incr("build.shortcuts_pruned")
                continue
            add_shortcut(work, u, v, d, cu * cv)
            rec.incr("build.shortcuts_added")
        work.remove_vertex(c)
    return work
