"""TL-Index: the state-of-the-art baseline (Qiu et al., VLDB 2022).

The TL-Index combines hub labeling with a tree decomposition hierarchy
(paper §II-B).  Each graph vertex owns one tree node; vertex rank is
tree depth (shallower = higher).  Labels store the convex shortest
distance and count from every vertex to each of its tree ancestors,
computed with the *upward framework*: processing vertices root-down,
the labels of ``v`` follow from its bag neighbours' labels —

``csd(v, a) = min over (u, phi, sigma) in bag(v) of phi + csd(u, a)``

with counts multiplied by the bag edge's count weight and summed over
minimising neighbours.  Bag edges are count-preserving contractions, so
every convex shortest path is counted exactly once at its first hop
above ``v``.

TL-Query scans all common ancestors — label positions ``0 .. depth of
the LCA`` — hence ``O(h)`` visits that *shrink* as query distance grows
(shallower LCAs), the behaviour Exp-3 contrasts with CTLS-Query.  That
prefix is the index's scan window (:meth:`TLIndex._window`); the shared
:class:`~repro.core.base.ArenaIndex` path merges it over the same packed
:class:`~repro.labels.LabelArena` as the CTL/CTLS indexes (dense id =
position in the elimination order).  The dict-of-lists layout is
rebuilt on demand for JSON serialization.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.baselines.tree_decomposition import (
    TreeDecomposition,
    minimum_degree_elimination,
)
from repro.core.base import ArenaIndex, BuildStats, IndexStats
from repro.exceptions import IndexQueryError, SerializationError
from repro.graph.graph import Graph
from repro.labels.arena import LabelArena, record_layout_gauges
from repro.tree.lca import LCATable
from repro.types import INF, Vertex


class TLIndex(ArenaIndex):
    """Tree-decomposition hub-labeling index for shortest path counting."""

    name = "TL"

    def __init__(
        self,
        decomposition: TreeDecomposition,
        dist: Optional[Dict[Vertex, List]],
        count: Optional[Dict[Vertex, List[int]]],
        lca: LCATable,
        build_stats: BuildStats,
        num_edges: int,
        *,
        arena: Optional[LabelArena] = None,
    ) -> None:
        self.decomposition = decomposition
        if arena is not None:
            self.arena = arena
        elif dist is not None and count is not None:
            self.arena = LabelArena.from_lists(
                decomposition.order, dist, count
            )
        else:
            raise SerializationError(
                "TLIndex needs either label dicts or a packed arena"
            )
        self._label_dist = dist
        self._label_count = count
        self._lca = lca.lca
        self.build_stats = build_stats
        self._num_edges = num_edges
        self._depth_by_id = [decomposition.depth[v] for v in decomposition.order]

    @property
    def label_dist(self) -> Dict[Vertex, List]:
        """Per-vertex distance lists (rebuilt on demand after load)."""
        if self._label_dist is None:
            self._label_dist, self._label_count = self.arena.to_lists()
        return self._label_dist

    @property
    def label_count(self) -> Dict[Vertex, List[int]]:
        """Per-vertex count lists (rebuilt on demand after load)."""
        if self._label_count is None:
            self._label_dist, self._label_count = self.arena.to_lists()
        return self._label_count

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph) -> "TLIndex":
        """Run TL-Construct: tree decomposition + upward label DP."""
        started = time.perf_counter()
        rec = obs.build_scope()
        with rec.span("tl.build", n=graph.num_vertices, m=graph.num_edges):
            with rec.span("tl.build.decomposition"):
                td = minimum_degree_elimination(graph)

            # Upward framework: parents (eliminated later) before children.
            dist: Dict[Vertex, List] = {}
            count: Dict[Vertex, List[int]] = {}
            with rec.span("tl.build.labels"):
                for v in reversed(td.order):
                    depth_v = td.depth[v]
                    dv: List = [INF] * (depth_v + 1)
                    cv: List[int] = [0] * (depth_v + 1)
                    dv[depth_v] = 0
                    cv[depth_v] = 1
                    for u, phi, sigma in td.bags[v]:
                        du = dist[u]
                        cu = count[u]
                        for i in range(len(du)):
                            base = du[i]
                            if base is INF or base == INF:
                                continue
                            cand = phi + base
                            if cand < dv[i]:
                                dv[i] = cand
                                cv[i] = sigma * cu[i]
                            elif cand == dv[i]:
                                cv[i] += sigma * cu[i]
                    dist[v] = dv
                    count[v] = cv
                    rec.incr("build.label_entries", depth_v + 1)

            # O(1) LCA over the vertex tree.
            with rec.span("tl.build.lca"):
                parents = [
                    -1 if td.parent[v] is None else td.order_of[td.parent[v]]
                    for v in td.order
                ]
                lca = LCATable(parents)

        rec.gauge_max("build.peak_edges", graph.num_edges)
        index = cls(td, dist, count, lca, BuildStats(), graph.num_edges)
        record_layout_gauges(rec, index.arena)
        index.build_stats = BuildStats.from_recorder(
            rec, seconds=time.perf_counter() - started, arena=index.arena
        )
        return index

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _window(self, a: int, b: int) -> Tuple[int, int]:
        """TL-Query: label positions ``0 ..`` depth of the LCA (Eq. 1)."""
        return 0, self._depth_by_id[self._lca(a, b)] + 1

    def _lca_depth(self, source: Vertex, target: Vertex):
        try:
            return self.window(source, target)[1] - 1  # end = depth + 1
        except IndexQueryError:
            return None

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> IndexStats:
        """Static index shape (32-bit label-entry size model)."""
        total_entries = self.arena.total_entries
        return IndexStats(
            num_vertices=self.arena.num_vertices,
            num_edges=self._num_edges,
            tree_nodes=self.arena.num_vertices,
            height=self.decomposition.height,
            width=self.decomposition.width,
            total_label_entries=total_entries,
            size_bytes=8 * total_entries,
        )
