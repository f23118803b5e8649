"""CTLS-Index: hub labels on a GSP-cut tree (paper §IV).

Every tree node of the CTLS-Index is a *global shortest path cut*
(Definition 4.1): all shortest paths of the original graph between the
two subtrees pass through it.  This is achieved by recursing on
count-preserved graphs (SPC-Graphs) instead of induced subgraphs — the
shortcuts inserted by :mod:`repro.core.spc_graph_build` keep distances
and counts of the original network intact, so BalancedCut on the
SPC-Graph yields a GSP cut of the original graph.

Labels are *strong convex* distances/counts (only same-node
higher-ranked vertices are excluded), which lets CTLS-Query
(Algorithm 3) scan a single tree node — the LCA — instead of all common
ancestors: ``O(w)`` label visits, the paper's headline improvement for
short-distance queries.  That block is the index's scan window
(:meth:`CTLSIndex._window`), cut from the same ``(LCA, end)`` rule as
CTL's prefix; the shared :class:`~repro.core.base.ArenaIndex` path
merges it over the packed :class:`~repro.labels.LabelArena`.

Construction strategies (Section IV-C, compared in Exp-4):

* ``"basic"``     — CTLS-Construct: Algorithm 4 from every border vertex.
* ``"pruned"``    — CTLS+-Construct: Algorithm 4 plus threshold pruning.
* ``"cutsearch"`` — CTLS*-Construct: Algorithm 5, search from cut
  vertices plus pruning (the paper's final recommendation and this
  class's default).
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Optional, Tuple, Union

import repro.obs as obs
from repro.core.base import ArenaIndex, BuildStats
from repro.core.ctl import CutTreeIndex
from repro.core.labeling import compute_node_labels
from repro.core.spc_graph_build import (
    BlockOutDist,
    build_spc_graph_basic,
    build_spc_graph_cutsearch,
)
from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.labels.arena import LabelArena, record_layout_gauges
from repro.labels.store import LabelStore
from repro.partition.balanced_cut import balanced_cut
from repro.tree.cut_tree import CutTree

STRATEGIES = ("basic", "pruned", "cutsearch")

#: Paper names of the construction variants (Fig. 11/13 legends).
STRATEGY_LABELS = {
    "basic": "CTLS-Construct",
    "pruned": "CTLS+-Construct",
    "cutsearch": "CTLS*-Construct",
}


class CTLSIndex(CutTreeIndex):
    """GSP-cut-tree hub-labeling index for shortest path counting."""

    name = "CTLS"

    def __init__(
        self,
        tree: CutTree,
        labels: Union[LabelStore, LabelArena],
        build_stats: BuildStats,
        num_vertices: int,
        num_edges: int,
        strategy: str,
        *,
        node_of_dense: Optional[List[int]] = None,
    ) -> None:
        super().__init__(
            tree, labels, build_stats, num_vertices, num_edges,
            node_of_dense=node_of_dense,
        )
        self.strategy = strategy

    def _window(self, a: int, b: int) -> Tuple[int, int]:
        """CTLS-Query (Algorithm 3): only the LCA node's label block."""
        lca, end = self._lca_end(a, b)
        return self._block_starts[lca], end

    # Bound in the class body, not only inherited, so each index class
    # owns an attribute a tracer can wrap on its own.
    query_batch = ArenaIndex.query_batch

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        *,
        beta: float = 0.2,
        leaf_size: int = 4,
        seed: int = 0,
        strategy: str = "cutsearch",
        engine: str = "csr",
        rng: Optional[random.Random] = None,
        progress: Optional[Callable[[dict], None]] = None,
    ) -> "CTLSIndex":
        """Run CTLS-Construct on ``graph`` with the chosen strategy.

        Args:
            graph: road network to index (not modified).
            beta: BalancedCut balance factor (paper default 0.2).
            leaf_size: subgraphs of at most this size become leaf nodes.
            seed: determinism seed (ignored when ``rng`` is given).
            strategy: ``"basic"`` | ``"pruned"`` | ``"cutsearch"``.
            engine: label-computation engine, ``"csr"`` (default) or
                ``"dict"`` (reference); identical output.
            progress: optional callback invoked once per finished cut-
                tree node with ``{nodes, depth, cut, labels, elapsed}``
                — the live feed behind ``repro-spc build --progress``.
        """
        if strategy not in STRATEGIES:
            raise IndexBuildError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if engine not in ("csr", "dict"):
            raise IndexBuildError(f"unknown engine {engine!r}")
        started = time.perf_counter()
        rng = rng or random.Random(seed)
        tree = CutTree()
        labels = LabelStore(graph.vertices())
        rec = obs.build_scope()

        with rec.span(
            "ctls.build",
            n=graph.num_vertices,
            m=graph.num_edges,
            strategy=strategy,
        ):
            stack = [(graph.copy(), -1, 0)]
            while stack:
                pg, parent, depth = stack.pop()
                if pg.num_vertices == 0:
                    continue
                rec.gauge_max("build.peak_edges", pg.num_edges)
                with rec.span(
                    "ctls.build.node", depth=depth, n=pg.num_vertices
                ) as node_span:
                    part = balanced_cut(
                        pg, beta, leaf_size=leaf_size, rng=rng, rec=rec
                    )
                    node_id = tree.add_node(part.cut, parent)
                    node_span.set(node=node_id, cut_size=len(part.cut))

                    # Strong convex labels: SSSPC from each cut vertex over
                    # the SPC-Graph, excluding processed (higher-ranked) cut
                    # vertices.  Ancestor vertices are *not* excluded —
                    # shortcuts represent paths through them, which is
                    # exactly the strong convex semantics.
                    with rec.span(
                        "ctls.build.labels", node=node_id, cut=len(part.cut)
                    ):
                        blocks = compute_node_labels(
                            pg, part.cut, labels, rec, engine=engine
                        )

                    if progress is not None:
                        progress({
                            "nodes": node_id + 1,
                            "depth": depth,
                            "cut": len(part.cut),
                            "labels": labels.total_entries,
                            "elapsed": time.perf_counter() - started,
                        })

                    if not part.left and not part.right:
                        continue
                    through_cut = BlockOutDist(blocks)
                    with rec.span("ctls.build.shortcuts", node=node_id):
                        for side in (part.left, part.right):
                            if not side:
                                continue
                            if strategy == "cutsearch":
                                child = build_spc_graph_cutsearch(
                                    pg, side, part.cut, through_cut, rec
                                )
                            elif strategy == "pruned":
                                child = build_spc_graph_basic(
                                    pg, side, rec,
                                    through_cut=through_cut, prune=True,
                                )
                            else:
                                child = build_spc_graph_basic(pg, side, rec)
                            stack.append((child, node_id, depth + 1))

            tree.finalize()
        # Arena packing (LabelStore.seal inside the constructor) is a
        # real pipeline phase on large graphs — give it its own span so
        # build-phase breakdowns see it.
        with rec.span("ctls.build.pack"):
            index = cls(
                tree, labels, BuildStats(), graph.num_vertices,
                graph.num_edges, strategy,
            )
        record_layout_gauges(rec, index.arena)
        stats = BuildStats.from_recorder(
            rec, seconds=time.perf_counter() - started, arena=index.arena
        )
        stats.extras["strategy"] = strategy
        index.build_stats = stats
        return index
