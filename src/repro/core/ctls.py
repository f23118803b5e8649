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
from repro.core.labeling import grow_tree
from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.labels.arena import LabelArena, record_layout_gauges
from repro.labels.store import LabelStore
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
            progress: optional callback invoked once per finished cut-
                tree node with ``{nodes, depth, cut, labels, elapsed}``
                — the live feed behind ``repro-spc build --progress``.
        """
        if strategy not in STRATEGIES:
            raise IndexBuildError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        started = time.perf_counter()
        labels = LabelStore(graph.vertices())
        rec = obs.build_scope()

        # Strong convex labels: each node's SSSPC runs over its SPC-Graph
        # and excludes only processed (higher-ranked) cut vertices of the
        # node.  Ancestor vertices are *not* excluded — shortcuts
        # represent paths through them, which is exactly the strong
        # convex semantics.
        with rec.span(
            "ctls.build",
            n=graph.num_vertices,
            m=graph.num_edges,
            strategy=strategy,
        ):
            tree = grow_tree(
                graph, labels, rec, beta=beta, leaf_size=leaf_size,
                rng=rng or random.Random(seed), strategy=strategy,
                progress=progress,
            )
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
