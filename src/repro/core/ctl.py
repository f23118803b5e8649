"""CTL-Index: hub labels on a balanced cut tree (paper §III).

Construction (Algorithm 2, ``CTL-Construct``) recursively partitions the
graph with BalancedCut.  Each cut becomes a tree node; for each cut
vertex ``c`` (highest rank — smallest id — first) an SSSPC run over the
*remaining* subgraph stores convex shortest distance/count labels from
every subtree vertex to ``c``, after which ``c`` is removed.  Removing
processed cut vertices is what realises convex-path semantics: a label
to ``c`` never counts a path through a higher-ranked vertex, so during
queries every shortest path is counted exactly once — at its
highest-ranked hub.

Query (Algorithm 1, ``CTL-Query``) scans the aligned label prefix of the
two vertices' common ancestors: ``O(h)`` label visits.  That prefix is
the index's scan window (:meth:`CTLIndex._window`); the shared
:class:`~repro.core.base.ArenaIndex` path merges it over the packed
:class:`~repro.labels.LabelArena`.  :class:`CutTreeIndex` holds what
CTL and CTLS share, including the one ``(LCA, end)`` rule both windows
are cut from.
"""

from __future__ import annotations

import operator
import random
import time
from typing import List, Optional, Tuple, Union

import repro.obs as obs
from repro.core.base import ArenaIndex, BuildStats, IndexStats
from repro.core.labeling import grow_tree
from repro.graph.graph import Graph
from repro.labels.arena import LabelArena, record_layout_gauges
from repro.labels.store import LabelStore
from repro.tree.cut_tree import CutTree
from repro.types import Vertex


class CutTreeIndex(ArenaIndex):
    """What CTL and CTLS share: a cut tree over a packed label arena.

    Both scan windows end where the two endpoints' ancestor lists stop
    agreeing, which :meth:`_lca_end` computes once for both; they differ
    only in where the window starts.
    """

    def __init__(
        self,
        tree: CutTree,
        labels: Union[LabelStore, LabelArena],
        build_stats: BuildStats,
        num_vertices: int,
        num_edges: int,
        *,
        node_of_dense: Optional[List[int]] = None,
    ) -> None:
        self.tree = tree
        if isinstance(labels, LabelArena):
            self._labels: Optional[LabelStore] = None
            self.arena = labels
        else:
            self._labels = labels
            self.arena = labels.seal()
        self.build_stats = build_stats
        self._num_vertices = num_vertices
        self._num_edges = num_edges
        self._bind_dense(node_of_dense)

    def _bind_dense(self, node_of_dense: Optional[List[int]] = None) -> None:
        """Precompute the dense-id lookup arrays the window rule reads.

        ``node_of_dense`` is each dense id's tree node when the caller
        has it (the v4 loader maps it from the file); without it the
        nodes are looked up in the tree's vertex map.
        """
        tree = self.tree
        if node_of_dense is None:
            node_of_vertex = tree.node_of_vertex
            node_of_dense = [node_of_vertex[v] for v in self.arena.vertices]
        self._node_of_dense: List[int] = node_of_dense
        # |A(v)| equals the arena's per-vertex entry count (the sealed
        # arena stores exactly the ancestor labels); offset deltas beat
        # per-vertex tree lookups on the load path.
        offsets = self.arena.offsets.tolist()
        self._label_len_dense: List[int] = list(
            map(operator.sub, offsets[1:], offsets)
        )
        self._block_starts: List[int] = tree.block_starts
        self._block_ends: List[int] = tree.block_ends
        self._depths: List[int] = tree.lca_codes.depths
        self._lca = tree.lca_codes.lca

    @property
    def node_of_dense(self) -> List[int]:
        """The tree node of each dense id of :attr:`arena`."""
        return self._node_of_dense

    @property
    def labels(self) -> LabelStore:
        """Dict-of-lists label store (rebuilt on demand after load)."""
        if self._labels is None:
            self._labels = self.arena.to_store()
        return self._labels

    def refresh_arena(self) -> None:
        """Re-pack the arena after in-place label mutation (dynamic repair)."""
        self.arena = self.labels.seal()
        self._bind_dense()

    def _lca_end(self, a: int, b: int) -> Tuple[int, int]:
        """``(LCA node, common-prefix length)`` of dense ids ``a``, ``b``.

        The prefix is every position of the common ancestor nodes,
        truncated inside a shared node at the lower-ranked endpoint.
        """
        node_of = self._node_of_dense
        nu = node_of[a]
        nv = node_of[b]
        lens = self._label_len_dense
        if nu == nv:
            lu = lens[a]
            lv = lens[b]
            return nu, lu if lu < lv else lv
        lca = self._lca(nu, nv)
        if lca == nu:
            return lca, lens[a]
        if lca == nv:
            return lca, lens[b]
        return lca, self._block_ends[lca]

    def _lca_depth(self, source: Vertex, target: Vertex):
        ids = self.arena.vertex_ids
        try:
            a = ids[source]
            b = ids[target]
        except KeyError:
            return None
        return self._depths[self._lca_end(a, b)[0]]

    def stats(self) -> IndexStats:
        """Static index shape (32-bit label-entry size model)."""
        return IndexStats(
            num_vertices=self._num_vertices,
            num_edges=self._num_edges,
            tree_nodes=self.tree.num_nodes,
            height=self.tree.height,
            width=self.tree.width,
            total_label_entries=self.arena.total_entries,
            size_bytes=self.arena.size_bytes(),
        )


class CTLIndex(CutTreeIndex):
    """Cut-tree hub-labeling index for shortest path counting."""

    name = "CTL"

    def _window(self, a: int, b: int) -> Tuple[int, int]:
        """CTL-Query (Algorithm 1): the whole common-ancestor prefix."""
        return 0, self._lca_end(a, b)[1]

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
        rng: Optional[random.Random] = None,
    ) -> "CTLIndex":
        """Run CTL-Construct (Algorithm 2) on ``graph``.

        Args:
            graph: road network to index (not modified).
            beta: BalancedCut balance factor (paper default 0.2).
            leaf_size: subgraphs of at most this size become leaf nodes.
            seed: determinism seed (ignored when ``rng`` is given).
        """
        started = time.perf_counter()
        labels = LabelStore(graph.vertices())
        rec = obs.build_scope()
        with rec.span("ctl.build", n=graph.num_vertices, m=graph.num_edges):
            tree = grow_tree(
                graph, labels, rec, beta=beta, leaf_size=leaf_size,
                rng=rng or random.Random(seed),
            )
        index = cls(
            tree, labels, BuildStats(), graph.num_vertices, graph.num_edges
        )
        record_layout_gauges(rec, index.arena)
        index.build_stats = BuildStats.from_recorder(
            rec, seconds=time.perf_counter() - started, arena=index.arena
        )
        return index
