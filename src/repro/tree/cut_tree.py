"""The cut tree (paper Definition 3.2) shared by CTL and CTLS indexes.

A cut tree is a rooted binary tree whose nodes are disjoint vertex sets
covering ``V``; every node is a vertex cut separating its left and right
subtrees (within the subtree-induced subgraph for CTL, globally for
shortest paths in the GSP-cut tree of CTLS).

Vertex ranking (paper §III-B): inside a node, *smaller id = higher
rank*; across nodes, ancestors outrank descendants.  Every vertex ``v``
has an *ancestor vertex list* ``A(v)`` — all vertices of strict ancestor
nodes, plus same-node vertices with id <= v — laid out in a canonical
order (root block first, ascending id within each node).  Two vertices'
lists agree position-by-position on their common prefix, which is what
makes the label arrays of :mod:`repro.labels` directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import IndexBuildError
from repro.tree.lca import LCATable
from repro.types import Vertex


@dataclass
class TreeNode:
    """One node of a cut tree: a set of graph vertices."""

    index: int
    vertices: Tuple[Vertex, ...]  # sorted ascending = highest rank first
    parent: int  # -1 for the root
    children: List[int] = field(default_factory=list)
    depth: int = 0
    #: Total number of ancestor vertices up to and including this node's
    #: block (filled by ``finalize``).
    block_end: int = 0

    @property
    def size(self) -> int:
        """Number of vertices stored in this tree node."""
        return len(self.vertices)

    @property
    def block_start(self) -> int:
        """Offset of this node's label block (``block_end - size``)."""
        return self.block_end - len(self.vertices)


class CutTree:
    """A cut tree under construction and its finalized query structures."""

    def __init__(self) -> None:
        self.nodes: List[TreeNode] = []
        self.node_of_vertex: Dict[Vertex, int] = {}
        self._lca: Optional[LCATable] = None
        #: Position of each vertex inside its node's ascending-id order.
        self._rank_in_node: Dict[Vertex, int] = {}
        # Flat query-time arrays, filled by ``finalize``.
        self._block_start: List[int] = []
        self._block_end: List[int] = []
        self._preorder: Optional[Tuple[List[int], List[int]]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, vertices: Sequence[Vertex], parent: int = -1) -> int:
        """Append a tree node holding ``vertices``; returns its index."""
        if not vertices:
            raise IndexBuildError("a tree node must contain at least one vertex")
        ordered = tuple(sorted(vertices))
        index = len(self.nodes)
        node = TreeNode(index=index, vertices=ordered, parent=parent)
        if parent >= 0:
            parent_node = self.nodes[parent]
            if len(parent_node.children) >= 2:
                raise IndexBuildError(
                    f"node {parent} already has two children (binary tree)"
                )
            parent_node.children.append(index)
            node.depth = parent_node.depth + 1
        self.nodes.append(node)
        for position, v in enumerate(ordered):
            if v in self.node_of_vertex:
                raise IndexBuildError(f"vertex {v} assigned to two tree nodes")
            self.node_of_vertex[v] = index
            self._rank_in_node[v] = position
        return index

    @classmethod
    def from_flat(
        cls,
        parents: Sequence[int],
        node_offsets: Sequence[int],
        flat_vertices: Sequence[Vertex],
    ) -> "CutTree":
        """Rebuild a finalized tree from its flattened form in one pass.

        ``parents[i]`` is node ``i``'s parent (-1 root), and node ``i``
        owns ``flat_vertices[node_offsets[i]:node_offsets[i + 1]]`` in
        ascending-id order.  This is the deserialization fast path (the
        v4 container stores exactly these three arrays): it fuses
        :meth:`add_node` and :meth:`finalize` into one loop and skips
        the construction-time re-sorting and duplicate checks — the
        flattened form was produced *from* a finalized tree, so those
        invariants already hold.  The only structural requirement,
        parents-before-children (guaranteed by :meth:`add_node`'s
        append order), is still enforced.
        """
        if len(node_offsets) != len(parents) + 1:
            raise IndexBuildError(
                f"node offsets length {len(node_offsets)} does not match "
                f"{len(parents)} nodes"
            )
        # The v4 loader hands memoryviews over the mapping; item access
        # on those is several times slower than on lists, and this loop
        # is the hot part of a cold start.
        parents = list(parents)
        node_offsets = list(node_offsets)
        flat_vertices = list(flat_vertices)
        tree = cls()
        nodes = tree.nodes
        node_of = tree.node_of_vertex
        rank_of = tree._rank_in_node
        block_ends: List[int] = []
        for index, parent in enumerate(parents):
            vertices = tuple(
                flat_vertices[node_offsets[index]:node_offsets[index + 1]]
            )
            if not vertices:
                raise IndexBuildError(
                    f"tree node {index} has an empty vertex range"
                )
            node = TreeNode(index=index, vertices=vertices, parent=parent)
            if parent >= 0:
                if parent >= index:
                    raise IndexBuildError(
                        f"node {index} references parent {parent} that does "
                        "not precede it"
                    )
                parent_node = nodes[parent]
                if len(parent_node.children) >= 2:
                    raise IndexBuildError(
                        f"node {parent} already has two children "
                        "(binary tree)"
                    )
                parent_node.children.append(index)
                node.depth = parent_node.depth + 1
                node.block_end = parent_node.block_end + len(vertices)
            else:
                node.block_end = len(vertices)
            nodes.append(node)
            block_ends.append(node.block_end)
        # Per-vertex maps, built in bulk: vertex i of the flat layout
        # lives in the node whose offset range covers i, at rank
        # ``i - node_offsets[node]``.
        offsets_arr = np.asarray(node_offsets, dtype=np.int64)
        counts = np.diff(offsets_arr)
        node_ids = np.repeat(
            np.arange(len(parents), dtype=np.int64), counts
        )
        ranks = np.arange(len(flat_vertices), dtype=np.int64)
        ranks -= np.repeat(offsets_arr[:-1], counts)
        block_start = np.asarray(block_ends, dtype=np.int64) - counts
        node_of.update(zip(flat_vertices, node_ids.tolist()))
        rank_of.update(zip(flat_vertices, ranks.tolist()))
        if len(node_of) != len(flat_vertices):
            raise IndexBuildError(
                "flattened tree assigns a vertex to two nodes"
            )
        tree._lca = LCATable(parents)
        tree._block_start = block_start.tolist()
        tree._block_end = block_ends
        return tree

    def to_flat(self) -> Tuple[List[int], List[int], List[Vertex]]:
        """The flattened ``(parents, node_offsets, vertices)`` form.

        The exact inverse of :meth:`from_flat`; the v4 container writes
        these three arrays as aligned binary sections so a reload never
        parses the tree out of JSON.
        """
        parents: List[int] = []
        node_offsets: List[int] = [0]
        flat_vertices: List[Vertex] = []
        for node in self.nodes:
            parents.append(node.parent)
            flat_vertices.extend(node.vertices)
            node_offsets.append(len(flat_vertices))
        return parents, node_offsets, flat_vertices

    def finalize(self) -> None:
        """Compute depths, label-block offsets, and the LCA table."""
        for node in self.nodes:
            if node.parent >= 0:
                parent = self.nodes[node.parent]
                node.depth = parent.depth + 1
                node.block_end = parent.block_end + node.size
            else:
                node.depth = 0
                node.block_end = node.size
        self._lca = LCATable([node.parent for node in self.nodes])
        self._block_start = [node.block_start for node in self.nodes]
        self._block_end = [node.block_end for node in self.nodes]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of tree nodes."""
        return len(self.nodes)

    @property
    def lca_table(self) -> LCATable:
        """The O(1) LCA table over node indexes (after ``finalize``)."""
        if self._lca is None:
            raise IndexBuildError("CutTree.finalize() has not been called")
        return self._lca

    @property
    def block_starts(self) -> List[int]:
        """Label-block start offset per node index (after ``finalize``)."""
        return self._block_start

    @property
    def block_ends(self) -> List[int]:
        """Label-block end offset per node index (after ``finalize``)."""
        return self._block_end

    @property
    def num_vertices(self) -> int:
        """Number of graph vertices covered by the tree."""
        return len(self.node_of_vertex)

    @property
    def height(self) -> int:
        """Maximum number of ancestor vertices of any vertex (paper ``h``)."""
        return max((node.block_end for node in self.nodes), default=0)

    @property
    def width(self) -> int:
        """Maximum tree-node size (paper ``w``)."""
        return max((node.size for node in self.nodes), default=0)

    def node(self, index: int) -> TreeNode:
        """The tree node with the given index."""
        return self.nodes[index]

    def node_of(self, v: Vertex) -> TreeNode:
        """The tree node containing graph vertex ``v`` (``X(v)``)."""
        return self.nodes[self.node_of_vertex[v]]

    def rank_in_node(self, v: Vertex) -> int:
        """Position of ``v`` in its node's ascending-id order."""
        return self._rank_in_node[v]

    def label_length(self, v: Vertex) -> int:
        """``|A(v)|`` — number of ancestor vertices of ``v`` (incl. itself)."""
        node = self.node_of(v)
        return node.block_start + self._rank_in_node[v] + 1

    def preorder(self) -> Tuple[List[int], List[int]]:
        """``(first, end)`` preorder numbers per node index.

        Node ``j`` lies in node ``i``'s subtree exactly when
        ``first[i] <= first[j] < end[i]``, an O(1) membership test for
        label repair.  Computed on first use and cached.
        """
        if self._preorder is None:
            first = [0] * len(self.nodes)
            end = [0] * len(self.nodes)
            counter = 0
            stack = [(root.index, False) for root in self.nodes
                     if root.parent < 0]
            while stack:
                index, leaving = stack.pop()
                if leaving:
                    end[index] = counter
                    continue
                first[index] = counter
                counter += 1
                stack.append((index, True))
                stack.extend(
                    (child, False) for child in self.nodes[index].children
                )
            self._preorder = (first, end)
        return self._preorder

    def ancestors(self, index: int) -> Iterator[TreeNode]:
        """Nodes from the root down to ``index`` (inclusive)."""
        chain = []
        at: Optional[int] = index
        while at is not None and at >= 0:
            chain.append(self.nodes[at])
            at = self.nodes[at].parent if self.nodes[at].parent >= 0 else None
        return iter(reversed(chain))

    def ancestor_vertices(self, v: Vertex) -> List[Vertex]:
        """``A(v)`` in canonical label order (root block ... v itself)."""
        result: List[Vertex] = []
        own = self.node_of_vertex[v]
        for node in self.ancestors(own):
            if node.index == own:
                result.extend(node.vertices[: self._rank_in_node[v] + 1])
            else:
                result.extend(node.vertices)
        return result

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lca_node(self, u: Vertex, v: Vertex) -> TreeNode:
        """Lowest common ancestor node of ``X(u)`` and ``X(v)``."""
        if self._lca is None:
            raise IndexBuildError("CutTree.finalize() has not been called")
        a = self.node_of_vertex[u]
        b = self.node_of_vertex[v]
        return self.nodes[self._lca.lca(a, b)]

    def validate(self) -> None:
        """Cheap structural sanity checks; raises ``IndexBuildError``."""
        for node in self.nodes:
            if len(node.children) > 2:
                raise IndexBuildError(f"node {node.index} has >2 children")
            for child in node.children:
                if not 0 <= child < len(self.nodes):
                    raise IndexBuildError(
                        f"node {node.index} references unknown child {child}"
                    )
                if self.nodes[child].parent != node.index:
                    raise IndexBuildError(
                        f"child {child} does not point back to {node.index}"
                    )
