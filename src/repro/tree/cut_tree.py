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

A query needs only flat per-node arrays: the root-path bit codes of
:class:`~repro.tree.lca.BitCodeLCA` and the label-block offsets.  A
tree opened from its flattened form (:meth:`CutTree.from_flat`, the v4
loader's path) derives just those; its :class:`TreeNode` objects and
vertex maps are built on first use, by the callers that walk the tree
(label repair, ``explain``, analysis).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import IndexBuildError
from repro.tree.lca import BitCodeLCA
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


def _as_list(values: Sequence[int]) -> List[int]:
    """``values`` as a list (the v4 loader hands over memoryviews)."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else list(values)


class CutTree:
    """A cut tree under construction and its finalized query structures."""

    def __init__(self) -> None:
        self._nodes: Optional[List[TreeNode]] = []
        self._node_of_vertex: Optional[Dict[Vertex, int]] = {}
        #: Position of each vertex inside its node's ascending-id order.
        self._rank_in_node: Optional[Dict[Vertex, int]] = {}
        #: ``(parents, node_offsets, flat_vertices)`` of a tree opened by
        #: :meth:`from_flat`; its nodes and vertex maps are built from it
        #: on first use.
        self._flat: Optional[Tuple[List[int], List[int], Sequence]] = None
        self._lca: Optional[BitCodeLCA] = None
        # Flat query-time arrays, filled by ``finalize``/``from_flat``.
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
        nodes = self.nodes
        index = len(nodes)
        node = TreeNode(index=index, vertices=ordered, parent=parent)
        if parent >= 0:
            parent_node = nodes[parent]
            if len(parent_node.children) >= 2:
                raise IndexBuildError(
                    f"node {parent} already has two children (binary tree)"
                )
            parent_node.children.append(index)
            node.depth = parent_node.depth + 1
        nodes.append(node)
        node_of = self.node_of_vertex
        for position, v in enumerate(ordered):
            if v in node_of:
                raise IndexBuildError(f"vertex {v} assigned to two tree nodes")
            node_of[v] = index
            self._rank_in_node[v] = position
        return index

    @classmethod
    def from_flat(
        cls,
        parents: Sequence[int],
        node_offsets: Sequence[int],
        flat_vertices: Sequence[Vertex],
    ) -> "CutTree":
        """Open a finalized tree from its flattened form.

        ``parents[i]`` is node ``i``'s parent (-1 root), and node ``i``
        owns ``flat_vertices[node_offsets[i]:node_offsets[i + 1]]`` in
        ascending-id order.  This is the deserialization path (the v4
        container stores exactly these three arrays): it derives the
        query arrays — bit codes, depths, block offsets — in one pass
        over the nodes and leaves ``flat_vertices`` untouched until a
        caller asks for the :class:`TreeNode` objects or the vertex
        maps.  The flattened form was produced *from* a finalized tree,
        so construction's re-sorting and duplicate checks are skipped;
        the structure a query relies on (one root, parents before
        children, at most two children, no empty node) is enforced.
        """
        if len(node_offsets) != len(parents) + 1:
            raise IndexBuildError(
                f"node offsets length {len(node_offsets)} does not match "
                f"{len(parents)} nodes"
            )
        parents = _as_list(parents)
        node_offsets = _as_list(node_offsets)
        if node_offsets[0] != 0 or node_offsets[-1] != len(flat_vertices):
            raise IndexBuildError(
                f"node offsets span [{node_offsets[0]}, {node_offsets[-1]}) "
                f"but the tree holds {len(flat_vertices)} vertices"
            )
        tree = cls()
        tree._nodes = tree._node_of_vertex = tree._rank_in_node = None
        tree._flat = (parents, node_offsets, flat_vertices)
        tree._lca = BitCodeLCA(parents)
        sizes = list(map(operator.sub, node_offsets[1:], node_offsets))
        if sizes and min(sizes) <= 0:
            raise IndexBuildError(
                f"tree node {sizes.index(min(sizes))} has an empty vertex "
                "range"
            )
        # Parents precede children (BitCodeLCA checked), so a parent's
        # block end is final before any child adds its own size to it.
        ends = sizes[:]
        for index, parent in enumerate(parents):
            if parent >= 0:
                ends[index] += ends[parent]
        tree._block_start = list(map(operator.sub, ends, sizes))
        tree._block_end = ends
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
        """Compute depths, label-block offsets, and the LCA bit codes."""
        nodes = self.nodes
        for node in nodes:
            if node.parent >= 0:
                parent = nodes[node.parent]
                node.depth = parent.depth + 1
                node.block_end = parent.block_end + node.size
            else:
                node.depth = 0
                node.block_end = node.size
        self._lca = BitCodeLCA([node.parent for node in nodes])
        self._block_start = [node.block_start for node in nodes]
        self._block_end = [node.block_end for node in nodes]

    def _build_nodes(self) -> None:
        """Build the :class:`TreeNode` objects of a tree opened flat."""
        parents, node_offsets, flat_vertices = self._flat
        flat_vertices = _as_list(flat_vertices)
        depths = self._lca.depths
        ends = self._block_end
        nodes: List[TreeNode] = []
        for index, parent in enumerate(parents):
            nodes.append(TreeNode(
                index=index,
                vertices=tuple(
                    flat_vertices[node_offsets[index]:node_offsets[index + 1]]
                ),
                parent=parent,
                depth=depths[index],
                block_end=ends[index],
            ))
            if parent >= 0:
                nodes[parent].children.append(index)
        self._nodes = nodes

    def _build_vertex_maps(self) -> None:
        """Build ``node_of_vertex`` and the in-node ranks of a flat tree."""
        _, node_offsets, flat_vertices = self._flat
        flat_vertices = _as_list(flat_vertices)
        node_of: Dict[Vertex, int] = {}
        rank_of: Dict[Vertex, int] = {}
        start = 0
        for index, end in enumerate(node_offsets[1:]):
            for rank, v in enumerate(flat_vertices[start:end]):
                node_of[v] = index
                rank_of[v] = rank
            start = end
        if len(node_of) != len(flat_vertices):
            raise IndexBuildError(
                "flattened tree assigns a vertex to two nodes"
            )
        self._node_of_vertex = node_of
        self._rank_in_node = rank_of

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[TreeNode]:
        """Every tree node, by index (built on first use after
        :meth:`from_flat`)."""
        if self._nodes is None:
            self._build_nodes()
        return self._nodes

    @property
    def node_of_vertex(self) -> Dict[Vertex, int]:
        """Tree node index of every graph vertex (``X(v)``)."""
        if self._node_of_vertex is None:
            self._build_vertex_maps()
        return self._node_of_vertex

    @property
    def num_nodes(self) -> int:
        """Number of tree nodes."""
        if self._nodes is None:
            return len(self._flat[0])
        return len(self._nodes)

    @property
    def lca_codes(self) -> BitCodeLCA:
        """The bit-code LCA over node indexes (after ``finalize``)."""
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
        if self._node_of_vertex is None:
            return len(self._flat[2])
        return len(self._node_of_vertex)

    @property
    def height(self) -> int:
        """Maximum number of ancestor vertices of any vertex (paper ``h``;
        after ``finalize``)."""
        return max(self._block_end, default=0)

    @property
    def width(self) -> int:
        """Maximum tree-node size (paper ``w``; after ``finalize``)."""
        return max(
            map(operator.sub, self._block_end, self._block_start), default=0
        )

    def node(self, index: int) -> TreeNode:
        """The tree node with the given index."""
        return self.nodes[index]

    def node_of(self, v: Vertex) -> TreeNode:
        """The tree node containing graph vertex ``v`` (``X(v)``)."""
        return self.nodes[self.node_of_vertex[v]]

    def rank_in_node(self, v: Vertex) -> int:
        """Position of ``v`` in its node's ascending-id order."""
        if self._rank_in_node is None:
            self._build_vertex_maps()
        return self._rank_in_node[v]

    def label_length(self, v: Vertex) -> int:
        """``|A(v)|`` — number of ancestor vertices of ``v`` (incl. itself)."""
        return self.node_of(v).block_start + self.rank_in_node(v) + 1

    def preorder(self) -> Tuple[List[int], List[int]]:
        """``(first, end)`` preorder numbers per node index.

        Node ``j`` lies in node ``i``'s subtree exactly when
        ``first[i] <= first[j] < end[i]``, an O(1) membership test for
        label repair.  Computed on first use and cached.
        """
        if self._preorder is None:
            nodes = self.nodes
            first = [0] * len(nodes)
            end = [0] * len(nodes)
            counter = 0
            stack = [(root.index, False) for root in nodes
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
                    (child, False) for child in nodes[index].children
                )
            self._preorder = (first, end)
        return self._preorder

    def ancestors(self, index: int) -> Iterator[TreeNode]:
        """Nodes from the root down to ``index`` (inclusive)."""
        nodes = self.nodes
        chain = []
        at = index
        while at >= 0:
            chain.append(nodes[at])
            at = nodes[at].parent
        return iter(reversed(chain))

    def ancestor_vertices(self, v: Vertex) -> List[Vertex]:
        """``A(v)`` in canonical label order (root block ... v itself)."""
        result: List[Vertex] = []
        own = self.node_of_vertex[v]
        for node in self.ancestors(own):
            if node.index == own:
                result.extend(node.vertices[: self.rank_in_node(v) + 1])
            else:
                result.extend(node.vertices)
        return result

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lca_node(self, u: Vertex, v: Vertex) -> TreeNode:
        """Lowest common ancestor node of ``X(u)`` and ``X(v)``."""
        lca = self.lca_codes.lca
        node_of = self.node_of_vertex
        return self.nodes[lca(node_of[u], node_of[v])]

    def validate(self) -> None:
        """Cheap structural sanity checks; raises ``IndexBuildError``."""
        nodes = self.nodes
        for node in nodes:
            if len(node.children) > 2:
                raise IndexBuildError(f"node {node.index} has >2 children")
            for child in node.children:
                if not 0 <= child < len(nodes):
                    raise IndexBuildError(
                        f"node {node.index} references unknown child {child}"
                    )
                if nodes[child].parent != node.index:
                    raise IndexBuildError(
                        f"child {child} does not point back to {node.index}"
                    )
