"""Tests for the CutTree structure."""

import pytest

from repro.core.base import BuildStats
from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.exceptions import IndexBuildError, IndexQueryError
from repro.labels.store import LabelStore
from repro.tree.cut_tree import CutTree


def build_sample():
    """Root {1, 5}; left child {2}; right child {3, 4}; grandchild {6}."""
    tree = CutTree()
    root = tree.add_node([5, 1])  # stored sorted: (1, 5)
    left = tree.add_node([2], parent=root)
    right = tree.add_node([4, 3], parent=root)
    tree.add_node([6], parent=left)
    tree.finalize()
    return tree, root, left, right


def sample_indexes():
    """CTL and CTLS indexes over the sample tree (placeholder labels).

    The scan windows depend only on the tree and the label lengths, so
    every entry can be ``(0, 1)``.
    """
    tree, *_ = build_sample()
    store = LabelStore(tree.node_of_vertex)
    for v in tree.node_of_vertex:
        for _ in range(tree.label_length(v)):
            store.append(v, 0, 1)
    ctl = CTLIndex(tree, store, BuildStats(), tree.num_vertices, 0)
    ctls = CTLSIndex(
        tree, store, BuildStats(), tree.num_vertices, 0, "cutsearch"
    )
    return ctl, ctls


class TestConstruction:
    def test_vertices_sorted_in_node(self):
        tree, root, _l, right = build_sample()
        assert tree.node(root).vertices == (1, 5)
        assert tree.node(right).vertices == (3, 4)

    def test_empty_node_rejected(self):
        tree = CutTree()
        with pytest.raises(IndexBuildError):
            tree.add_node([])

    def test_duplicate_vertex_rejected(self):
        tree = CutTree()
        tree.add_node([1])
        with pytest.raises(IndexBuildError):
            tree.add_node([1])

    def test_third_child_rejected(self):
        tree = CutTree()
        root = tree.add_node([0])
        tree.add_node([1], parent=root)
        tree.add_node([2], parent=root)
        with pytest.raises(IndexBuildError):
            tree.add_node([3], parent=root)

    def test_counts(self):
        tree, *_ = build_sample()
        assert tree.num_nodes == 4
        assert tree.num_vertices == 6
        assert tree.width == 2
        assert tree.height == 4  # path root(2) -> left(1) -> grandchild(1)

    def test_validate_passes(self):
        tree, *_ = build_sample()
        tree.validate()


class TestOffsets:
    def test_block_offsets(self):
        tree, root, left, right = build_sample()
        assert tree.node(root).block_start == 0
        assert tree.node(root).block_end == 2
        assert tree.node(left).block_end == 3
        assert tree.node(right).block_end == 4

    def test_label_lengths(self):
        tree, *_ = build_sample()
        assert tree.label_length(1) == 1  # rank 0 in root
        assert tree.label_length(5) == 2
        assert tree.label_length(2) == 3
        assert tree.label_length(3) == 3  # root block + own position
        assert tree.label_length(4) == 4
        assert tree.label_length(6) == 4

    def test_ancestor_vertices(self):
        tree, *_ = build_sample()
        assert tree.ancestor_vertices(6) == [1, 5, 2, 6]
        assert tree.ancestor_vertices(4) == [1, 5, 3, 4]
        assert tree.ancestor_vertices(5) == [1, 5]
        assert tree.ancestor_vertices(1) == [1]


class TestQueries:
    def test_lca_node(self):
        tree, root, left, right = build_sample()
        assert tree.lca_node(6, 4).index == root
        assert tree.lca_node(2, 6).index == left
        assert tree.lca_node(3, 4).index == right
        assert tree.lca_node(1, 6).index == root

    def test_lca_before_finalize_raises(self):
        tree = CutTree()
        tree.add_node([0, 1])
        with pytest.raises(IndexBuildError):
            tree.lca_node(0, 1)

    # CTL scans the common prefix of A(u) and A(v): window [0, end).
    def test_common_prefix_cross_branch(self):
        ctl, _ = sample_indexes()
        # 6 (left branch) vs 4 (right branch): LCA is the root block.
        assert ctl.window(6, 4) == (0, 2)

    def test_common_prefix_ancestor_relation(self):
        ctl, _ = sample_indexes()
        # 2's node is an ancestor of 6's node: prefix = A(2).
        assert ctl.window(2, 6) == (0, 3)
        assert ctl.window(6, 2) == (0, 3)

    def test_common_prefix_same_node(self):
        ctl, _ = sample_indexes()
        # 3 and 4 share a node: truncate at min rank.
        assert ctl.window(3, 4) == (0, 3)
        assert ctl.window(1, 5) == (0, 1)

    # CTLS scans only the LCA node's block of that prefix.
    def test_lca_block_window_cross_branch(self):
        _, ctls = sample_indexes()
        assert ctls.window(6, 4) == (0, 2)

    def test_lca_block_window_same_node(self):
        _, ctls = sample_indexes()
        assert ctls.window(3, 4) == (2, 3)

    def test_lca_block_window_ancestor(self):
        _, ctls = sample_indexes()
        # LCA node is 2's own node; end truncates at 2's label length.
        assert ctls.window(2, 6) == (2, 3)

    def test_unknown_vertex_raises(self):
        ctl, ctls = sample_indexes()
        for index in (ctl, ctls):
            with pytest.raises(IndexQueryError):
                index.window(6, 99)


class TestFromFlat:
    """A tree opened from its flattened form derives only the query
    arrays; its nodes and vertex maps appear when a caller walks it."""

    def test_query_arrays_without_tree_nodes(self):
        tree, *_ = build_sample()
        opened = CutTree.from_flat(*tree.to_flat())
        assert opened.block_starts == tree.block_starts
        assert opened.block_ends == tree.block_ends
        assert opened.lca_codes.depths == [node.depth for node in tree.nodes]
        assert opened.lca_codes.codes == tree.lca_codes.codes
        assert (opened.num_nodes, opened.num_vertices, opened.height,
                opened.width) == (tree.num_nodes, tree.num_vertices,
                                  tree.height, tree.width)
        assert opened._nodes is None and opened._node_of_vertex is None

    def test_walking_builds_the_same_nodes(self):
        tree, *_ = build_sample()
        flat = tree.to_flat()
        opened = CutTree.from_flat(*flat)
        for u in tree.node_of_vertex:
            for v in tree.node_of_vertex:
                assert opened.lca_node(u, v).index == tree.lca_node(u, v).index
            assert opened.label_length(u) == tree.label_length(u)
            assert opened.ancestor_vertices(u) == tree.ancestor_vertices(u)
        assert opened.nodes == tree.nodes
        assert opened.preorder() == tree.preorder()
        assert opened.to_flat() == flat

    @pytest.mark.parametrize("flat, message", [
        (([-1, 0], [0, 1, 1], [7]), "empty vertex range"),
        (([-1, 0], [0, 1, 3], [7, 8]), "tree holds 2 vertices"),
        (([-1, 0, 0, 0], [0, 1, 2, 3, 4], [1, 2, 3, 4]), "two children"),
        (([1, -1], [0, 1, 2], [1, 2]), "does not precede"),
    ])
    def test_refuses_a_broken_flat_form(self, flat, message):
        with pytest.raises(IndexBuildError, match=message):
            CutTree.from_flat(*flat)
