"""Additional CutTree behaviours: ancestors, validation, big trees."""

import pytest

from repro.core.base import BuildStats
from repro.core.ctl import CTLIndex
from repro.exceptions import IndexBuildError
from repro.labels.store import LabelStore
from repro.tree.cut_tree import CutTree


def build_path_tree(depth: int) -> CutTree:
    tree = CutTree()
    at = tree.add_node([0])
    for v in range(1, depth):
        at = tree.add_node([v], parent=at)
    tree.finalize()
    return tree


class TestAncestors:
    def test_root_first_order(self):
        tree = build_path_tree(5)
        chain = [node.vertices[0] for node in tree.ancestors(4)]
        assert chain == [0, 1, 2, 3, 4]

    def test_single_node(self):
        tree = build_path_tree(1)
        assert [n.index for n in tree.ancestors(0)] == [0]

    def test_deep_tree_no_recursion(self):
        tree = build_path_tree(3000)
        assert tree.label_length(2999) == 3000
        assert tree.lca_node(0, 2999).index == 0
        store = LabelStore(())
        store.dist = {v: [0] * (v + 1) for v in range(3000)}
        store.count = {v: [1] * (v + 1) for v in range(3000)}
        index = CTLIndex(tree, store, BuildStats(), 3000, 0)
        assert index.window(1500, 2999) == (0, 1501)


class TestValidate:
    def test_detects_broken_child_link(self):
        tree = CutTree()
        root = tree.add_node([0])
        child = tree.add_node([1], parent=root)
        tree.nodes[child].parent = child  # corrupt
        with pytest.raises(IndexBuildError):
            tree.validate()

    def test_detects_too_many_children(self):
        tree = CutTree()
        root = tree.add_node([0])
        tree.add_node([1], parent=root)
        tree.add_node([2], parent=root)
        tree.nodes[root].children.append(99)
        with pytest.raises(IndexBuildError):
            tree.validate()


class TestNodeAccessors:
    def test_node_of_and_rank(self):
        tree = CutTree()
        tree.add_node([7, 3, 9])
        tree.finalize()
        assert tree.node_of(7).vertices == (3, 7, 9)
        assert tree.rank_in_node(3) == 0
        assert tree.rank_in_node(7) == 1
        assert tree.rank_in_node(9) == 2

    def test_width_height_empty(self):
        tree = CutTree()
        assert tree.width == 0
        assert tree.height == 0
