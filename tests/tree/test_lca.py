"""Tests for the bit-code LCA and the Euler-tour sparse-table LCA."""

import random

import pytest

from repro.exceptions import IndexBuildError
from repro.tree.lca import BitCodeLCA, LCATable


def brute_lca(parents, a, b):
    def ancestors(x):
        chain = []
        while x >= 0:
            chain.append(x)
            x = parents[x]
        return chain

    chain_a = ancestors(a)
    set_b = set(ancestors(b))
    for node in chain_a:
        if node in set_b:
            return node
    raise AssertionError("no common ancestor")


class TestLCATable:
    def test_single_node(self):
        table = LCATable([-1])
        assert table.lca(0, 0) == 0
        assert table.depth == [0]

    def test_small_tree(self):
        #      0
        #     / \
        #    1   2
        #   / \
        #  3   4
        parents = [-1, 0, 0, 1, 1]
        table = LCATable(parents)
        assert table.lca(3, 4) == 1
        assert table.lca(3, 2) == 0
        assert table.lca(1, 3) == 1
        assert table.lca(0, 4) == 0

    def test_path_tree(self):
        parents = [-1] + list(range(19))
        table = LCATable(parents)
        assert table.lca(19, 5) == 5
        assert table.lca(10, 10) == 10
        assert table.depth[19] == 19

    def test_deep_tree_no_recursion_error(self):
        n = 5000
        parents = [-1] + list(range(n - 1))
        table = LCATable(parents)
        assert table.lca(n - 1, 0) == 0

    def test_matches_bruteforce_random_trees(self):
        rng = random.Random(5)
        for _trial in range(5):
            n = 60
            parents = [-1] + [rng.randrange(i) for i in range(1, n)]
            table = LCATable(parents)
            for _q in range(100):
                a, b = rng.randrange(n), rng.randrange(n)
                assert table.lca(a, b) == brute_lca(parents, a, b)

    def test_is_ancestor(self):
        parents = [-1, 0, 1, 2]
        table = LCATable(parents)
        assert table.is_ancestor(0, 3)
        assert table.is_ancestor(3, 3)
        assert not table.is_ancestor(3, 0)


class TestBitCodeLCA:
    def test_codes_are_root_paths(self):
        #      0
        #     / \
        #    1   2
        #   / \
        #  3   4
        lca = BitCodeLCA([-1, 0, 0, 1, 1])
        assert lca.codes == [0b1, 0b10, 0b11, 0b100, 0b101]
        assert lca.depths == [0, 1, 1, 2, 2]
        assert lca.lca(3, 4) == 1
        assert lca.lca(3, 2) == 0
        assert lca.lca(1, 3) == 1
        assert lca.lca(4, 4) == 4

    def test_path_past_a_machine_word(self):
        n = 5000
        lca = BitCodeLCA([-1] + list(range(n - 1)))
        assert lca.codes[n - 1].bit_length() == n
        assert lca.lca(n - 1, 70) == 70
        assert lca.lca(3, n - 1) == 3

    @pytest.mark.parametrize("parents, message", [
        ([-1, -1], "both roots"),
        ([-1, 0, 0, 0], "two children"),
        ([-1, 2, 0], "does not precede"),
    ])
    def test_refuses_what_is_not_a_binary_tree(self, parents, message):
        with pytest.raises(IndexBuildError, match=message):
            BitCodeLCA(parents)

    def test_matches_the_sparse_table(self):
        rng = random.Random(9)
        parents = [-1]
        kids = [0]
        for i in range(1, 300):
            p = rng.choice([j for j in range(i) if kids[j] < 2])
            kids[p] += 1
            kids.append(0)
            parents.append(p)
        codes, table = BitCodeLCA(parents), LCATable(parents)
        for _ in range(500):
            a, b = rng.randrange(300), rng.randrange(300)
            assert codes.lca(a, b) == table.lca(a, b)
