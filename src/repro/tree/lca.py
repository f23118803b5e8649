"""Lowest common ancestor queries: bit codes for binary trees, a sparse
table for the rest.

:class:`BitCodeLCA` serves the cut trees of CTL and CTLS, which are
binary.  Every node gets its root path as a bit code (the root is
``1``, a child is ``parent << 1 | side``), so a node at depth ``d`` has
a ``d + 1``-bit code and an ancestor's code is a prefix of its
descendants'.  An LCA is the longest common prefix of two codes: shift
the deeper code up to the shallower one's depth, XOR, shift off the
differing bits.  That is O(1) word operations on the trees indexes
build (the paper's Lemma 3.4 assumes such a bit-trick LCA, and HC2L
addresses its cut hierarchy the same way), and Python integers give
the codes no depth limit.  Building the codes is one pass over a
parent array in plain Python: no numpy, no table.

:class:`LCATable` (Euler tour + sparse-table range minimum, ``O(n log
n)`` preprocessing, ``O(1)`` per query) serves trees of any fan-out:
the TL baseline's tree decomposition.  It builds its table with numpy,
imported by its constructor, and answers queries through plain Python
lists — per-query numpy scalar indexing would cost more than the whole
label scan it serves.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.exceptions import IndexBuildError


class BitCodeLCA:
    """LCA over a rooted binary tree given as a parent array.

    Args:
        parents: ``parents[i]`` is the parent index of node ``i``; the
            one root uses ``-1``.  Every parent precedes its children
            (``parents[i] < i``) and has at most two of them; the first
            child listed takes side ``0``, the second side ``1``.

    Raises :class:`~repro.exceptions.IndexBuildError` when the array
    breaks one of those rules.
    """

    __slots__ = ("codes", "depths", "_node_at")

    def __init__(self, parents: Sequence[int]) -> None:
        n = len(parents)
        codes = [1] * n
        depths = [0] * n
        kids = [0] * n
        root = -1
        for i, p in enumerate(parents):
            if p < 0:
                if root >= 0:
                    raise IndexBuildError(
                        f"nodes {root} and {i} are both roots"
                    )
                root = i
                continue
            if p >= i:
                raise IndexBuildError(
                    f"node {i} references parent {p} that does not "
                    "precede it"
                )
            side = kids[p]
            if side > 1:
                raise IndexBuildError(
                    f"node {p} already has two children (binary tree)"
                )
            kids[p] = side + 1
            codes[i] = codes[p] << 1 | side
            depths[i] = depths[p] + 1
        #: Root-path bit code per node.
        self.codes: List[int] = codes
        #: Depth per node (the root is 0): its code's bit length - 1.
        self.depths: List[int] = depths
        self._node_at: Dict[int, int] = dict(zip(codes, range(n)))

    def lca(self, a: int, b: int) -> int:
        """The lowest common ancestor of nodes ``a`` and ``b``."""
        codes = self.codes
        depths = self.depths
        ca = codes[a]
        cb = codes[b]
        shift = depths[a] - depths[b]
        if shift > 0:
            ca >>= shift
        elif shift:
            cb >>= -shift
        differ = ca ^ cb
        if differ:
            ca >>= differ.bit_length()
        return self._node_at[ca]


class LCATable:
    """LCA over a static rooted tree (or forest) given as a parent array.

    Args:
        parents: ``parents[i]`` is the parent index of node ``i``; roots
            use ``-1``.  Any node order is accepted.

    For forests, queries across different trees return a root, which is
    not a meaningful ancestor — callers are expected to query within
    one tree (all index trees here are single-rooted).
    """

    def __init__(self, parents: Sequence[int]) -> None:
        import numpy as np

        n = len(parents)
        children: List[List[int]] = [[] for _ in range(n)]
        roots: List[int] = []
        for i, p in enumerate(parents):
            if p < 0:
                roots.append(i)
            else:
                children[p].append(i)

        self.depth = [0] * n
        depth = self.depth
        euler: List[int] = []
        append = euler.append
        first = [-1] * n
        # Iterative Euler tour (recursion would overflow on path-like
        # trees).  A negative stack entry ``~p`` is a return marker:
        # popping it re-appends ``p`` after one of its child subtrees.
        for root in roots:
            stack = [root]
            push = stack.append
            pop = stack.pop
            while stack:
                node = pop()
                if node < 0:
                    append(~node)
                    continue
                first[node] = len(euler)
                append(node)
                kids = children[node]
                if kids:
                    d = depth[node] + 1
                    for child in reversed(kids):
                        depth[child] = d
                        push(~node)
                        push(child)

        self._first = first
        self._euler = euler
        depths = np.asarray(depth, dtype=np.int64)[
            np.asarray(euler, dtype=np.int64)
        ]

        # Sparse table of (depth << 32 | euler position): np.minimum on
        # the packed value picks the shallower node.
        m = len(euler)
        levels = max(1, m.bit_length())
        packed = depths << 32 | np.arange(m, dtype=np.int64)
        table_np = [packed]
        for k in range(1, levels):
            span = 1 << k
            half = span >> 1
            if span > m:
                break
            prev = table_np[k - 1]
            table_np.append(
                np.minimum(prev[: m - span + 1], prev[half: m - span + 1 + half])
            )
        # Python lists for fast scalar access at query time.
        self._table: List[List[int]] = [row.tolist() for row in table_np]

    def lca(self, a: int, b: int) -> int:
        """The lowest common ancestor of nodes ``a`` and ``b``."""
        if a == b:
            return a
        i = self._first[a]
        j = self._first[b]
        if i > j:
            i, j = j, i
        k = (j - i + 1).bit_length() - 1
        row = self._table[k]
        left = row[i]
        right = row[j - (1 << k) + 1]
        best = left if left < right else right
        return self._euler[best & 0xFFFFFFFF]

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """Whether ``ancestor`` lies on the root path of ``node``."""
        return self.lca(ancestor, node) == ancestor
