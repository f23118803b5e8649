"""Label-identity pin: seeded builds keep their label and tree bytes.

The sha256 covers the sections a v4 file stores for a CTL/CTLS index —
``offsets``, ``dist``, ``count`` and the four ``tree_*`` sections — in
that order, for CTL and for each CTLS construction strategy on one
seeded road network.  A change to how construction runs (the cut's
flow network, bounded searches, label packing) must leave every hash
as it is; only a change to what the index *is* may move them, and says
so.
"""

import hashlib
import sys
from array import array

import pytest

from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.graph.generators import road_network
from repro.labels.arena import WIDTHS

EXPECTED = {
    "ctl": "93294bab13e7444e018e07c5d1622fa1d584836836967dace2e8e58fc1086cb6",
    "basic": "44db9028c3d6f5ce477d3c50e71fddef0c1a19ab2ade62609a3dd65327cea1fc",
    "pruned": "795c5863ee2f90195b94c301b427cd4148d4f0f7583bfa19a1d2abf7b9230e68",
    "cutsearch": (
        "5b5daaa69fc638e31181758893ae001c2ed5a2bd3c164cbc32db183ba13e2653"
    ),
}

pytestmark = pytest.mark.skipif(
    sys.byteorder != "little", reason="hashes pin little-endian sections"
)


@pytest.fixture(scope="module")
def graph():
    return road_network(400, seed=11)


def sections(index):
    arena = index.arena
    parents, blocks, vertices = index.tree.to_flat()
    return [
        arena.offsets,
        arena.dist,
        arena.count,
        array("q", parents),
        array("q", blocks),
        array("q", vertices),
        array("i", index.node_of_dense),
    ]


def digest(index) -> str:
    h = hashlib.sha256()
    for section in sections(index):
        h.update(bytes(section))
    return h.hexdigest()


def test_ctl_labels_and_tree_are_pinned(graph):
    index = CTLIndex.build(graph)
    # Induced subgraphs leave some vertices unreachable from a cut
    # vertex, so the pin covers the packed INF code too.
    assert WIDTHS["i"].inf in index.arena.dist
    assert digest(index) == EXPECTED["ctl"]


@pytest.mark.parametrize("strategy", ["basic", "pruned", "cutsearch"])
def test_ctls_labels_and_tree_are_pinned(graph, strategy):
    index = CTLSIndex.build(graph, strategy=strategy)
    assert digest(index) == EXPECTED[strategy]
