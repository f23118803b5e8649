"""Label-identity pin: seeded builds keep their label and tree bytes.

The sha256 covers the sections a v4 file stores for a CTL/CTLS index —
``offsets``, ``dist``, ``count`` and the four ``tree_*`` sections — in
that order, for CTL and for each CTLS construction strategy on one
seeded road network.  A change to how construction runs (the cut's
flow network, bounded searches, label packing) must leave every hash
as it is; only a change to what the index *is* may move them, and says
so.

Two hashes per index: :data:`EXPECTED` over ``dist``/``count``
re-encoded at int32 (the label *values*, pinned since before 16-bit
arrays existed) and :data:`STORED` over the bytes as stored (the
*layout*, uint16 for this network).
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

STORED = {
    "ctl": "e3f69c9b2eeed4cc98751e5b81ccec894dbb8a37307b7bf9520cd52fc6c251e1",
    "basic": "36b1bd9d8b7989cc566380f8fbced55410b7189135d8fbfb06e95d30942fad70",
    "pruned": "3c11facca0da560964615caa0ee6bfcf4dde4a8e8407053dcc0f797c00acaa37",
    "cutsearch": (
        "41ec8bdf3b6022fde20f47aa5225790922eceef9488fc5f73feff29cc3c42f52"
    ),
}

pytestmark = pytest.mark.skipif(
    sys.byteorder != "little", reason="hashes pin little-endian sections"
)


@pytest.fixture(scope="module")
def graph():
    return road_network(400, seed=11)


def as_int32(arena):
    """``dist`` and ``count`` re-encoded in int32 arrays."""
    inf, stored_inf = WIDTHS["i"].inf, WIDTHS[arena.dist_typecode].inf
    dist = [inf if d >= stored_inf else d for d in arena.dist]
    return array("i", dist), array("i", arena.count)


def sections(index, stored):
    arena = index.arena
    parents, blocks, vertices = index.tree.to_flat()
    labels = (arena.dist, arena.count) if stored else as_int32(arena)
    return [
        arena.offsets,
        *labels,
        array("q", parents),
        array("q", blocks),
        array("q", vertices),
        array("i", index.node_of_dense),
    ]


def digest(index, stored=False) -> str:
    h = hashlib.sha256()
    for section in sections(index, stored):
        h.update(bytes(section))
    return h.hexdigest()


def test_ctl_labels_and_tree_are_pinned(graph):
    index = CTLIndex.build(graph)
    # Induced subgraphs leave some vertices unreachable from a cut
    # vertex, so the pin covers the packed INF code too.
    assert index.arena.dist_typecode + index.arena.count_typecode == "HH"
    assert WIDTHS["H"].inf in index.arena.dist
    assert digest(index) == EXPECTED["ctl"]
    assert digest(index, stored=True) == STORED["ctl"]


@pytest.mark.parametrize("strategy", ["basic", "pruned", "cutsearch"])
def test_ctls_labels_and_tree_are_pinned(graph, strategy):
    index = CTLSIndex.build(graph, strategy=strategy)
    assert digest(index) == EXPECTED[strategy]
    assert digest(index, stored=True) == STORED[strategy]
