"""Immutable packed-adjacency graph snapshots.

Pure-Python index construction spends most of its time in SSSPC's
adjacency iteration.  A :class:`CSRGraph` snapshot re-maps vertices to
dense ids and packs each neighbourhood into one tuple of
``(target, weight, count)`` triples — iteration unpacks compact tuples
instead of probing hash maps, and the search state becomes flat lists.
Measured ~1.6x faster SSSPC in CPython at zero algorithmic risk (the
dict-based path remains the reference; both are tested to agree).

Dense ids follow ascending original ids, so ``(distance, dense id)``
heap entries order exactly like ``(distance, vertex)`` ones, and each
neighbourhood keeps the graph's adjacency order: searches over a
snapshot break every tie the way the dict-based searches do.

Snapshots are *static*: they capture a :class:`~repro.graph.graph.Graph`
at a point in time.  Algorithms that logically delete vertices (label
computation removes processed cut vertices) pass a banned mask instead
of mutating.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.exceptions import VertexNotFoundError
from repro.graph.graph import Graph
from repro.types import Vertex, Weight

NeighborTriples = Tuple[Tuple[int, Weight, int], ...]


class CSRGraph:
    """A frozen adjacency snapshot with dense internal ids."""

    __slots__ = ("vertex_ids", "vertices", "neighbors")

    def __init__(self, graph: Graph) -> None:
        #: dense internal id -> original vertex id (ascending originals)
        self.vertices: List[Vertex] = sorted(graph.vertices())
        #: original vertex id -> dense internal id
        self.vertex_ids: Dict[Vertex, int] = dict(
            zip(self.vertices, range(len(self.vertices)))
        )

        #: ``neighbors[dense]`` — tuple of ``(target, weight, count)``,
        #: in the graph's own adjacency order, so a search over the
        #: snapshot meets ties in the order the dict search does.
        ids = self.vertex_ids
        self.neighbors: List[NeighborTriples] = [
            tuple((ids[u], w, c) for u, (w, c) in graph.adj(v).items())
            for v in self.vertices
        ]

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the snapshot."""
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self.neighbors) // 2

    def dense_id(self, v: Vertex) -> int:
        """Internal id of an original vertex id."""
        try:
            return self.vertex_ids[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, dense: int) -> int:
        """Degree of an internal id."""
        return len(self.neighbors[dense])
