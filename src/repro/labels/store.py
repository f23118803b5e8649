"""Per-vertex hub-label storage.

Every vertex stores two parallel arrays over its ancestor vertices
``A(v)`` in the canonical order defined by :class:`repro.tree.CutTree`:
convex shortest path *distances* and *counts*.  Because all vertices lay
their arrays out in the same global block order, the arrays of two
vertices agree position-by-position on their common prefix — queries
are plain array scans over the window each index states.

Counts are Python integers (exact, arbitrary precision).  Distances are
whatever weight type the graph uses (int for road networks).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.types import Vertex, Weight


class LabelStore:
    """Aligned distance/count label arrays for every vertex."""

    __slots__ = ("dist", "count")

    def __init__(self, vertices: Iterable[Vertex]) -> None:
        vertex_list = list(vertices)
        self.dist: Dict[Vertex, List[Weight]] = {v: [] for v in vertex_list}
        self.count: Dict[Vertex, List[int]] = {v: [] for v in vertex_list}

    def append(self, v: Vertex, distance: Weight, count: int) -> None:
        """Append one label entry to vertex ``v``'s arrays."""
        self.dist[v].append(distance)
        self.count[v].append(count)

    def entry(self, v: Vertex, position: int) -> Tuple[Weight, int]:
        """The ``(distance, count)`` label of ``v`` at ``position``."""
        return self.dist[v][position], self.count[v][position]

    def label_length(self, v: Vertex) -> int:
        """Number of label entries stored for ``v``."""
        return len(self.dist[v])

    @property
    def num_vertices(self) -> int:
        """Number of vertices with (possibly empty) label arrays."""
        return len(self.dist)

    @property
    def total_entries(self) -> int:
        """Total label entries across all vertices."""
        return sum(len(entries) for entries in self.dist.values())

    def size_bytes(self, bytes_per_element: int = 4) -> int:
        """Index size under the paper's accounting model.

        The paper encodes each label element (one distance or one count)
        as a 32-bit integer; an entry therefore costs
        ``2 * bytes_per_element``.
        """
        return 2 * bytes_per_element * self.total_entries

    def max_label_length(self) -> int:
        """The longest label array (equals the tree height ``h``)."""
        return max((len(entries) for entries in self.dist.values()), default=0)

    def seal(self, order: Iterable[Vertex] = None):
        """Pack this store into a query-time :class:`LabelArena`.

        ``order`` fixes the dense-id assignment (ascending vertex id by
        default).  The store itself is left untouched — it remains the
        mutable reference layout for construction and dynamic repair.
        """
        from repro.labels.arena import LabelArena

        return LabelArena.from_store(self, order=order)
