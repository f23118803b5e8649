"""Dynamic edge-weight updates (paper §IV-D.2).

Road topology rarely changes, but edge weights (travel times) do.  This
module keeps indexes consistent under weight updates.

:func:`repair_labels` is the one CTL label repair, shared by
:class:`DynamicCTL` and the live tier's
:class:`~repro.live.coordinator.UpdateCoordinator`.  The CTL cut tree is
built from **local topological cuts** of induced subgraphs, so no weight
change can ever invalidate the tree — only labels need repair.  The
label column of cut vertex ``c`` holds distances and counts inside ``c``'s
subgraph: its node's subtree minus the node's cut vertices ranked before
``c``.  An update of edge ``(a, b)`` can only touch columns whose
subgraph contains both endpoints, all on the root path of the common
ancestors of ``X(a)`` and ``X(b)``.  Inside such a column the repair
follows the paper's increase/decrease split and rewrites only what the
edge reaches:

* a **decrease** touches the vertices the cheaper edge reaches at equal
  or lower distance (equal matters: a tie changes the count, not the
  distance);
* an **increase** matters only if the edge was tight, and then touches
  the edge's descendants in the column's shortest-path DAG.

Counts are re-derived over the touched set in distance order; every
other entry provably keeps its value.  :func:`sweep_labels` recomputes
whole blocks in full instead (the construction's SSSPC-and-remove
sweep).  It is the oracle the repair is tested against, and the live
tier's one derivation of an overlay against a new base (adopting a
rebuilt base, recovering at a WAL rotation point), which knows each
changed edge's current weight but not its old one.

:class:`DynamicCTLS` handles the CTLS-Index, whose GSP cuts are
*shortest-path* cuts: a weight change can re-route shortest paths around
a cut and invalidate the tree itself (the situation §IV-D.2 detects via
new-shortcut checks).  Exact incremental maintenance is only sketched in
the paper; this implementation repairs by rebuilding, which is always
correct, and records how often rebuilds happen so applications can batch
updates.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import repro.obs as obs
from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.exceptions import EdgeError, LiveUpdateError
from repro.graph.graph import Graph
from repro.search.dijkstra import ssspc
from repro.tree.cut_tree import CutTree, TreeNode
from repro.types import INF, QueryResult, Vertex, Weight

#: One edge-weight update: ``(a, b, new_weight)``.
WeightUpdate = Tuple[Vertex, Vertex, Weight]

#: One effective weight change: ``(a, b, old_weight, new_weight)``.
Transition = Tuple[Vertex, Vertex, Weight, Weight]

#: A label entry ``(distance, count)``; ``(INF, 0)`` when unreachable.
Entry = Tuple[Weight, int]


def validate_updates(graph: Graph, updates) -> List[WeightUpdate]:
    """Normalize and validate a raw batch of weight updates.

    Accepts an iterable of ``(a, b, weight)`` triples (lists or tuples,
    e.g. straight from JSON).  Raises :class:`LiveUpdateError` on
    malformed items and :class:`EdgeError` on unknown edges or weights
    that are not positive and finite — before any weight is written.
    """
    normalized: List[WeightUpdate] = []
    for item in updates:
        try:
            a, b, weight = item
        except (TypeError, ValueError):
            raise LiveUpdateError(
                f"delta update must be [a, b, weight], got {item!r}"
            ) from None
        if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, int) and isinstance(b, int)
        ):
            raise LiveUpdateError(
                f"delta endpoints must be integers, got {item!r}"
            )
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise LiveUpdateError(
                f"delta weight must be a number, got {item!r}"
            )
        if not graph.has_edge(a, b):
            raise EdgeError(f"edge ({a}, {b}) is not in the graph")
        if weight <= 0 or (
            isinstance(weight, float) and not math.isfinite(weight)
        ):
            raise EdgeError(
                f"edge ({a}, {b}): new weight must be positive and "
                f"finite, got {weight}"
            )
        normalized.append((a, b, weight))
    return normalized


def apply_weights(
    graph: Graph, updates: Iterable[WeightUpdate]
) -> List[Transition]:
    """Write validated ``updates`` into ``graph``, in order.

    Returns the effective changes as ``(a, b, old, new)``; writes of
    the current weight are skipped, and a repeated edge yields one
    transition per effective write.
    """
    transitions: List[Transition] = []
    for a, b, weight in updates:
        old = graph.weight(a, b)
        if old == weight:
            continue
        graph.add_edge(a, b, weight, graph.count(a, b))
        transitions.append((a, b, old, weight))
    return transitions


def affected_nodes(
    tree: CutTree, edges: Iterable[Sequence]
) -> Dict[int, TreeNode]:
    """Deduped common-ancestor nodes of ``X(a)`` and ``X(b)`` per edge.

    ``edges`` items start with the endpoints ``a, b``.  The result maps
    node index to node; every edge contributes its whole root path.
    """
    affected: Dict[int, TreeNode] = {}
    for a, b, *_ in edges:
        lca = tree.lca_node(a, b)
        if lca.index in affected:
            continue  # ancestors of a known node are already in
        for node in tree.ancestors(lca.index):
            affected[node.index] = node
    return affected


def sweep_labels(
    graph: Graph, tree: CutTree, nodes: Iterable[TreeNode]
) -> Iterator[Tuple[Vertex, int, Weight, int]]:
    """Recompute the label blocks of ``nodes`` in full.

    Yields ``(vertex, position, distance, count)`` for every entry of
    every block: the construction's SSSPC-and-remove sweep over each
    node's subtree-induced subgraph.
    """
    for node in nodes:
        members = set()
        stack = [node.index]
        while stack:
            at = tree.node(stack.pop())
            members.update(at.vertices)
            stack.extend(at.children)
        subgraph = graph.induced_subgraph(members)
        for position, c in enumerate(node.vertices, node.block_start):
            dist, count = ssspc(subgraph, c)
            for u in subgraph.vertices():
                yield u, position, dist.get(u, INF), count.get(u, 0)
            subgraph.remove_vertex(c)


def repair_labels(
    graph: Graph,
    tree: CutTree,
    transitions: Sequence[Transition],
    read: Callable[[Vertex, int], Entry],
) -> Dict[Tuple[Vertex, int], Entry]:
    """Repair the CTL labels a batch of weight changes reaches.

    ``graph`` holds the post-batch weights; ``transitions`` are the
    batch's effective changes ``(a, b, old, new)``, replayed in order so
    a repeated edge repairs correctly.  ``read(v, position)`` returns the
    pre-batch label entry.  Returns ``{(v, position): (dist, count)}``
    for exactly the entries whose value changed.
    """
    if not transitions:
        return {}
    first, end = tree.preorder()
    node_of = tree.node_of_vertex
    lca_of = tree.lca_codes.lca
    adj = graph.adj
    # Weights of the state being repaired.  ``graph`` is already at the
    # post-batch weights, so an edge a later transition rewrites reads
    # its weight at that point from ``override[u][z]``.
    override: Dict[Vertex, Dict[Vertex, Weight]] = {}
    for a, b, old, _new in reversed(transitions):
        override.setdefault(a, {})[b] = old
        override.setdefault(b, {})[a] = old

    def edges_of(u):
        patched = override.get(u)
        if not patched:
            return adj(u).items()
        return [
            (z, (patched.get(z, w), cnt)) for z, (w, cnt) in adj(u).items()
        ]

    columns: Dict[int, Dict[Vertex, Entry]] = {}
    for a, b, old, new in transitions:
        if new == graph.weight(a, b):
            del override[a][b], override[b][a]
        else:
            override[a][b] = override[b][a] = new
        for node in tree.ancestors(lca_of(node_of[a], node_of[b])):
            lo, hi = first[node.index], end[node.index]
            excluded = set()
            for position, c in enumerate(node.vertices, node.block_start):
                column = columns.setdefault(position, {})

                def inside(v, lo=lo, hi=hi, excluded=excluded):
                    return lo <= first[node_of[v]] < hi and v not in excluded

                def get(v, column=column, position=position):
                    entry = column.get(v)
                    return entry if entry is not None else read(v, position)

                column.update(
                    _repair_column(edges_of, inside, get, a, b, old, new)
                )
                if c == a or c == b:
                    break  # later columns of this node exclude the edge
                excluded.add(c)

    repaired: Dict[Tuple[Vertex, int], Entry] = {}
    for position, column in columns.items():
        for v, entry in column.items():
            if entry != read(v, position):
                repaired[v, position] = entry
    return repaired


def _repair_column(
    edges_of, inside, get, a, b, old, new
) -> Dict[Vertex, Entry]:
    """New entries of one column after edge ``(a, b)`` went ``old -> new``.

    ``inside(v)`` tests membership in the column's subgraph and
    ``get(v)`` reads the current entry; returns the touched entries.
    """
    da = get(a)[0]
    db = get(b)[0]
    if da == INF:
        return {}  # the edge's component is unreachable from the hub
    if new < old:
        # Decrease: y improves (or ties) through the cheaper edge.
        if da + new <= db:
            x, y, dx = a, b, da
        elif db + new <= da:
            x, y, dx = b, a, db
        else:
            return {}
        dist = {y: dx + new}
        heap = [(dx + new, y)]
        order = []
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            order.append(u)
            for z, (w, _cnt) in edges_of(u):
                nd = d + w
                cur = dist.get(z)
                if cur is None:
                    if not (inside(z) and nd <= get(z)[0]):
                        continue
                elif nd >= cur:
                    continue
                dist[z] = nd
                heappush(heap, (nd, z))
    else:
        # Increase: only a tight edge carried shortest paths.
        if da + old == db:
            y = b
        elif db + old == da:
            y = a
        else:
            return {}
        region = {y}  # y's descendants in the old shortest-path DAG
        stack = [y]
        while stack:
            u = stack.pop()
            du = get(u)[0]
            for z, (w, _cnt) in edges_of(u):
                if z not in region and inside(z) and du + w == get(z)[0]:
                    region.add(z)
                    stack.append(z)
        dist = {}
        for s in region:
            best = INF
            for u, (w, _cnt) in edges_of(s):
                if u not in region and inside(u):
                    nd = get(u)[0] + w
                    if nd < best:
                        best = nd
            if best < INF:
                dist[s] = best
        heap = [(d, s) for s, d in dist.items()]
        heapify(heap)
        order = []
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            order.append(u)
            for z, (w, _cnt) in edges_of(u):
                if z in region:
                    nd = d + w
                    if nd < dist.get(z, INF):
                        dist[z] = nd
                        heappush(heap, (nd, z))
    # Counts over the touched set in distance order: a tight predecessor
    # is either touched (and already final) or keeps its entry.
    touched: Dict[Vertex, Entry] = {}
    for v in order:
        dv = dist[v]
        total = 0
        for u, (w, cnt) in edges_of(v):
            du = dist.get(u)
            if du is not None:
                if du + w == dv:
                    total += touched[u][1] * cnt
            elif inside(u):
                du, su = get(u)
                if du + w == dv:
                    total += su * cnt
        touched[v] = (dv, total)
    return touched


class DynamicCTL:
    """A CTL-Index kept exactly consistent under edge weight updates."""

    def __init__(self, graph: Graph, *, beta: float = 0.2, leaf_size: int = 4,
                 seed: int = 0) -> None:
        #: The live graph; updated in place by :meth:`update_weight`.
        self.graph = graph.copy()
        self.index = CTLIndex.build(
            self.graph, beta=beta, leaf_size=leaf_size, seed=seed
        )
        #: Tree nodes on the root paths of the last update's edges.
        self.last_repaired_nodes = 0
        #: Label entries the last update rewrote.
        self.last_repaired_entries = 0

    def query(self, source: Vertex, target: Vertex) -> QueryResult:
        """Answer ``Q(s, t)`` on the current graph."""
        return self.index.query(source, target)

    def update_weight(self, a: Vertex, b: Vertex, new_weight: Weight) -> None:
        """Set the weight of the existing edge ``(a, b)``; repair labels.

        Handles both increases and decreases.  Raises ``EdgeError`` if
        the edge does not exist or the weight is not positive and finite.
        """
        self.update_weights([(a, b, new_weight)])

    def update_weights(self, updates: Iterable[WeightUpdate]) -> int:
        """Apply a batch of weight updates with one arena reseal.

        Updates are validated up front by :func:`validate_updates`
        (nothing is written on a bad batch), no-op writes are skipped,
        and :func:`repair_labels` rewrites only the entries the batch
        reaches.  The packed arena is re-sealed once at the end, and
        only if an entry changed.

        Returns the number of tree nodes on the updated edges' root
        paths (also stored in :attr:`last_repaired_nodes`).
        """
        batch = validate_updates(self.graph, updates)
        transitions = apply_weights(self.graph, batch)
        labels = self.index.labels
        repaired = repair_labels(
            self.graph, self.index.tree, transitions, labels.entry
        )
        for (v, position), (dist, count) in repaired.items():
            labels.dist[v][position] = dist
            labels.count[v][position] = count
        if repaired:
            # The repairs above edit the mutable store; the packed arena
            # the query engine scans must be re-sealed to match.
            self.index.refresh_arena()
        self.last_repaired_nodes = len(
            affected_nodes(self.index.tree, transitions)
        )
        self.last_repaired_entries = len(repaired)
        return self.last_repaired_nodes

    def _affected_nodes(self, a: Vertex, b: Vertex) -> List[TreeNode]:
        """Common ancestors of ``X(a)`` and ``X(b)``, root first."""
        return list(affected_nodes(self.index.tree, [(a, b)]).values())


class DynamicCTLS:
    """A CTLS-Index kept consistent by (counted) rebuilds on update."""

    def __init__(self, graph: Graph, *, beta: float = 0.2, leaf_size: int = 4,
                 seed: int = 0, strategy: str = "cutsearch") -> None:
        self.graph = graph.copy()
        self._params = {
            "beta": beta, "leaf_size": leaf_size, "seed": seed,
            "strategy": strategy,
        }
        self.index = CTLSIndex.build(self.graph, **self._params)
        #: Number of rebuilds triggered since creation.
        self.rebuilds = 0
        #: Effective weight updates applied since the last rebuild.
        #: Callers can watch this to schedule :meth:`refresh` instead of
        #: paying the implicit rebuild on a query's critical path.
        self.pending_updates = 0

    @property
    def _dirty(self) -> bool:
        return self.pending_updates > 0

    def query(self, source: Vertex, target: Vertex) -> QueryResult:
        """Answer ``Q(s, t)``, rebuilding first if updates are pending."""
        if self.pending_updates:
            self.refresh()
        return self.index.query(source, target)

    def update_weight(self, a: Vertex, b: Vertex, new_weight: Weight) -> None:
        """Set the weight of edge ``(a, b)``; marks the index dirty.

        Rebuilding is deferred until the next query (or an explicit
        :meth:`refresh`), so bursts of updates cost one rebuild.
        """
        validate_updates(self.graph, [(a, b, new_weight)])
        if apply_weights(self.graph, [(a, b, new_weight)]):
            self.pending_updates += 1

    def refresh(self, force: bool = False) -> bool:
        """Rebuild the index now if updates are pending (or ``force``).

        Returns ``True`` when a rebuild actually happened, so schedulers
        can tell a real rebuild from a cheap no-op call.  Each rebuild
        increments the ``dynamic.rebuilds`` metric on the active
        recorder, letting the serve tier surface rebuild pressure.
        """
        if not self.pending_updates and not force:
            return False
        self.index = CTLSIndex.build(self.graph, **self._params)
        self.rebuilds += 1
        self.pending_updates = 0
        obs.recorder().incr("dynamic.rebuilds")
        return True
