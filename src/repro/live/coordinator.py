"""UpdateCoordinator: atomic application of streamed weight deltas.

The coordinator owns the *current-weights* graph (a private copy of the
graph the serving index was built from) and the
:class:`~repro.live.overlay.LiveIndex` the serve tier queries.  Each
delta batch is applied under one lock:

1. validate every update (nothing is written on a bad batch),
2. write the new weights into the graph (no-op writes skipped),
3. repair the affected label blocks — the common ancestors of
   ``X(a)``/``X(b)`` per updated edge, deduplicated across the batch —
   with the same SSSPC-and-remove sweep :class:`DynamicCTL` uses,
   diffing each recomputed entry against the immutable base arena,
4. publish a new immutable :class:`OverlayState` (seqno + 1).

Because ``apply_batch`` returns only after step 4, an HTTP caller that
got a 200 is guaranteed every subsequent query reflects the batch —
this is the parity contract the acceptance tests assert against a
counting Dijkstra on the current weights.

When the overlay grows past ``overlay_threshold`` patched entries, the
serve tier calls :meth:`rebuild` (off the event loop) to build a fresh
base index from the updated graph, then :meth:`adopt_base` to swap it
in: epoch + 1, and the overlay shrinks to just the batches that landed
after the rebuild snapshot (usually empty).

A batch whose repair overruns ``freshness_s`` flips the
:class:`StaleRouter`: until the repair lands, queries whose label scan
reaches into an affected block are answered by counting Dijkstra on the
current graph instead of the (stale) overlay.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.ctl import CTLIndex
from repro.exceptions import EdgeError, IndexQueryError, LiveUpdateError
from repro.graph.graph import Graph
from repro.live.overlay import LiveIndex, OverlayState, PatchEntry
from repro.obs import NULL_RECORDER
from repro.search.dijkstra import ssspc
from repro.search.pairwise import spc_query
from repro.types import INF, QueryResult, Vertex, Weight

#: One edge-weight update ``(a, b, new_weight)`` (normalized form).
WeightUpdate = Tuple[Vertex, Vertex, Weight]

#: Retain at most this many applied batches for rebuild replay; older
#: entries are dropped and a rebuild snapshotting before the drop line
#: falls back to a full-label diff (always correct, just slower).
MAX_BATCH_LOG = 4096


@dataclass(frozen=True)
class UpdateReport:
    """What one applied batch did to the overlay."""

    epoch: int
    seqno: int
    submitted_edges: int
    updated_edges: int
    repaired_nodes: int
    overlay_entries: int
    changed_vertices: FrozenSet[Vertex] = field(default_factory=frozenset)
    seconds: float = 0.0


class StaleRouter:
    """Freshness-deadline fallback for queries racing a slow repair."""

    def __init__(self, coordinator: "UpdateCoordinator") -> None:
        self._coordinator = coordinator

    def overdue(self) -> bool:
        """Whether an in-flight repair has exceeded the deadline."""
        pending = self._coordinator._pending
        if pending is None:
            return False
        started, _ = pending
        return time.monotonic() - started >= self._coordinator.freshness_s

    def route(self, source: Vertex, target: Vertex) -> Optional[QueryResult]:
        """Counting-Dijkstra answer for a possibly-stale pair."""
        coordinator = self._coordinator
        pending = coordinator._pending
        if pending is None:
            return None
        _, min_block = pending
        base, _ = coordinator.live_index.view
        try:
            prefix = base.window(source, target)[1]
        except IndexQueryError:
            return None  # unknown vertex: let the base scan raise
        if prefix <= min_block:
            return None  # scan cannot reach an affected block
        coordinator.recorder.incr("live.fallback.queries")
        return spc_query(coordinator.graph, source, target)


class UpdateCoordinator:
    """Applies delta batches atomically onto a serving CTL index."""

    def __init__(
        self,
        graph: Graph,
        index: CTLIndex,
        *,
        overlay_threshold: int = 0,
        freshness_s: float = 0.0,
        recorder=NULL_RECORDER,
        build_params: Optional[dict] = None,
    ) -> None:
        if not isinstance(index, CTLIndex) or type(index).name != "CTL":
            raise LiveUpdateError(
                "live updates require a CTL index (weight changes never "
                f"invalidate its cut tree); got {type(index).name!r}"
            )
        indexed = set(index.arena.vertices)
        present = set(graph.vertices())
        if not indexed <= present:
            missing = sorted(indexed - present)[:3]
            raise LiveUpdateError(
                "graph does not match the serving index: indexed "
                f"vertices missing from the graph (e.g. {missing})"
            )
        #: The current-weights graph (private copy, mutated per batch).
        self.graph = graph.copy()
        #: Patched entries that trigger a rebuild (0 = never).
        self.overlay_threshold = overlay_threshold
        #: Seconds a repair may lag before queries fall back (0 = never).
        self.freshness_s = freshness_s
        self.recorder = recorder
        self._build_params = dict(build_params or {})
        self.live_index = LiveIndex(index)
        if freshness_s > 0:
            self.live_index.stale_router = StaleRouter(self)
        self._lock = threading.Lock()
        #: Durable :class:`~repro.live.wal.WriteAheadLog`, or ``None``.
        #: When attached, every batch is fsync'd to it *before* the
        #: overlay publishes — see :meth:`attach_wal`.
        self.wal = None
        #: Current weight of every edge ever effectively changed, keyed
        #: by the normalized ``(min, max)`` endpoint pair.  This is what
        #: makes a rotated WAL epoch file self-contained: recovery
        #: replays these weights onto the pristine graph.
        self._dirty_edges: Dict[Tuple[Vertex, Vertex], WeightUpdate] = {}
        #: ``(monotonic start, min affected block_start)`` of the batch
        #: currently being repaired, or ``None``.
        self._pending: Optional[Tuple[float, int]] = None
        #: Applied batches ``(seqno, ((a, b), ...))`` kept for rebuild
        #: replay; trimmed to :data:`MAX_BATCH_LOG`.
        self._batch_log: List[Tuple[int, Tuple[Tuple[Vertex, Vertex], ...]]] = []
        #: Highest seqno evicted from the log (0 = nothing evicted).
        self._log_floor = 0
        self.applied_batches = 0
        self.applied_edges = 0
        self.rebuilds = 0
        self.last_apply_seconds = 0.0

    def attach_wal(self, wal) -> None:
        """Make ``wal`` the durability point of every future batch.

        From here on :meth:`apply_batch` appends (and fsyncs) the batch
        before the overlay swap, so the batch is either durable *and*
        visible or neither; :meth:`adopt_base` rotates the log at the
        new epoch.  Use :func:`repro.live.wal.recover_coordinator` to
        build a coordinator from an existing log.
        """
        self.wal = wal

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate_batch(self, updates) -> List[WeightUpdate]:
        """Normalize and validate a raw delta batch.

        Accepts an iterable of ``(a, b, weight)`` triples (lists or
        tuples, e.g. straight from JSON).  Raises
        :class:`LiveUpdateError` on malformed items and
        :class:`EdgeError` on unknown edges or non-positive weights —
        before any weight is written.
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
            if not self.graph.has_edge(a, b):
                raise EdgeError(f"edge ({a}, {b}) is not in the graph")
            if weight <= 0:
                raise EdgeError(
                    f"edge ({a}, {b}): new weight must be positive, "
                    f"got {weight}"
                )
            normalized.append((a, b, weight))
        return normalized

    # ------------------------------------------------------------------
    # batch application
    # ------------------------------------------------------------------
    def apply_batch(self, updates) -> UpdateReport:
        """Validate and apply one delta batch; thread-safe.

        Returns after the overlay reflecting the batch is published, so
        callers can treat the return as the linearisation point.
        """
        normalized = self.validate_batch(updates)
        started = time.perf_counter()
        with self._lock:
            base, state = self.live_index.view
            if self.wal is not None:
                # Durability point: the batch hits disk (fsync'd) before
                # any weight is written or the overlay publishes, so an
                # acknowledged batch survives a crash and a failed
                # append leaves the coordinator untouched.
                self.wal.append_batch(state.epoch, state.seqno + 1, normalized)
            effective: List[Tuple[Vertex, Vertex]] = []
            for a, b, weight in normalized:
                if self.graph.weight(a, b) == weight:
                    continue
                self.graph.add_edge(a, b, weight, self.graph.count(a, b))
                effective.append((a, b))
                key = (a, b) if a <= b else (b, a)
                self._dirty_edges[key] = (a, b, weight)
            changed: Dict[Vertex, Dict[int, Optional[PatchEntry]]] = {}
            affected: Dict[int, object] = {}
            if effective:
                affected = self._affected_union(base, effective)
                nodes = [affected[i] for i in sorted(affected)]
                self._pending = (
                    time.monotonic(),
                    min(node.block_start for node in nodes),
                )
                try:
                    changed = self._diff_repair(base, nodes, state.patches)
                finally:
                    self._pending = None
            new_state = state.with_batch(changed)
            if effective:
                self._batch_log.append((new_state.seqno, tuple(effective)))
                if len(self._batch_log) > MAX_BATCH_LOG:
                    evicted = self._batch_log.pop(0)
                    self._log_floor = evicted[0]
            self.live_index.swap(base, new_state)
            self.applied_batches += 1
            self.applied_edges += len(effective)
            self.last_apply_seconds = time.perf_counter() - started
        rec = self.recorder
        rec.incr("live.updates.batches")
        rec.incr("live.updates.edges", len(effective))
        rec.observe("live.update.apply_seconds", self.last_apply_seconds)
        rec.gauge("live.overlay.entries", new_state.entries)
        return UpdateReport(
            epoch=new_state.epoch,
            seqno=new_state.seqno,
            submitted_edges=len(normalized),
            updated_edges=len(effective),
            repaired_nodes=len(affected),
            overlay_entries=new_state.entries,
            changed_vertices=frozenset(changed),
            seconds=self.last_apply_seconds,
        )

    # ------------------------------------------------------------------
    # rebuild-and-swap
    # ------------------------------------------------------------------
    def should_rebuild(self) -> bool:
        """Whether the overlay passed the configured rebuild threshold."""
        if self.overlay_threshold <= 0:
            return False
        return self.live_index.state.entries >= self.overlay_threshold

    def rebuild(self) -> Tuple[CTLIndex, int]:
        """Build a fresh base index from the current graph.

        Long-running (a full CTL construction) and deliberately *not*
        holding the coordinator lock: update batches keep applying while
        the build runs.  Returns ``(new_index, base_seqno)`` where
        ``base_seqno`` is the last batch the snapshot includes — pass
        both to :meth:`adopt_base`.
        """
        with self._lock:
            snapshot = self.graph.copy()
            base_seqno = self.live_index.state.seqno
        new_index = CTLIndex.build(snapshot, **self._build_params)
        return new_index, base_seqno

    def adopt_base(
        self,
        new_index: CTLIndex,
        base_seqno: int,
        base_path: Optional[str] = None,
    ) -> dict:
        """Swap in a rebuilt base; replay post-snapshot batches onto it.

        The swap itself is one atomic view publication; the only work
        under the lock is re-deriving patches for batches that were
        applied after the rebuild snapshot (none, in the common case).
        When a write-ahead log is attached, adoption also rotates it at
        the new epoch — ``base_path`` (where the rebuilt base was
        saved, if anywhere) is pinned in the new epoch file so a
        recovering worker reloads the same base.
        """
        if not isinstance(new_index, CTLIndex):
            raise LiveUpdateError(
                f"cannot adopt a {type(new_index).__name__} as live base"
            )
        started = time.perf_counter()
        with self._lock:
            state = self.live_index.state
            replayed: List[Tuple[Vertex, Vertex]] = []
            full_diff = base_seqno < self._log_floor
            if full_diff:
                # The batch log no longer reaches back to the snapshot:
                # diff every label block (correct, rarely needed).
                nodes = [
                    new_index.tree.node(i)
                    for i in range(new_index.tree.num_nodes)
                ]
            else:
                for seqno, edges in self._batch_log:
                    if seqno > base_seqno:
                        replayed.extend(edges)
                affected = self._affected_union(new_index, replayed)
                nodes = [affected[i] for i in sorted(affected)]
            changed = self._diff_repair(new_index, nodes, {})
            patches: Dict[Vertex, Dict[int, PatchEntry]] = {}
            min_dirty: Dict[Vertex, int] = {}
            for vertex, positions in changed.items():
                kept = {
                    position: value
                    for position, value in positions.items()
                    if value is not None
                }
                if kept:
                    patches[vertex] = kept
                    min_dirty[vertex] = min(kept)
            new_state = OverlayState(
                state.epoch + 1, state.seqno, patches, min_dirty
            )
            self.live_index.swap(new_index, new_state)
            self._batch_log = [
                entry for entry in self._batch_log if entry[0] > base_seqno
            ]
            self._log_floor = 0
            self.rebuilds += 1
            if self.wal is not None:
                self.wal.rotate(
                    epoch=new_state.epoch,
                    seqno=new_state.seqno,
                    base_seqno=base_seqno,
                    base_path=base_path,
                    weights=list(self._dirty_edges.values()),
                    pending=list(self._batch_log),
                    full_diff=full_diff,
                )
        seconds = time.perf_counter() - started
        self.recorder.incr("live.rebuilds")
        self.recorder.observe("live.rebuild.adopt_seconds", seconds)
        self.recorder.gauge("live.overlay.entries", new_state.entries)
        return {
            "epoch": new_state.epoch,
            "seqno": new_state.seqno,
            "base_seqno": base_seqno,
            "replayed_edges": len(replayed),
            "overlay_entries": new_state.entries,
            "full_diff": full_diff,
            "adopt_seconds": seconds,
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Overlay/version snapshot for ``/stats`` and explain payloads."""
        state = self.live_index.state
        wal = None if self.wal is None else self.wal.stats()
        return {
            "epoch": state.epoch,
            "seqno": state.seqno,
            "wal": wal,
            "overlay_entries": state.entries,
            "poisoned_vertices": state.poisoned_vertices,
            "overlay_threshold": self.overlay_threshold,
            "freshness_s": self.freshness_s,
            "applied_batches": self.applied_batches,
            "applied_edges": self.applied_edges,
            "rebuilds": self.rebuilds,
            "last_apply_seconds": round(self.last_apply_seconds, 6),
            "rebuild_due": self.should_rebuild(),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _affected_union(
        index: CTLIndex, edges: Sequence[Tuple[Vertex, Vertex]]
    ) -> Dict[int, object]:
        """Deduped union of common-ancestor nodes over updated edges."""
        tree = index.tree
        affected: Dict[int, object] = {}
        for a, b in edges:
            lca = tree.lca_node(a, b)
            if lca.index in affected:
                continue  # ancestors of a known node are already in
            for node in tree.ancestors(lca.index):
                affected[node.index] = node
        return affected

    def _subtree_vertices(self, index: CTLIndex, root) -> set:
        tree = index.tree
        result: set = set()
        stack = [root.index]
        while stack:
            at = stack.pop()
            node = tree.node(at)
            result.update(node.vertices)
            stack.extend(node.children)
        return result

    def _diff_repair(
        self,
        base: CTLIndex,
        nodes,
        current_patches: Dict[Vertex, Dict[int, PatchEntry]],
    ) -> Dict[Vertex, Dict[int, Optional[PatchEntry]]]:
        """Recompute ``nodes``' label blocks; diff against ``base``.

        Returns per-vertex position diffs: a new ``(dist, count)`` where
        the recomputed value differs from the base arena, ``None`` where
        it matches the base again but is currently patched (unpatch).
        """
        arena = base.arena
        changed: Dict[Vertex, Dict[int, Optional[PatchEntry]]] = {}
        for node in nodes:
            members = self._subtree_vertices(base, node)
            subgraph = self.graph.induced_subgraph(members)
            start = node.block_start
            for offset, c in enumerate(node.vertices):
                dist, count = ssspc(subgraph, c)
                position = start + offset
                for u in members:
                    if not subgraph.has_vertex(u):
                        continue  # higher-ranked cut vertex, already done
                    new_dist = dist.get(u, INF)
                    new_count = count.get(u, 0)
                    old_dist, old_count = arena.entry(u, position)
                    if new_dist == old_dist and new_count == old_count:
                        patched = current_patches.get(u)
                        if patched is not None and position in patched:
                            changed.setdefault(u, {})[position] = None
                    else:
                        changed.setdefault(u, {})[position] = (
                            new_dist, new_count
                        )
                subgraph.remove_vertex(c)
        return changed
