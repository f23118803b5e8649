"""UpdateCoordinator: atomic application of streamed weight deltas.

The coordinator owns the *current-weights* graph (a private copy of the
graph the serving index was built from) and the
:class:`~repro.live.overlay.LiveIndex` the serve tier queries.  Each
delta batch is applied under one lock:

1. validate every update (nothing is written on a bad batch),
2. write the new weights into the graph (no-op writes skipped),
3. repair the label entries the changed edges reach with
   :func:`~repro.core.dynamic.repair_labels` — the incremental repair
   :class:`~repro.core.dynamic.DynamicCTL` uses — reading the current
   overlay over the base arena, and turn the rewritten entries into an
   overlay diff against the immutable base,
4. publish a new immutable :class:`OverlayState` (seqno + 1) and the
   changed vertices' label rows (:meth:`LiveIndex.apply`).

Adopting a rebuilt base and re-deriving the overlay after a WAL
rotation do not know each edge's old weight; they recompute the
affected blocks with :func:`~repro.core.dynamic.sweep_labels` instead.

Because ``apply_batch`` returns only after step 4, an HTTP caller that
got a 200 is guaranteed every subsequent query reflects the batch —
this is the parity contract the acceptance tests assert against a
counting Dijkstra on the current weights.

When the overlay grows past ``overlay_threshold`` patched entries, the
serve tier calls :meth:`rebuild` (off the event loop) to build a fresh
base index from the updated graph, then :meth:`adopt_base` to swap it
in: epoch + 1, and the overlay shrinks to just the batches that landed
after the rebuild snapshot (usually empty).

Each :class:`UpdateReport` carries the batch's overlay diff
(``changed``), the one a fleet router ships to its workers so that
they install the repaired entries instead of repairing themselves.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.ctl import CTLIndex
from repro.core.dynamic import (
    WeightUpdate,
    affected_nodes,
    apply_weights,
    repair_labels,
    sweep_labels,
    validate_updates,
)
from repro.exceptions import LiveUpdateError
from repro.graph.graph import Graph
from repro.live.overlay import LiveIndex, OverlayDiff, OverlayState, PatchEntry
from repro.obs import NULL_RECORDER
from repro.types import Vertex

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
    seconds: float = 0.0
    repaired_entries: int = 0
    #: The batch's overlay diff: ``state.with_batch(changed)`` is the
    #: overlay the batch published.
    changed: OverlayDiff = field(default_factory=dict)

    @property
    def changed_vertices(self) -> FrozenSet[Vertex]:
        """Vertices whose answers the batch can have moved."""
        return frozenset(self.changed)


class UpdateCoordinator:
    """Applies delta batches atomically onto a serving CTL index."""

    def __init__(
        self,
        graph: Graph,
        index: CTLIndex,
        *,
        overlay_threshold: int = 0,
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
        self.recorder = recorder
        self._build_params = dict(build_params or {})
        self.live_index = LiveIndex(index)
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
        :class:`EdgeError` on unknown edges or weights that are not
        positive and finite — before any weight is written.  The same
        validator serves :class:`~repro.core.dynamic.DynamicCTL`.
        """
        return validate_updates(self.graph, updates)

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
            transitions = apply_weights(self.graph, normalized)
            for a, b, _old, weight in transitions:
                key = (a, b) if a <= b else (b, a)
                self._dirty_edges[key] = (a, b, weight)
            changed: OverlayDiff = {}
            repaired_nodes = repaired_entries = 0
            if transitions:
                repaired_nodes = len(affected_nodes(base.tree, transitions))
                side, entry = self.live_index.side, base.arena.entry
                repaired = repair_labels(
                    self.graph, base.tree, transitions,
                    lambda vertex, position: entry(vertex, position, side),
                )
                repaired_entries = len(repaired)
                for (vertex, position), value in repaired.items():
                    # A rewritten entry that matches the base again was
                    # patched before: unpatch it.
                    changed.setdefault(vertex, {})[position] = (
                        None if value == entry(vertex, position) else value
                    )
            new_state = self.live_index.apply(changed)
            if transitions:
                self._batch_log.append((
                    new_state.seqno,
                    tuple((a, b) for a, b, _old, _new in transitions),
                ))
                if len(self._batch_log) > MAX_BATCH_LOG:
                    evicted = self._batch_log.pop(0)
                    self._log_floor = evicted[0]
            self.applied_batches += 1
            self.applied_edges += len(transitions)
            self.last_apply_seconds = time.perf_counter() - started
        rec = self.recorder
        rec.incr("live.updates.batches")
        rec.incr("live.updates.edges", len(transitions))
        rec.incr("live.repair.entries", repaired_entries)
        rec.observe("live.update.apply_seconds", self.last_apply_seconds)
        rec.gauge("live.overlay.entries", new_state.entries)
        return UpdateReport(
            epoch=new_state.epoch,
            seqno=new_state.seqno,
            submitted_edges=len(normalized),
            updated_edges=len(transitions),
            repaired_nodes=repaired_nodes,
            overlay_entries=new_state.entries,
            seconds=self.last_apply_seconds,
            repaired_entries=repaired_entries,
            changed=changed,
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
                nodes = new_index.tree.nodes
            else:
                for seqno, edges in self._batch_log:
                    if seqno > base_seqno:
                        replayed.extend(edges)
                affected = affected_nodes(new_index.tree, replayed)
                nodes = [affected[i] for i in sorted(affected)]
            patches = self.swept_overlay(new_index, nodes)
            new_state = OverlayState(state.epoch + 1, state.seqno, patches)
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
            "applied_batches": self.applied_batches,
            "applied_edges": self.applied_edges,
            "rebuilds": self.rebuilds,
            "last_apply_seconds": round(self.last_apply_seconds, 6),
            "rebuild_due": self.should_rebuild(),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def swept_overlay(
        self, base: CTLIndex, nodes
    ) -> Dict[Vertex, Dict[int, PatchEntry]]:
        """The patches of the current graph against ``base``.

        Recomputes ``nodes``' label blocks in full with
        :func:`~repro.core.dynamic.sweep_labels` and keeps the entries
        that differ from the base arena.  For the paths that do not
        know each changed edge's old weight: adopting a rebuilt base
        and re-deriving the overlay after a WAL rotation.
        """
        entry = base.arena.entry
        patches: Dict[Vertex, Dict[int, PatchEntry]] = {}
        for vertex, position, dist, count in sweep_labels(
            self.graph, base.tree, nodes
        ):
            if entry(vertex, position) != (dist, count):
                patches.setdefault(vertex, {})[position] = (dist, count)
        return patches

