"""Delta overlay: entry-granularity patches over an immutable arena.

A serving index is read-only — often literal ``mmap`` views over a v4
container — so absorbing edge-weight deltas cannot mutate labels in
place.  The live tier keeps the base :class:`~repro.core.ctl.CTLIndex`
untouched and layers an :class:`OverlayState` on top: the label entries
that differ from the base arena (their count is the rebuild threshold's
measure), as :func:`~repro.core.dynamic.repair_labels` (paper §IV-D.2)
rewrote them.

Queries read whole rows: a patched vertex's label row is copied into a
side arena (:class:`~repro.labels.arena.SideRows`), a batch copying only
the rows it changes, and :class:`LiveIndex` answers every pair with the
one arena kernel, reading each endpoint's row from the side arena when
it has one there and from the base otherwise.

The coordinator publishes each new view with one attribute store, so
readers never see a half-applied batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.base import QueryStats
from repro.core.ctl import CTLIndex
from repro.exceptions import LiveUpdateError
from repro.labels.arena import SideRows
from repro.types import QueryResult, Vertex, Weight

#: A patched label value in the decoded domain (``INF`` when the hub
#: became unreachable).
PatchEntry = Tuple[Weight, int]

#: One batch's overlay diff: ``{vertex: {position: value}}``, where a
#: value is the entry's new ``(dist, count)`` or ``None`` for an entry
#: back at its base value (see :meth:`OverlayState.with_batch`).
OverlayDiff = Dict[Vertex, Dict[int, Optional[PatchEntry]]]


class OverlayState:
    """Immutable snapshot of the patch table at one ``(epoch, seqno)``.

    ``epoch`` counts base-index generations (bumped by rebuild-and-swap),
    ``seqno`` counts applied delta batches since the server started.
    ``patches`` maps a vertex to ``{label position: (dist, count)}``.
    """

    __slots__ = ("epoch", "seqno", "patches")

    def __init__(
        self,
        epoch: int,
        seqno: int,
        patches: Dict[Vertex, Dict[int, PatchEntry]],
    ) -> None:
        self.epoch = epoch
        self.seqno = seqno
        self.patches = patches

    @classmethod
    def initial(cls, epoch: int = 1) -> "OverlayState":
        """An empty overlay for a freshly adopted base index."""
        return cls(epoch, 0, {})

    @property
    def entries(self) -> int:
        """Total patched label entries (the rebuild-threshold measure)."""
        return sum(len(p) for p in self.patches.values())

    @property
    def poisoned_vertices(self) -> int:
        """Vertices with at least one patched entry."""
        return len(self.patches)

    def with_batch(self, changed: OverlayDiff) -> "OverlayState":
        """A new state with ``changed`` merged in (``None`` = unpatch).

        ``changed`` carries the diff of one repaired batch: positions
        that now differ from the base map to their new value, positions
        that drifted back to the base value map to ``None``.
        """
        patches = dict(self.patches)
        for vertex, positions in changed.items():
            merged = dict(patches.get(vertex, ()))
            for position, value in positions.items():
                if value is None:
                    merged.pop(position, None)
                else:
                    merged[position] = value
            if merged:
                patches[vertex] = merged
            else:
                patches.pop(vertex, None)
        return OverlayState(self.epoch, self.seqno + 1, patches)


class LiveIndex:
    """A ``(base index, overlay)`` view with the SPCIndex query surface.

    The server and the cache talk to this object
    exactly as they would to a static index; rebuild-and-swap replaces the internal
    view atomically, so in-flight batches finish on the snapshot they
    started with.
    """

    name = "CTL+live"

    def __init__(self, base: CTLIndex, state: Optional[OverlayState] = None):
        self.swap(base, state if state is not None else OverlayState.initial())

    # ------------------------------------------------------------------
    # view management
    # ------------------------------------------------------------------
    @property
    def view(self) -> Tuple[CTLIndex, OverlayState]:
        """The current ``(base, overlay)`` snapshot."""
        return self._view[:2]

    @property
    def base(self) -> CTLIndex:
        return self._view[0]

    @property
    def state(self) -> OverlayState:
        return self._view[1]

    @property
    def side(self) -> Optional[SideRows]:
        """The patched vertices' rows the current view reads, if any."""
        return self._view[2]

    def swap(self, base: CTLIndex, state: OverlayState) -> None:
        """Atomically publish a new snapshot (single attribute store),
        copying every patched row afresh.  Raises
        :class:`~repro.exceptions.LiveUpdateError`, publishing nothing,
        when a patch does not fit ``base``."""
        self._view = (base, state, _side_rows(base, None, state.patches))

    def apply(self, changed: OverlayDiff) -> OverlayState:
        """Publish one batch's diff, copying only the rows it touches;
        returns the new state.  Raises like :meth:`swap`."""
        base, state, side = self._view
        new_state = state.with_batch(changed)
        side = _side_rows(base, side, new_state.patches, changed)
        self._view = (base, new_state, side)
        return new_state

    # ------------------------------------------------------------------
    # delegated surface
    # ------------------------------------------------------------------
    @property
    def tree(self):
        return self._view[0].tree

    @property
    def build_stats(self):
        return self._view[0].build_stats

    @property
    def provenance(self):
        return getattr(self._view[0], "provenance", None)

    def stats(self):
        return self._view[0].stats()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, source: Vertex, target: Vertex) -> QueryResult:
        return self.query_batch([(source, target)])[0]

    def query_batch(self, pairs) -> List[QueryResult]:
        base, _state, side = self._view
        return patched_scan(base, side, pairs)

    def query_with_stats(self, source: Vertex, target: Vertex):
        """The answer, with its scan length as the visited labels."""
        base, _state, side = self._view
        result = patched_scan(base, side, [(source, target)])[0]
        start, end = base.window(source, target)
        return QueryStats(result, 0 if source == target else end - start)

    def pair_poisoned(self, source: Vertex, target: Vertex) -> bool:
        """Whether an endpoint of ``(s, t)`` has a side row."""
        patches = self.state.patches
        return source in patches or target in patches


def patched_scan(
    base: CTLIndex, side: Optional[SideRows], pairs
) -> List[QueryResult]:
    """CTL-Query for ``pairs``: one arena scan over ``base`` and ``side``."""
    return base.query_batch(pairs, side)


def _side_rows(
    base: CTLIndex,
    side: Optional[SideRows],
    patches: Dict[Vertex, Dict[int, PatchEntry]],
    changed: Optional[OverlayDiff] = None,
) -> Optional[SideRows]:
    """The side rows of ``patches``: ``side`` past one batch's
    ``changed`` while its buffers have room, else every row copied
    afresh.  Raises :class:`~repro.exceptions.LiveUpdateError` for a row
    of ``changed`` (else of ``patches``) off the base's rows, or without
    a value in a whole patch table."""
    arena = base.arena
    ids = arena.vertex_ids
    for vertex, entries in (patches if changed is None else changed).items():
        length = arena.label_length(vertex) if vertex in ids else -1
        for position, value in entries.items():
            if not 0 <= position < length or (
                value is None and changed is None
            ):
                raise LiveUpdateError(
                    f"patch row {[vertex, position, value]} does not fit "
                    "the served base"
                )

    def rows(diff):
        return {ids[v]: e if v in patches else None for v, e in diff.items()}

    if not patches:
        return None
    if side is not None and changed is not None:
        side = arena.with_rows(side, rows(changed))
    return side or arena.with_rows(None, rows(patches))
