"""Delta overlay: entry-granularity patches over an immutable arena.

A serving index is read-only — often literal ``mmap`` views over a v4
container — so absorbing edge-weight deltas cannot mutate labels in
place.  Instead the live tier keeps the base :class:`~repro.core.ctl.CTLIndex`
untouched and layers an :class:`OverlayState` on top: a side table of
*patched* label entries plus, per vertex, the smallest patched label
position (``min_dirty``).

The repair is :func:`~repro.core.dynamic.repair_labels`, the one
:class:`~repro.core.dynamic.DynamicCTL` uses (paper §IV-D.2): an update
to edge ``(a, b)`` can only change label blocks of the common ancestors
of ``X(a)`` and ``X(b)``, and inside them only the entries the edge
reaches are rewritten.  The patch table records exactly the entries
that differ from the base arena.  That entry-level table is what keeps
the overlay small and the clean-pair test sharp: the root node is an
ancestor of everything, so node-level poisoning would degenerate to
"all pairs poisoned", while in practice a weight delta shifts very few
root-block entries.

A pair ``(s, t)`` whose scan prefix stops before either endpoint's
first dirty position is *clean* — answered by the base index's
vectorised batch scan, bit-for-bit identical to a fresh build.
Poisoned pairs take a scalar merge of base entries and patches.

Overlay states are immutable snapshots: the coordinator builds a new
state off-thread and publishes it with one attribute store, so readers
never see a half-applied batch.  :func:`patch_rows` and
:func:`read_patch_rows` carry a patch table, or one batch's diff, over
JSON: that is how a fleet router hands its overlay to its workers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.base import SELF_QUERY_RESULT
from repro.core.ctl import CTLIndex
from repro.exceptions import IndexQueryError, LiveUpdateError
from repro.types import INF, QueryResult, Vertex, Weight

#: A patched label value in the decoded domain (``INF`` when the hub
#: became unreachable).
PatchEntry = Tuple[Weight, int]

#: Sentinel "no dirty position" — larger than any real label length.
CLEAN = 1 << 62

#: One batch's overlay diff: ``{vertex: {position: value}}``, where a
#: value is the entry's new ``(dist, count)`` or ``None`` for an entry
#: back at its base value (see :meth:`OverlayState.with_batch`).
OverlayDiff = Dict[Vertex, Dict[int, Optional[PatchEntry]]]


class OverlayState:
    """Immutable snapshot of the patch table at one ``(epoch, seqno)``.

    ``epoch`` counts base-index generations (bumped by rebuild-and-swap),
    ``seqno`` counts applied delta batches since the server started.
    ``patches`` maps a vertex to ``{label position: (dist, count)}``;
    ``min_dirty`` caches each patched vertex's smallest dirty position.
    """

    __slots__ = ("epoch", "seqno", "patches", "min_dirty")

    def __init__(
        self,
        epoch: int,
        seqno: int,
        patches: Dict[Vertex, Dict[int, PatchEntry]],
        min_dirty: Dict[Vertex, int],
    ) -> None:
        self.epoch = epoch
        self.seqno = seqno
        self.patches = patches
        self.min_dirty = min_dirty

    @classmethod
    def initial(cls, epoch: int = 1) -> "OverlayState":
        """An empty overlay for a freshly adopted base index."""
        return cls(epoch, 0, {}, {})

    @property
    def entries(self) -> int:
        """Total patched label entries (the rebuild-threshold measure)."""
        return sum(len(p) for p in self.patches.values())

    @property
    def poisoned_vertices(self) -> int:
        """Vertices with at least one patched entry."""
        return len(self.patches)

    def pair_clean(self, source: Vertex, target: Vertex, prefix: int) -> bool:
        """Whether a scan of ``prefix`` entries sees no patched value."""
        min_dirty = self.min_dirty
        return (
            min_dirty.get(source, CLEAN) >= prefix
            and min_dirty.get(target, CLEAN) >= prefix
        )

    def base_answers(
        self, base: CTLIndex, source: Vertex, target: Vertex
    ) -> bool:
        """Whether ``base``'s own scan answers ``Q(s, t)`` under this
        overlay: a self-pair, or a scan window that ends before either
        endpoint's first dirty position.  Needs only ``min_dirty``, so a
        fleet router mirroring the workers' ``min_dirty`` applies the
        very rule they serve by.  Raises
        :class:`~repro.exceptions.IndexQueryError` for an unknown vertex.
        """
        if source == target or not self.min_dirty:
            return True
        prefix = base.window(source, target)[1]
        return self.pair_clean(source, target, prefix)

    def with_batch(self, changed: OverlayDiff) -> "OverlayState":
        """A new state with ``changed`` merged in (``None`` = unpatch).

        ``changed`` carries the diff of one repaired batch: positions
        that now differ from the base map to their new value, positions
        that drifted back to the base value map to ``None``.
        """
        patches = dict(self.patches)
        min_dirty = dict(self.min_dirty)
        for vertex, positions in changed.items():
            merged = dict(patches.get(vertex, ()))
            for position, value in positions.items():
                if value is None:
                    merged.pop(position, None)
                else:
                    merged[position] = value
            if merged:
                patches[vertex] = merged
                min_dirty[vertex] = min(merged)
            else:
                patches.pop(vertex, None)
                min_dirty.pop(vertex, None)
        return OverlayState(self.epoch, self.seqno + 1, patches, min_dirty)


class LiveIndex:
    """A ``(base index, overlay)`` view with the SPCIndex query surface.

    The server, micro-batcher, and cache talk to this object exactly as
    they would to a static index; rebuild-and-swap replaces the internal
    view atomically, so in-flight batches finish on the snapshot they
    started with.
    """

    name = "CTL+live"

    def __init__(self, base: CTLIndex, state: Optional[OverlayState] = None):
        self._view: Tuple[CTLIndex, OverlayState] = (
            base,
            state if state is not None else OverlayState.initial(),
        )

    # ------------------------------------------------------------------
    # view management
    # ------------------------------------------------------------------
    @property
    def view(self) -> Tuple[CTLIndex, OverlayState]:
        """The current ``(base, overlay)`` snapshot."""
        return self._view

    @property
    def base(self) -> CTLIndex:
        return self._view[0]

    @property
    def state(self) -> OverlayState:
        return self._view[1]

    def swap(self, base: CTLIndex, state: OverlayState) -> None:
        """Atomically publish a new snapshot (single attribute store)."""
        self._view = (base, state)

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
    def _prefix(self, base: CTLIndex, source: Vertex, target: Vertex) -> int:
        """CTL-Query's scan length: the end of the base index's window."""
        return base.window(source, target)[1]

    def query(self, source: Vertex, target: Vertex) -> QueryResult:
        base, state = self._view
        if state.base_answers(base, source, target):
            return base.query(source, target)
        prefix = self._prefix(base, source, target)
        return patched_scan(base, state, source, target, prefix)

    def query_batch(self, pairs) -> List[QueryResult]:
        base, state = self._view
        pairs = list(pairs)
        results: List[Optional[QueryResult]] = [None] * len(pairs)
        clean_pairs: List[Tuple[Vertex, Vertex]] = []
        clean_slots: List[int] = []
        for slot, (source, target) in enumerate(pairs):
            try:
                clean = state.base_answers(base, source, target)
            except IndexQueryError:
                # Route through the base scan so unknown vertices fail
                # with the exact error a static index raises.
                clean = True
            if clean:
                clean_pairs.append((source, target))
                clean_slots.append(slot)
            else:
                results[slot] = patched_scan(
                    base, state, source, target,
                    self._prefix(base, source, target),
                )
        if clean_pairs:
            for slot, result in zip(
                clean_slots, base.query_batch(clean_pairs)
            ):
                results[slot] = result
        return results

    def query_with_stats(self, source: Vertex, target: Vertex):
        base, state = self._view
        if state.base_answers(base, source, target):
            return base.query_with_stats(source, target)
        # Poisoned pair: report the patched answer with the scan length
        # as the visited-labels figure (same accounting as the base).
        from repro.core.base import QueryStats

        prefix = self._prefix(base, source, target)
        result = patched_scan(base, state, source, target, prefix)
        return QueryStats(result, prefix)

    def pair_poisoned(self, source: Vertex, target: Vertex) -> bool:
        """Whether ``(s, t)`` currently routes through the patch table."""
        base, state = self._view
        try:
            return not state.base_answers(base, source, target)
        except IndexQueryError:
            return False


def patch_rows(changed) -> List[list]:
    """A patch table, or one batch's diff, as JSON-safe rows.

    Each entry becomes ``[vertex, position, dist, count]``: ``INF``
    travels as the string ``"inf"`` (JSON has no infinity) and an
    entry back at its base value (``None`` in a diff) as
    ``[vertex, position, null, null]``.  Rows, not objects keyed by
    vertex, so integer vertex ids survive JSON.
    """
    rows = []
    for vertex, positions in changed.items():
        for position, value in positions.items():
            if value is None:
                rows.append([vertex, position, None, None])
            else:
                dist, count = value
                rows.append(
                    [vertex, position, "inf" if dist == INF else dist, count]
                )
    return rows


def read_patch_rows(rows) -> OverlayDiff:
    """The patch table (or diff) :func:`patch_rows` wrote; raises
    :class:`~repro.exceptions.LiveUpdateError` on a malformed row."""
    changed: OverlayDiff = {}
    try:
        for vertex, position, dist, count in rows:
            if type(vertex) is not int or type(position) is not int:
                raise ValueError("vertex and position must be integers")
            if dist is None:
                value = None
            elif dist == "inf":
                value = (INF, count)
            elif isinstance(dist, (int, float)) and type(count) is int:
                value = (dist, count)
            else:
                raise ValueError(f"bad entry {[dist, count]!r}")
            changed.setdefault(vertex, {})[position] = value
    except (TypeError, ValueError) as exc:
        raise LiveUpdateError(f"malformed patch row: {exc}") from exc
    return changed


def patched_scan(
    base: CTLIndex,
    state: OverlayState,
    source: Vertex,
    target: Vertex,
    prefix: int,
) -> QueryResult:
    """CTL-Query over ``prefix`` positions with patch-table overrides."""
    if source == target:
        return SELF_QUERY_RESULT
    arena = base.arena
    ids = arena.vertex_ids
    try:
        sd = ids[source]
        td = ids[target]
    except KeyError as exc:
        raise IndexQueryError(f"vertex {exc.args[0]} is not indexed") from exc
    offsets = arena.offsets
    dist = arena.dist
    count = arena.count
    overflow = arena._overflow
    decode = arena.decode_dist
    start_s = offsets[sd]
    start_t = offsets[td]
    patch_s = state.patches.get(source) or {}
    patch_t = state.patches.get(target) or {}
    best = INF
    total = 0
    for position in range(prefix):
        entry = patch_s.get(position)
        if entry is None:
            at = start_s + position
            d_s = decode(dist[at])
            c_s = count[at]
            if c_s < 0:
                c_s = overflow[at]
        else:
            d_s, c_s = entry
        if d_s == INF:
            continue
        entry = patch_t.get(position)
        if entry is None:
            at = start_t + position
            d_t = decode(dist[at])
            c_t = count[at]
            if c_t < 0:
                c_t = overflow[at]
        else:
            d_t, c_t = entry
        if d_t == INF:
            continue
        d = d_s + d_t
        if d < best:
            best = d
            total = c_s * c_t
        elif d == best:
            total += c_s * c_t
    if total == 0:
        return QueryResult(INF, 0)
    return QueryResult(best, total)
