"""Packed label arena: contiguous dense-id label storage.

The :class:`~repro.labels.store.LabelStore` keeps one Python list per
vertex — the right shape while construction appends entries, but every
query pays dict probes and per-vertex list objects.  The
:class:`LabelArena` is the sealed, query-time layout: all label entries
of all vertices live in two contiguous ``array`` buffers (distances and
counts) indexed by a per-vertex offset table over *dense ids*
``0..n-1``.  A query resolves its two endpoints to dense ids once and
then works purely on flat arrays.

Encoding — each array's element width is chosen from its values when
:meth:`LabelArena.from_lists` packs them, and one table (:data:`WIDTHS`)
holds the per-width constants every reader uses:

* Distances are ``array('i')`` (signed 32-bit) when every finite
  distance is an integer of at most ``2**29 - 1``, else ``array('q')``
  (signed 64-bit) when every one is at most ``2**60 - 1``; ``INF`` is
  stored as the width's code (``2**30 - 1`` or ``2**61``), chosen so
  that the sum of a real distance pair can never reach a sum involving
  an unreachable side — the scan loop needs no sentinel branch — and so
  that even ``INF + INF`` fits the width for the vectorised kernel.
  Graphs with float weights (or larger integers) fall back to
  ``array('d')`` with a real ``inf``.
* Counts are exact arbitrary-precision integers in the library.  The
  arena stores them in an ``array('i')`` when every count is at most
  ``2**31 - 1``, else in an ``array('q')``; there the rare count that
  exceeds 63 bits is diverted to the *overflow lane* (parallel
  position/value Python lists) and marked with :data:`COUNT_OVERFLOW`
  in the array, so exactness survives packing bit-for-bit.

Road networks with integer weights fit 32 bits for both, the paper's
index-size model (:meth:`LabelArena.size_bytes`), so their packed bytes
match that model.

The arena is immutable by convention: code that mutates labels in place
(dynamic repair) edits the :class:`LabelStore` and re-seals.

The ``offsets``/``dist``/``count`` buffers may be ``array`` objects (the
heap layout the builders produce) **or** read-only ``memoryview``s over
an ``mmap`` region (the zero-copy layout the v4 container loader hands
over).  Every consumer — the scalar scan, the vectorised kernel, the
serializers — goes through the buffer protocol, so the two layouts are
interchangeable and answer bit-identically.  A mapped arena keeps its
backing region alive via :attr:`region`; the map is torn down by
reference counting once the last view dies (an explicit ``close`` on an
mmap with exported views would raise ``BufferError``).

For a batch of at least :data:`_MIN_VECTOR_BATCH` pairs,
:meth:`LabelArena.scan_batch` runs a vectorised cross-pair kernel over
zero-copy numpy views of the arena buffers (in the width's dtype): one
segmented minimum over every pair's scan range at C speed, with exact
arbitrary-precision count accumulation restricted to the (few)
minimising positions.  numpy is imported by the first such batch, not
by this module: a process that only ever scans one pair at a time (a
server answering GETs) never loads it, and the first vector batch pays
the one-time import (~0.1 s).  Without numpy the same method falls back
to the scalar scan loop — numpy is an accelerator, never a dependency.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional
from typing import Sequence, Tuple

from repro.types import INF, Vertex, Weight

#: Stands in for numpy until :func:`_numpy` has tried to import it.
_UNLOADED = object()

#: numpy once the first vector batch imported it (``None`` when it is
#: not installed).
_np = _UNLOADED


def _numpy():
    """numpy, imported on the first call; ``None`` when not installed."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy-free installs
            numpy = None
        _np = numpy
    return _np


class Width(NamedTuple):
    """Constants of one label-array element width (see :data:`WIDTHS`)."""

    #: numpy dtype of the zero-copy kernel view.
    dtype: str
    #: Largest finite distance a distance array of this width holds
    #: (``None``: any float).
    max_dist: Optional[int]
    #: Stored code standing in for ``INF`` in a distance array.
    inf: Weight
    #: Largest count stored inline in a count array of this width
    #: (``None``: not a count width).
    max_count: Optional[int]


#: Per-width constants, keyed by ``array`` typecode.  Integer widths
#: keep real distances at most ``max_dist`` so the sum of any two of
#: them is below ``inf``, any sum involving an unreachable side is at
#: least ``inf``, and even ``inf + inf`` stays inside the signed lane.
WIDTHS: Dict[str, Width] = {
    "i": Width("int32", 2 ** 29 - 1, 2 ** 30 - 1, 2 ** 31 - 1),
    "q": Width("int64", 2 ** 60 - 1, 2 ** 61, 2 ** 63 - 1),
    "d": Width("float64", None, INF, None),
}

#: Distance and count typecodes, narrowest first.
DIST_TYPECODES = ("i", "q", "d")
COUNT_TYPECODES = ("i", "q")

#: The 64-bit layout's ``INF`` code and limits (the widest integer
#: width; the overflow lane sits past ``MAX_INLINE_COUNT``).
INF_ENCODED = WIDTHS["q"].inf
MAX_INT_DIST = WIDTHS["q"].max_dist
MAX_INLINE_COUNT = WIDTHS["q"].max_count

#: Sentinel in the count array redirecting to the overflow lane.
COUNT_OVERFLOW = -1

#: Below this many pairs the vectorised kernel's fixed setup costs more
#: than the scalar loop it replaces.
_MIN_VECTOR_BATCH = 4


class LabelArena:
    """Contiguous dense-id label storage for query-time scanning."""

    __slots__ = (
        "vertices",
        "vertex_ids",
        "offsets",
        "dist",
        "count",
        "dist_typecode",
        "count_typecode",
        "region",
        "overflow_positions",
        "overflow_counts",
        "_overflow",
        "_inf",
        "_np_dist",
    )

    def __init__(
        self,
        vertices: Sequence[Vertex],
        offsets,
        dist,
        count,
        overflow_positions: Sequence[int] = (),
        overflow_counts: Sequence[int] = (),
        *,
        region=None,
    ) -> None:
        self.vertices: List[Vertex] = list(vertices)
        self.vertex_ids: Dict[Vertex, int] = {
            v: i for i, v in enumerate(self.vertices)
        }
        self.offsets = offsets
        self.dist = dist
        self.count = count
        #: Keys of :data:`WIDTHS` — arrays carry them as ``typecode``,
        #: memoryviews as ``format``; resolved once so the hot paths
        #: never re-inspect the buffer type.
        self.dist_typecode: str = getattr(dist, "typecode", None) or dist.format
        self.count_typecode: str = (
            getattr(count, "typecode", None) or count.format
        )
        self._inf = WIDTHS[self.dist_typecode].inf
        #: Whatever owns the mapped bytes (an ``mmap``), kept alive for
        #: as long as the arena holds views into it.  ``None`` for heap
        #: arenas.
        self.region = region
        self.overflow_positions: List[int] = list(overflow_positions)
        self.overflow_counts: List[int] = list(overflow_counts)
        self._overflow: Dict[int, int] = dict(
            zip(self.overflow_positions, self.overflow_counts)
        )
        self._np_dist = None

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------
    @classmethod
    def from_lists(
        cls,
        order: Iterable[Vertex],
        dist_of: Mapping[Vertex, Sequence[Weight]],
        count_of: Mapping[Vertex, Sequence[int]],
    ) -> "LabelArena":
        """Pack per-vertex dist/count lists in dense-id order ``order``.

        Each array gets the narrowest width of :data:`WIDTHS` that holds
        all of its values exactly.
        """
        vertices = list(order)
        dist_rows = [dist_of[v] for v in vertices]
        offsets = array("q", [0])
        offsets.extend(accumulate(map(len, dist_rows)))
        flat_dist = list(chain.from_iterable(dist_rows))
        flat_count = list(chain.from_iterable(count_of[v] for v in vertices))

        dist = _pack_dist(flat_dist)

        top_count = max(flat_count, default=0)
        count_code = "i" if top_count <= WIDTHS["i"].max_count else "q"
        overflow_positions: List[int] = []
        overflow_counts: List[int] = []
        if top_count > MAX_INLINE_COUNT:
            for position, c in enumerate(flat_count):
                if c > MAX_INLINE_COUNT:
                    overflow_positions.append(position)
                    overflow_counts.append(c)
                    flat_count[position] = COUNT_OVERFLOW
        count = array(count_code, flat_count)
        return cls(
            vertices, offsets, dist, count, overflow_positions, overflow_counts
        )

    @classmethod
    def from_store(
        cls, store, order: Optional[Iterable[Vertex]] = None
    ) -> "LabelArena":
        """Pack a :class:`LabelStore` (dense ids = ascending vertex id)."""
        if order is None:
            order = sorted(store.dist)
        return cls.from_lists(order, store.dist, store.count)

    def narrowed(self) -> "LabelArena":
        """This arena at the narrowest widths its values fit.

        ``self`` when both arrays are already 32-bit, else a re-packed
        heap copy (an arena read from a file written before 32-bit
        widths existed is all int64).
        """
        if self.dist_typecode == "i" and self.count_typecode == "i":
            return self
        return LabelArena.from_lists(self.vertices, *self.to_lists())

    # ------------------------------------------------------------------
    # unpacking (reference/interop)
    # ------------------------------------------------------------------
    def decode_dist(self, value):
        """The public distance for one stored ``dist`` element."""
        return INF if value >= self._inf else value

    def to_lists(self) -> Tuple[Dict[Vertex, List], Dict[Vertex, List[int]]]:
        """Rebuild ``{vertex: [dist]}, {vertex: [count]}`` mappings."""
        dist_of: Dict[Vertex, List] = {}
        count_of: Dict[Vertex, List[int]] = {}
        offsets = self.offsets
        for i, v in enumerate(self.vertices):
            start = offsets[i]
            dists, counts = self._row(start, offsets[i + 1] - start, None)
            dist_of[v] = [self.decode_dist(d) for d in dists]
            count_of[v] = list(counts)
        return dist_of, count_of

    def to_store(self):
        """Rebuild the mutable dict-of-lists :class:`LabelStore`."""
        from repro.labels.store import LabelStore

        dist_of, count_of = self.to_lists()
        store = LabelStore(self.vertices)
        store.dist = dist_of
        store.count = count_of
        return store

    # ------------------------------------------------------------------
    # scanning (the query kernel)
    # ------------------------------------------------------------------
    def scan(
        self, source_dense: int, target_dense: int, start: int, end: int
    ) -> Tuple[Weight, int]:
        """Merge label positions ``[start, end)`` of two dense ids.

        Returns ``(distance, count)`` — ``(INF, 0)`` when no scanned
        position connects the pair.  This is the shared inner loop of
        CTL-Query, CTLS-Query, and TL-Query; only the range differs.
        """
        offsets = self.offsets
        return self._scan_window(
            offsets[source_dense] + start,
            offsets[target_dense] + start,
            end - start,
        )

    def _scan_window(
        self, a: int, b: int, n: int, side: Optional["LabelArena"] = None
    ) -> Tuple[Weight, int]:
        """Scalar merge of ``n`` entries at combined offsets ``a``, ``b``."""
        if side is None and not self._overflow:
            dist, count = self.dist, self.count
            dist_a, dist_b = dist[a : a + n], dist[b : b + n]
            count_a, count_b = count[a : a + n], count[b : b + n]
        else:
            dist_a, count_a = self._row(a, n, side)
            dist_b, count_b = self._row(b, n, side)
        best = INF
        total = 0
        for d_s, d_t, c_s, c_t in zip(dist_a, dist_b, count_a, count_b):
            d = d_s + d_t
            if d < best:
                best = d
                total = c_s * c_t
            elif d == best:
                total += c_s * c_t
        if total == 0:
            return INF, 0
        return best, total

    def _locate(self, at: int, side) -> Tuple["LabelArena", int]:
        """The arena, and the offset in it, of combined offset ``at``."""
        if side is not None and at >= len(self.dist):
            return side, at - len(self.dist)
        return self, at

    def _row(self, at: int, n: int, side):
        """Distances, at the width a scan with ``side`` compares at, and
        exact counts of the ``n`` entries at combined offset ``at``."""
        code = _dist_code(self, side or self)
        arena, at = self._locate(at, side)
        dist = arena.dist[at : at + n]
        if arena.dist_typecode != code:
            inf, coded = arena._inf, WIDTHS[code].inf
            dist = [coded if d >= inf else d for d in dist]
        count = arena.count[at : at + n]
        if arena._overflow:
            count = [arena._count(k) for k in range(at, at + n)]
        return dist, count

    def _count(self, at: int, side=None) -> int:
        """The exact count at combined offset ``at``."""
        arena, at = self._locate(at, side)
        c = arena.count[at]
        return arena._overflow[at] if c < 0 else c

    def _dist_view(self):
        """Zero-copy numpy view of the packed distance array (cached;
        only :meth:`scan_batch`'s kernel, after :func:`_numpy`, calls it)."""
        view = self._np_dist
        if view is None:
            view = _np.frombuffer(
                self.dist, dtype=WIDTHS[self.dist_typecode].dtype
            )
            self._np_dist = view
        return view

    def _gather(self, side, positions):
        """Distances at combined offsets ``positions`` (numpy), re-coded
        at the wider of this arena's and ``side``'s widths."""
        end = len(self.dist)
        width = WIDTHS[_dist_code(self, side)]
        out = _np.empty(positions.size, width.dtype)
        in_side = positions >= end
        for arena, mask, shift in ((self, ~in_side, 0), (side, in_side, end)):
            part = arena._dist_view()[positions[mask] - shift]
            part = part.astype(width.dtype)
            part[part >= arena._inf] = width.inf
            out[mask] = part
        return out

    def scan_batch(
        self,
        starts_a: Sequence[int],
        starts_b: Sequence[int],
        lengths: Sequence[int],
        side: Optional["LabelArena"] = None,
    ) -> List[Tuple[Weight, int]]:
        """Merge many label ranges at once; one result tuple per pair.

        Positions are *absolute* offsets into the packed arrays: pair
        ``k`` scans ``dist[starts_a[k] : starts_a[k] + lengths[k]]``
        against the same-length window at ``starts_b[k]``.  Offsets at or
        past this arena's end address ``side`` (a :class:`SideRows`
        arena), so either row of a pair may live in either buffer; where
        the widths differ, distances compare decoded at the wider one.

        From :data:`_MIN_VECTOR_BATCH` pairs on, and with numpy
        available (imported by the first such batch), the distance sums
        and per-pair minima run as one segmented C kernel over zero-copy
        views of the buffers; exact (arbitrary-precision) count products
        are then accumulated only at the minimising positions, which
        keeps counts bit-exact including the overflow lane.  Smaller
        batches, and every batch without numpy, take the scalar merge
        per pair.
        """
        # Float side rows over integer base rows take the scalar merge:
        # there, sums of integer entries stay integers.
        if len(lengths) < _MIN_VECTOR_BATCH or (
            side is not None
            and side.dist_typecode == "d" != self.dist_typecode
        ) or _numpy() is None:
            scan = self._scan_window
            return [
                scan(a, b, n, side)
                for a, b, n in zip(starts_a, starts_b, lengths)
            ]

        lens = _np.maximum(_np.asarray(lengths, dtype=_np.int64), 0)
        num_pairs = lens.size
        results: List[Tuple[Weight, int]] = [(INF, 0)] * num_pairs
        nonzero = _np.flatnonzero(lens)
        if nonzero.size == 0:
            return results
        sa = _np.asarray(starts_a, dtype=_np.int64)
        sb = _np.asarray(starts_b, dtype=_np.int64)
        if nonzero.size != num_pairs:
            lens, sa, sb = lens[nonzero], sa[nonzero], sb[nonzero]
            slot_of = nonzero.tolist()
        else:
            slot_of = None

        # Flatten the ragged windows: element i belongs to pair seg[i]
        # and sits offs[i] positions into that pair's window.
        ends = _np.cumsum(lens)
        seg = _np.repeat(_np.arange(lens.size), lens)
        seg_start = ends - lens
        offs = _np.arange(int(ends[-1]), dtype=_np.int64) - seg_start[seg]
        pos_a = sa[seg] + offs
        pos_b = sb[seg] + offs
        if side is None:
            dist = self._dist_view()
            summed = dist[pos_a] + dist[pos_b]
        else:
            summed = self._gather(side, pos_a) + self._gather(side, pos_b)
        best = _np.minimum.reduceat(summed, seg_start)
        min_flat = _np.flatnonzero(summed == best[seg])

        # Exact count products only where the minimum is attained; the
        # array module hands back Python ints, so products never clip.
        totals = [0] * lens.size
        seg_min = seg[min_flat].tolist()
        pa_min = pos_a[min_flat].tolist()
        pb_min = pos_b[min_flat].tolist()
        if side is None and not self._overflow:
            count = self.count
            for k, ia, ib in zip(seg_min, pa_min, pb_min):
                totals[k] += count[ia] * count[ib]
        else:
            count = self._count
            for k, ia, ib in zip(seg_min, pa_min, pb_min):
                totals[k] += count(ia, side) * count(ib, side)

        # An unreachable side always carries count 0, so total == 0 is
        # exactly the disconnected case (same rule as the scalar scan).
        best_list = best.tolist()
        if slot_of is None:
            for k, total in enumerate(totals):
                if total:
                    results[k] = (best_list[k], total)
        else:
            for k, total in enumerate(totals):
                if total:
                    results[slot_of[k]] = (best_list[k], total)
        return results

    # ------------------------------------------------------------------
    # shape and accounting
    # ------------------------------------------------------------------
    def label_length(self, v: Vertex) -> int:
        """Number of label entries stored for vertex ``v``."""
        dense = self.vertex_ids[v]
        return self.offsets[dense + 1] - self.offsets[dense]

    def entry(
        self, v: Vertex, position: int, side: Optional["SideRows"] = None
    ) -> Tuple[Weight, int]:
        """The decoded ``(distance, count)`` label of ``v`` at ``position``
        (read from ``side`` when it holds ``v``'s row)."""
        starts = self.offsets if side is None else side.starts
        arena, at = self, starts[self.vertex_ids[v]] + position
        if side is not None and at >= len(self.dist):
            arena, at = side.arena, at - len(self.dist)
        c = arena.count[at]
        if c < 0:
            c = arena._overflow[at]
        d = arena.dist[at]
        return INF if d >= arena._inf else d, c

    def with_rows(
        self, side: Optional["SideRows"], rows
    ) -> Optional["SideRows"]:
        """``side`` (``None``: new buffers, with twice the room needed)
        with ``rows``: a dense id maps to ``None`` (serve its base row
        again) or to ``{position: value}`` — its current row is copied,
        as one buffer slice, past ``side.size`` and each value written
        over it (``None``: the base entry).  ``side``'s entries are not
        touched, so its readers keep their view; ``None`` is returned
        when its buffers lack the room or the width for ``rows``."""
        end = len(self.dist)
        old = self if side is None else side.arena
        offsets = self.offsets
        size = 0 if side is None else side.size
        need = size + sum(
            offsets[d + 1] - offsets[d]
            for d, entries in rows.items() if entries is not None
        )
        if need > len(old.dist) and side is not None:
            return None
        values = [v for e in rows.values() if e for v in e.values() if v]
        top = max((c for _, c in values), default=0)
        dist_code = max(
            old.dist_typecode, _dist_typecode([d for d, _ in values]),
            key=DIST_TYPECODES.index,
        )
        count_code = max(
            old.count_typecode, "i" if top <= WIDTHS["i"].max_count else "q",
            key=COUNT_TYPECODES.index,
        )
        if side is None:
            dist = array(dist_code, [0]) * (2 * need)
            count = array(count_code, [0]) * (2 * need)
            overflow: Dict[int, int] = {}
            starts = array("q")
            starts.frombytes(memoryview(offsets)[:-1].tobytes())
        elif dist_code + count_code != old.dist_typecode + old.count_typecode:
            return None
        else:
            dist, count, overflow = old.dist, old.count, dict(old._overflow)
            starts = side.starts[:]
        targets = (memoryview(dist), memoryview(count))
        inf = WIDTHS[dist_code].inf
        max_count = WIDTHS[count_code].max_count
        for dense, entries in rows.items():
            if entries is None:
                starts[dense] = offsets[dense]
                continue
            source, at = self._locate(starts[dense], old)
            length = offsets[dense + 1] - offsets[dense]
            _copy_row(targets, overflow, size, source, at, length)
            for position, value in entries.items():
                d, c = value or self.entry(self.vertices[dense], position)
                slot = size + position
                dist[slot] = inf if d == INF else d
                if c > max_count:
                    overflow[slot], c = c, COUNT_OVERFLOW
                else:
                    overflow.pop(slot, None)
                count[slot] = c
            starts[dense] = end + size
            size += length
        arena = LabelArena(
            (), array("q", [0]), dist, count, list(overflow),
            list(overflow.values()),
        )
        return SideRows(arena, starts, size)

    @property
    def is_mapped(self) -> bool:
        """Whether the buffers are zero-copy views over a mapped region."""
        return self.region is not None

    @property
    def num_vertices(self) -> int:
        """Number of vertices with (possibly empty) label ranges."""
        return len(self.vertices)

    @property
    def total_entries(self) -> int:
        """Total label entries across all vertices."""
        return len(self.dist)

    def max_label_length(self) -> int:
        """The longest label range (equals the tree height ``h``)."""
        offsets = self.offsets
        return max(
            (offsets[i + 1] - offsets[i] for i in range(len(self.vertices))),
            default=0,
        )

    def nbytes(self) -> int:
        """Actual packed bytes: offset table + arrays + overflow lane.

        Overflow entries are modelled at 64 bytes each (list slots plus
        an arbitrary-precision integer object).
        """
        return (
            self.offsets.itemsize * len(self.offsets)
            + self.dist.itemsize * len(self.dist)
            + self.count.itemsize * len(self.count)
            + 64 * len(self.overflow_positions)
        )

    def size_bytes(self, bytes_per_element: int = 4) -> int:
        """Index size under the paper's 32-bit-per-element model."""
        return 2 * bytes_per_element * self.total_entries

    @staticmethod
    def dict_layout_bytes(num_vertices: int, total_entries: int) -> int:
        """Modelled bytes of the dict-of-lists :class:`LabelStore` layout.

        Per vertex: two dict entries (~104 B each) and two list headers
        (~56 B each); per label entry: two 8-byte list slots and two
        ~28-byte boxed integers.  A deliberate back-of-envelope model —
        it exists so the ``labels.dict_bytes`` gauge can be compared
        against ``labels.arena_bytes`` on equal terms.
        """
        return num_vertices * 2 * (104 + 56) + total_entries * 2 * (8 + 28)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelArena):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and memoryview(self.offsets) == memoryview(other.offsets)
            and self.dist_typecode == other.dist_typecode
            and memoryview(self.dist) == memoryview(other.dist)
            and self.count_typecode == other.count_typecode
            and memoryview(self.count) == memoryview(other.count)
            and self.overflow_positions == other.overflow_positions
            and self.overflow_counts == other.overflow_counts
        )

    def __repr__(self) -> str:
        return (
            f"LabelArena(n={self.num_vertices}, "
            f"entries={self.total_entries}, "
            f"dist={self.dist_typecode!r}, "
            f"count={self.count_typecode!r}, "
            f"overflow={len(self.overflow_positions)})"
        )


class SideRows(NamedTuple):
    """Label rows that stand in for some of a base arena's rows.

    ``arena`` holds whole rows in the :class:`LabelArena` layout in its
    first ``size`` entries; the room past them is for later snapshots'
    rows.  ``starts[d]`` is dense id ``d``'s row start in the offsets
    :meth:`LabelArena.scan_batch` reads with ``side=arena`` (past the
    base's entries for a side row).  Rewritten rows stay behind for
    older readers until the room runs out."""

    arena: LabelArena
    starts: array
    size: int


def _dist_code(arena: LabelArena, side: LabelArena) -> str:
    """The distance width a scan over rows of both arenas compares at."""
    codes = (arena.dist_typecode, side.dist_typecode)
    return max(codes, key=DIST_TYPECODES.index)


def _copy_row(targets, overflow, to: int, arena, at: int, n: int) -> None:
    """Copy entries ``[at, at + n)`` of ``arena`` over ``[to, to + n)`` of
    ``targets`` (dist, count views) and ``overflow``, recoding widths."""
    dist, count = targets
    piece = arena.dist[at : at + n]
    if arena.dist_typecode != dist.format:
        inf = WIDTHS[dist.format].inf
        piece = array(
            dist.format, [inf if d >= arena._inf else d for d in piece]
        )
    dist[to : to + n] = piece
    piece = arena.count[at : at + n]
    if arena.count_typecode != count.format:
        piece = array(count.format, piece.tolist())
    count[to : to + n] = piece
    for k in range(n) if arena._overflow else ():
        if at + k in arena._overflow:
            overflow[to + k] = arena._overflow[at + k]


def _pack_dist(values: List[Weight]) -> array:
    """``values`` packed at the narrowest distance width holding them.

    ``INF`` becomes the width's code.  Works in place on ``values`` with
    whole-list passes: unreachable entries are rare, so they are found
    by ``list.index`` and patched one by one.
    """
    unreachable = []
    position = -1
    try:
        while True:
            position = values.index(INF, position + 1)
            unreachable.append(position)
    except ValueError:
        pass
    for position in unreachable:
        values[position] = 0
    top = max(values, default=0)
    code = "d"
    if top <= WIDTHS["i"].max_dist:
        code = "i"
    elif top <= WIDTHS["q"].max_dist:
        code = "q"
    if code != "d":
        inf = WIDTHS[code].inf
        for position in unreachable:
            values[position] = inf
        try:
            return array(code, values)
        except TypeError:  # a float distance: only the float width holds it
            pass
    for position in unreachable:
        values[position] = INF
    return array("d", values)


def _dist_typecode(values: Iterable[Weight]) -> str:
    """The narrowest distance width holding every value of ``values``."""
    return _pack_dist(list(values)).typecode


def record_layout_gauges(rec, arena: LabelArena) -> None:
    """Record arena vs. dict layout sizes as ``obs`` gauges."""
    rec.gauge("labels.arena_bytes", arena.nbytes())
    rec.gauge(
        "labels.dict_bytes",
        LabelArena.dict_layout_bytes(arena.num_vertices, arena.total_entries),
    )
    rec.gauge("labels.overflow_entries", len(arena.overflow_positions))
