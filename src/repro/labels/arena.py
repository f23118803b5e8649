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

When numpy is importable, :meth:`LabelArena.scan_batch` runs a
vectorised cross-pair kernel over zero-copy numpy views of the arena
buffers (in the width's dtype): one segmented minimum over every pair's
scan range at C speed, with exact arbitrary-precision count accumulation
restricted to the (few) minimising positions.  Without numpy the same
method falls back to the scalar scan loop — numpy is an accelerator,
never a dependency.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional
from typing import Sequence, Tuple

from repro.types import INF, Vertex, Weight

try:  # optional acceleration; the pure-Python path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


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
        dist_code = _dist_typecode(dist_of[v] for v in vertices)
        top_count = max(
            (max(count_of[v], default=0) for v in vertices), default=0
        )
        count_code = "i" if top_count <= WIDTHS["i"].max_count else "q"
        spill = top_count > MAX_INLINE_COUNT

        offsets = array("q", [0])
        dist = array(dist_code)
        count = array(count_code)
        overflow_positions: List[int] = []
        overflow_counts: List[int] = []
        position = 0
        inf_encoded = WIDTHS[dist_code].inf
        for v in vertices:
            dist.extend(
                inf_encoded if d == INF else d for d in dist_of[v]
            )
            counts = count_of[v]
            if spill:
                for c in counts:
                    if c > MAX_INLINE_COUNT:
                        overflow_positions.append(position)
                        overflow_counts.append(c)
                        c = COUNT_OVERFLOW
                    count.append(c)
                    position += 1
            else:
                count.extend(counts)
                position += len(counts)
            offsets.append(position)
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
        overflow = self._overflow
        for i, v in enumerate(self.vertices):
            start, end = offsets[i], offsets[i + 1]
            dist_of[v] = [self.decode_dist(d) for d in self.dist[start:end]]
            counts = []
            for position in range(start, end):
                c = self.count[position]
                counts.append(overflow[position] if c < 0 else c)
            count_of[v] = counts
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

    def _scan_window(self, a: int, b: int, n: int) -> Tuple[Weight, int]:
        """Scalar merge of ``n`` positions at absolute offsets ``a``, ``b``."""
        dist = self.dist
        count = self.count
        best = INF
        total = 0
        if not self._overflow:
            for d_s, d_t, c_s, c_t in zip(
                dist[a : a + n],
                dist[b : b + n],
                count[a : a + n],
                count[b : b + n],
            ):
                d = d_s + d_t
                if d < best:
                    best = d
                    total = c_s * c_t
                elif d == best:
                    total += c_s * c_t
        else:
            overflow = self._overflow
            for k in range(n):
                c_s = count[a + k]
                if c_s < 0:
                    c_s = overflow[a + k]
                c_t = count[b + k]
                if c_t < 0:
                    c_t = overflow[b + k]
                d = dist[a + k] + dist[b + k]
                if d < best:
                    best = d
                    total = c_s * c_t
                elif d == best:
                    total += c_s * c_t
        if total == 0:
            return INF, 0
        return best, total

    def _dist_view(self):
        """Zero-copy numpy view of the packed distance array (cached)."""
        view = self._np_dist
        if view is None:
            view = _np.frombuffer(
                self.dist, dtype=WIDTHS[self.dist_typecode].dtype
            )
            self._np_dist = view
        return view

    def scan_batch(
        self,
        starts_a: Sequence[int],
        starts_b: Sequence[int],
        lengths: Sequence[int],
    ) -> List[Tuple[Weight, int]]:
        """Merge many label ranges at once; one result tuple per pair.

        Positions are *absolute* offsets into the packed arrays: pair
        ``k`` scans ``dist[starts_a[k] : starts_a[k] + lengths[k]]``
        against the same-length window at ``starts_b[k]``.  With numpy
        available the distance sums and per-pair minima run as one
        segmented C kernel over zero-copy views of the arena buffers;
        exact (arbitrary-precision) count products are then accumulated
        only at the minimising positions, which keeps counts bit-exact
        including the overflow lane.  Without numpy this degrades to the
        scalar :meth:`scan` loop per pair.
        """
        if _np is None or len(lengths) < _MIN_VECTOR_BATCH:
            scan = self._scan_window
            return [
                scan(a, b, n)
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
        dist = self._dist_view()
        summed = dist[pos_a] + dist[pos_b]
        best = _np.minimum.reduceat(summed, seg_start)
        min_flat = _np.flatnonzero(summed == best[seg])

        # Exact count products only where the minimum is attained; the
        # array module hands back Python ints, so products never clip.
        count = self.count
        overflow = self._overflow
        totals = [0] * lens.size
        seg_min = seg[min_flat].tolist()
        pa_min = pos_a[min_flat].tolist()
        pb_min = pos_b[min_flat].tolist()
        if overflow:
            for k, ia, ib in zip(seg_min, pa_min, pb_min):
                c_s = count[ia]
                if c_s < 0:
                    c_s = overflow[ia]
                c_t = count[ib]
                if c_t < 0:
                    c_t = overflow[ib]
                totals[k] += c_s * c_t
        else:
            for k, ia, ib in zip(seg_min, pa_min, pb_min):
                totals[k] += count[ia] * count[ib]

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

    def entry(self, v: Vertex, position: int) -> Tuple[Weight, int]:
        """The decoded ``(distance, count)`` label of ``v`` at ``position``."""
        at = self.offsets[self.vertex_ids[v]] + position
        c = self.count[at]
        if c < 0:
            c = self._overflow[at]
        return self.decode_dist(self.dist[at]), c

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


def _dist_typecode(rows: Iterable[Sequence[Weight]]) -> str:
    """The narrowest distance width holding every value of ``rows``."""
    top = 0
    for row in rows:
        for d in row:
            if d == INF:
                continue
            if not isinstance(d, int) or d < 0:
                return "d"
            if d > top:
                top = d
    if top <= WIDTHS["i"].max_dist:
        return "i"
    return "q" if top <= WIDTHS["q"].max_dist else "d"


def record_layout_gauges(rec, arena: LabelArena) -> None:
    """Record arena vs. dict layout sizes as ``obs`` gauges."""
    rec.gauge("labels.arena_bytes", arena.nbytes())
    rec.gauge(
        "labels.dict_bytes",
        LabelArena.dict_layout_bytes(arena.num_vertices, arena.total_entries),
    )
    rec.gauge("labels.overflow_entries", len(arena.overflow_positions))
