"""Index serialization: JSON (v1) and the packed binary v4 container.

Two on-disk formats:

* **v1 (JSON)** — inspectable and safe to load from untrusted sources;
  Python's arbitrary-precision integers survive the round trip, so
  exact path counts are preserved.  ``INF`` distances (disconnected
  label entries) are encoded as ``null``.  The default for
  :func:`save_index`.
* **v4 (binary, ``format="binary"``)** — the mmap-native container:
  magic ``RSPCIDX4``, a JSON header (index type, arena metadata,
  overflow lane), a binary section table of ``(offset, nbytes)``
  pairs, then each data section zero-padded to a page-size boundary so
  every buffer starts 8-byte (in fact page-) aligned in the file.  The
  cut tree rides as three flat int64 sections
  (``tree_parents``/``tree_blocks``/``tree_vertices``) instead of JSON,
  plus ``tree_node_of`` (int32): the tree node of each of the arena's
  dense ids, the one per-vertex array a query reads.  An open derives
  the per-node query arrays (LCA bit codes, depths, block offsets) from
  the first two tree sections and maps the last; the vertex lists are
  only read when a caller walks the tree.  A file written before
  ``tree_node_of`` existed still opens: its dense nodes are looked up
  in the tree's vertex map instead.  The ``dist`` and ``count``
  sections keep the arena's element widths (uint16 or int32 where the
  values fit, see :mod:`repro.labels.arena`), named in the header's
  ``arena.dist_typecode`` and ``arena.count_typecode``; a header
  without ``count_typecode`` was written before 32-bit counts and
  means int64.  A reader older than the uint16 widths refuses a file
  with a ``"H"`` typecode as unsupported.  A variable-size footer carries
  one CRC32 per section plus the header CRC, the section count, the
  total length, and the ``RSPC4END`` marker.  By default
  :func:`load_index` maps the file read-only and hands the
  :class:`~repro.labels.LabelArena` zero-copy ``memoryview`` windows
  over the mapping — cold start is page-fault-time, not parse-time,
  and every process serving the same file shares one physical copy
  through the OS page cache.

Earlier binary containers (v2 and v3) are retired: their magic is
still recognised, but only to raise a one-line
:class:`~repro.exceptions.SerializationError` telling the operator to
rebuild with ``repro-spc build --format binary``.

Every ``save_index`` call is **atomic**: the bytes go to a temp file in
the destination directory, are fsync'd, and only then renamed over the
target — a crash mid-save never clobbers the previous index file.

:func:`load_index` auto-detects the format by sniffing the magic.

**Provenance.** ``save_index(..., build_info=...)`` embeds a build
provenance dict (git sha, build wall-time, per-phase costs — see
:func:`repro.obs.buildphase.make_build_info`) into the v1 document and
the v4 header; loaders attach whatever they find — plus the format
version and the v4 per-section byte sizes — to the returned index as
``index.provenance``, which ``repro-spc stats`` and the server's
``/stats`` endpoint surface.
"""

from __future__ import annotations

import json
import mmap as _mmaplib
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Callable, List, Tuple, Union

from repro.baselines.tl import TLIndex
from repro.baselines.tree_decomposition import TreeDecomposition
from repro.core.base import BuildStats
from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.exceptions import IndexCorruptError, SerializationError
from repro.labels.arena import COUNT_TYPECODES, DIST_TYPECODES, LabelArena
from repro.labels.store import LabelStore
from repro.tree.cut_tree import CutTree
from repro.tree.lca import LCATable
from repro.types import INF

PathLike = Union[str, Path]

_FORMAT = "repro-spc-index"
_VERSION = 1

#: Magic prefix and end marker of the aligned, mmap-native v4 container.
_MAGIC4 = b"RSPCIDX4"
_END_MAGIC4 = b"RSPC4END"
_BINARY_VERSION4 = 4

#: Magic prefixes of retired binary containers, refused on sight.
_RETIRED_MAGICS = (b"RSPCIDX2", b"RSPCIDX3")

#: Sections whose size grows with the label entries.  A default mmap
#: open leaves them unchecked (that is the cold-start win); every other
#: section is O(n) and always checksummed.
_ENTRY_SECTIONS = ("dist", "count")

#: v4 section-table entry: ``(file offset, byte length)`` per section.
_SECTION_ENTRY = struct.Struct("<QQ")

#: Fixed tail of the v4 footer: section count (u32), total file length
#: (u64), then the end marker.  The CRC block (one u32 per section plus
#: the header CRC) sits immediately before it, so the footer's size is
#: recoverable from the tail alone.
_FOOTER4_TAIL = struct.Struct("<IQ")
_FOOTER4_TAIL_LEN = _FOOTER4_TAIL.size + len(_END_MAGIC4)

#: Sanity bound on the v4 section count — far above any real layout,
#: low enough that a corrupt footer cannot demand a gigabyte CRC block.
_MAX_SECTIONS = 64

#: v4 sections start on this boundary so their buffers can be mapped
#: page-aligned (numpy and ``memoryview.cast`` only need 8, the page
#: size keeps each section's pages private to itself).
_ALIGN = max(4096, _mmaplib.ALLOCATIONGRANULARITY)

#: Serialisable formats accepted by :func:`save_index`.
FORMATS = ("json", "binary")


def _footer4_len(nsections: int) -> int:
    return 4 * (nsections + 1) + _FOOTER4_TAIL_LEN


def _encode_dist(values):
    return [None if d == INF else d for d in values]


def _decode_dist(values):
    return [INF if d is None else d for d in values]


def _tree_payload(tree: CutTree) -> dict:
    return {
        "nodes": [
            {"vertices": list(node.vertices), "parent": node.parent}
            for node in tree.nodes
        ]
    }


def _tree_from_payload(payload: dict) -> CutTree:
    tree = CutTree()
    for entry in payload["nodes"]:
        tree.add_node(entry["vertices"], entry["parent"])
    tree.finalize()
    return tree


def _labels_payload(labels: LabelStore) -> dict:
    return {
        "dist": {str(v): _encode_dist(d) for v, d in labels.dist.items()},
        "count": {str(v): c for v, c in labels.count.items()},
    }


def _labels_from_payload(payload: dict) -> LabelStore:
    vertices = [int(v) for v in payload["dist"]]
    labels = LabelStore(vertices)
    for v in vertices:
        labels.dist[v] = _decode_dist(payload["dist"][str(v)])
        labels.count[v] = list(payload["count"][str(v)])
    return labels


def _tl_metadata_payload(index: TLIndex) -> dict:
    td = index.decomposition
    return {
        "order": list(td.order),
        "parent": {str(v): td.parent[v] for v in td.order},
        "bags": {
            str(v): [[u, w, c] for u, w, c in bag]
            for v, bag in td.bags.items()
        },
        "num_edges": index.stats().num_edges,
    }


def _tl_from_payload(payload: dict, dist, count, arena=None) -> TLIndex:
    """Rebuild a :class:`TLIndex` from its serialised metadata."""
    order = payload["order"]
    order_of = {v: i for i, v in enumerate(order)}
    parent = {int(v): p for v, p in payload["parent"].items()}
    bags = {
        int(v): [(u, w, c) for u, w, c in bag]
        for v, bag in payload["bags"].items()
    }
    depth = {}
    for v in reversed(order):
        p = parent[v]
        depth[v] = 0 if p is None else depth[p] + 1
    td = TreeDecomposition(
        order=order, order_of=order_of, bags=bags, parent=parent, depth=depth
    )
    parents = [
        -1 if td.parent[v] is None else order_of[td.parent[v]]
        for v in td.order
    ]
    return TLIndex(
        td, dist, count, LCATable(parents), BuildStats(),
        payload["num_edges"], arena=arena,
    )


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
def _atomic_write(
    path: PathLike, mode: str, write: Callable, encoding=None
) -> None:
    """Write via temp file + fsync + rename, so a crash mid-save never
    leaves a half-written file where an index used to be."""
    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, mode, encoding=encoding) as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:  # best-effort: persist the rename itself
        dir_fd = os.open(target.parent or Path("."), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


def save_index(
    index, path: PathLike, *, format: str = "json", build_info: dict = None
) -> None:
    """Serialise a built index (CTL, CTLS, or TL) to ``path``.

    ``format="json"`` writes the inspectable v1 document;
    ``format="binary"`` writes the aligned mmap-native v4 container.
    :func:`load_index` reads both.  Every format is written atomically
    (temp file + fsync + rename).  ``build_info`` (optional) is
    embedded verbatim as provenance.
    """
    if format not in FORMATS:
        raise SerializationError(
            f"unknown format {format!r}; expected one of {FORMATS}"
        )
    if format == "binary":
        _atomic_write(
            path, "wb", lambda h: _write_binary_v4(index, h, build_info)
        )
        return
    if isinstance(index, CTLSIndex):
        payload = {
            "type": "CTLS",
            "strategy": index.strategy,
            "tree": _tree_payload(index.tree),
            "labels": _labels_payload(index.labels),
            "num_vertices": index.stats().num_vertices,
            "num_edges": index.stats().num_edges,
        }
    elif isinstance(index, CTLIndex):
        payload = {
            "type": "CTL",
            "tree": _tree_payload(index.tree),
            "labels": _labels_payload(index.labels),
            "num_vertices": index.stats().num_vertices,
            "num_edges": index.stats().num_edges,
        }
    elif isinstance(index, TLIndex):
        payload = {"type": "TL", **_tl_metadata_payload(index)}
        payload["dist"] = {
            str(v): _encode_dist(d) for v, d in index.label_dist.items()
        }
        payload["count"] = {str(v): c for v, c in index.label_count.items()}
    else:
        raise SerializationError(
            f"cannot serialise index of type {type(index).__name__}"
        )
    payload["format"] = _FORMAT
    payload["version"] = _VERSION
    if build_info is not None:
        payload["build_info"] = build_info
    _atomic_write(
        path, "w", lambda h: json.dump(payload, h), encoding="utf-8"
    )


def _attach_provenance(
    index,
    path: PathLike,
    *,
    format_version: int,
    build_info: dict = None,
    sections: dict = None,
) -> None:
    """Record where (and from what build) a loaded index came."""
    arena = index.arena
    provenance = {
        "path": str(path),
        "format_version": format_version,
        "dist_typecode": arena.dist_typecode,
        "count_typecode": arena.count_typecode,
    }
    if sections is not None:
        provenance["sections"] = dict(sections)
    if build_info is not None:
        provenance["build_info"] = build_info
    index.provenance = provenance


def _sniff_magic(path: PathLike) -> bytes:
    """The file's leading magic bytes; retired containers stop here."""
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC4))
    if magic in _RETIRED_MAGICS:
        raise SerializationError(
            f"{path}: retired container {magic.decode('ascii')}; "
            "rebuild with `repro-spc build --format binary`"
        )
    return magic


def load_index(path: PathLike, *, mmap: bool = True, verify: bool = None):
    """Load an index previously written by :func:`save_index`.

    The format is auto-detected: ``RSPCIDX4`` parses as the aligned
    mmap-native v4 container and a leading ``{`` as the v1 JSON
    document.  A retired v2/v3 container raises a one-line
    :class:`SerializationError`; an empty or unrecognisable file raises
    a typed error instead of a raw ``struct.error``/``EOFError``.

    ``mmap`` and ``verify`` apply to v4 files only.  Every open
    validates the header checksum and the structural layout (alignment,
    bounds, overlaps, recorded length) and checksums the O(n) sections
    (``vertices``, ``offsets``, ``tree_*``), so a flipped byte there
    raises :class:`IndexCorruptError` naming the section.  With
    ``mmap=True`` (default) the arena gets zero-copy views over a
    read-only mapping and the O(entries) ``dist``/``count`` sections
    are only checksummed when ``verify=True`` — a deliberate trade:
    page-fault-time cold start versus full-file CRC sweeps.
    ``mmap=False`` reads everything onto the heap and always verifies,
    as does the automatic heap fallback for cross-endian files.
    """
    size = os.path.getsize(path)
    magic = _sniff_magic(path)
    if magic == _MAGIC4:
        return _load_binary_v4(path, size, use_mmap=mmap, verify=verify)
    if size == 0:
        raise IndexCorruptError(
            path, "file", "empty index file",
            expected=f">= {len(_MAGIC4)} bytes", actual="0 bytes",
        )
    if not magic.lstrip().startswith(b"{"):
        raise SerializationError(
            f"{path}: not a recognised index file (no {_FORMAT} JSON "
            f"document or RSPCIDX4 magic)"
        )
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IndexCorruptError(
                path, "file", f"truncated or corrupt JSON document: {exc}"
            ) from exc
    if payload.get("format") != _FORMAT:
        raise SerializationError(f"{path}: not a {_FORMAT} file")
    if payload.get("version") != _VERSION:
        raise SerializationError(
            f"{path}: unsupported version {payload.get('version')}"
        )
    kind = payload.get("type")
    if kind == "CTLS":
        index = CTLSIndex(
            _tree_from_payload(payload["tree"]),
            _labels_from_payload(payload["labels"]),
            BuildStats(),
            payload["num_vertices"],
            payload["num_edges"],
            payload["strategy"],
        )
    elif kind == "CTL":
        index = CTLIndex(
            _tree_from_payload(payload["tree"]),
            _labels_from_payload(payload["labels"]),
            BuildStats(),
            payload["num_vertices"],
            payload["num_edges"],
        )
    elif kind == "TL":
        dist = {int(v): _decode_dist(d) for v, d in payload["dist"].items()}
        count = {int(v): list(c) for v, c in payload["count"].items()}
        index = _tl_from_payload(payload, dist, count)
    else:
        raise SerializationError(f"{path}: unknown index type {kind!r}")
    _attach_provenance(
        index, path, format_version=_VERSION,
        build_info=payload.get("build_info"),
    )
    return index


# ----------------------------------------------------------------------
# v4: aligned, page-padded, mmap-native container
# ----------------------------------------------------------------------
def _v4_header(index) -> Tuple[dict, LabelArena]:
    """The v4 JSON header's index metadata and arena description.

    Also returns the arena to write: an index loaded from an older
    file (int32 or int64 arrays) is re-packed here, so saving it again
    writes the narrowest widths its values fit.
    """
    if isinstance(index, CTLSIndex):
        header = {"type": "CTLS", "strategy": index.strategy}
    elif isinstance(index, CTLIndex):
        header = {"type": "CTL"}
    elif isinstance(index, TLIndex):
        header = {"type": "TL", **_tl_metadata_payload(index)}
    else:
        raise SerializationError(
            f"cannot serialise index of type {type(index).__name__}"
        )
    if header["type"] != "TL":
        stats = index.stats()
        header["num_vertices"] = stats.num_vertices
        header["num_edges"] = stats.num_edges
    arena = index.arena.narrowed()
    header["format"] = _FORMAT
    header["arena"] = {
        "dist_typecode": arena.dist_typecode,
        "count_typecode": arena.count_typecode,
        "num_vertices": arena.num_vertices,
        "num_entries": arena.total_entries,
        # The overflow lane rides in the header: JSON carries the
        # arbitrary-precision counts the raw count buffer cannot.
        "overflow_positions": arena.overflow_positions,
        "overflow_counts": arena.overflow_counts,
        "byteorder": sys.byteorder,
    }
    return header, arena


def _v4_sections(index, arena: LabelArena) -> List[Tuple[str, object]]:
    """All v4 data sections: the arena plus the flattened cut tree.

    Buffers come back as whatever the arena holds — ``array`` for a
    built/heap-loaded index, ``memoryview`` for an mmap-loaded one —
    so the writer uses ``handle.write(buf)``, never ``buf.tofile``.
    TL keeps its bag metadata in the JSON header (it is not scanned at
    query time), so only CTL/CTLS grow the four tree sections.
    """
    sections = [
        ("vertices", array("q", arena.vertices)),
        ("offsets", arena.offsets),
        ("dist", arena.dist),
        ("count", arena.count),
    ]
    if isinstance(index, (CTLIndex, CTLSIndex)):
        parents, node_offsets, flat_vertices = index.tree.to_flat()
        sections.append(("tree_parents", array("q", parents)))
        sections.append(("tree_blocks", array("q", node_offsets)))
        sections.append(("tree_vertices", array("q", flat_vertices)))
        sections.append(("tree_node_of", array("i", index.node_of_dense)))
    return sections


def _section_layout(header: dict) -> List[Tuple[str, str, int]]:
    """``(name, typecode, item count)`` per v4 section, in table order."""
    meta = header["arena"]
    n = meta["num_vertices"]
    entries = meta["num_entries"]
    layout = [
        ("vertices", "q", n),
        ("offsets", "q", n + 1),
        ("dist", meta["dist_typecode"], entries),
        ("count", meta["count_typecode"], entries),
    ]
    tree_flat = header.get("tree_flat")
    if tree_flat is not None:
        nodes = tree_flat["nodes"]
        layout.append(("tree_parents", "q", nodes))
        layout.append(("tree_blocks", "q", nodes + 1))
        layout.append(("tree_vertices", "q", tree_flat["vertices"]))
        if "tree_node_of" in header.get("section_names", ()):
            layout.append(("tree_node_of", "i", n))
    return layout


def _buf_nbytes(buf) -> int:
    return len(buf) * buf.itemsize


def _write_binary_v4(index, handle, build_info: dict = None) -> None:
    """The v4 layout: header + section table + aligned sections + footer.

    Section offsets are rounded up to :data:`_ALIGN` with zero padding,
    so every buffer can be handed to ``memoryview.cast``/``np.frombuffer``
    straight out of an ``mmap`` with no copy.  The header CRC covers
    the fixed prefix, the JSON blob, *and* the binary section table —
    a flipped offset is caught before any section is trusted.
    """
    header, arena = _v4_header(index)
    header["version"] = _BINARY_VERSION4
    header["align"] = _ALIGN
    if build_info is not None:
        header["build_info"] = build_info
    sections = _v4_sections(index, arena)
    if isinstance(index, (CTLIndex, CTLSIndex)):
        header["tree_flat"] = {
            "nodes": index.tree.num_nodes,
            "vertices": len(dict(sections)["tree_vertices"]),
        }
    header["section_names"] = [name for name, _ in sections]
    header["sections"] = {name: _buf_nbytes(buf) for name, buf in sections}
    blob = json.dumps(header).encode("utf-8")
    prefix = _MAGIC4 + struct.pack("<Q", len(blob))
    pos = len(prefix) + len(blob) + len(sections) * _SECTION_ENTRY.size
    entries = []
    for _, buf in sections:
        offset = -(-pos // _ALIGN) * _ALIGN
        entries.append((offset, _buf_nbytes(buf)))
        pos = offset + _buf_nbytes(buf)
    table = b"".join(_SECTION_ENTRY.pack(*entry) for entry in entries)
    crcs = [zlib.crc32(table, zlib.crc32(blob, zlib.crc32(prefix)))]
    handle.write(prefix)
    handle.write(blob)
    handle.write(table)
    cursor = len(prefix) + len(blob) + len(table)
    for (_, buf), (offset, nbytes) in zip(sections, entries):
        handle.write(b"\x00" * (offset - cursor))
        handle.write(buf)
        crcs.append(zlib.crc32(buf))
        cursor = offset + nbytes
    total = cursor + _footer4_len(len(sections))
    handle.write(struct.pack(f"<{len(crcs)}I", *crcs))
    handle.write(_FOOTER4_TAIL.pack(len(sections), total))
    handle.write(_END_MAGIC4)


def _read_v4_layout(handle, path: PathLike, size: int):
    """Validate the v4 envelope; returns header, table entries, CRCs.

    Footer-first: the end marker, recorded length, section count, and
    header CRC (which covers the section table) are all checked before
    the JSON or any offset is trusted.
    """
    min_size = len(_MAGIC4) + 8 + _footer4_len(0)
    if size < min_size:
        raise IndexCorruptError(
            path, "file", "file shorter than the v4 envelope",
            expected=f">= {min_size} bytes", actual=f"{size} bytes",
        )
    handle.seek(size - _FOOTER4_TAIL_LEN)
    tail = handle.read(_FOOTER4_TAIL_LEN)
    if tail[_FOOTER4_TAIL.size:] != _END_MAGIC4:
        raise IndexCorruptError(
            path, "footer", "missing end marker — truncated or overwritten",
            expected=_END_MAGIC4.decode("latin-1"),
            actual=tail[_FOOTER4_TAIL.size:].decode("latin-1", "replace"),
        )
    nsections, total = _FOOTER4_TAIL.unpack(tail[:_FOOTER4_TAIL.size])
    if total != size:
        raise IndexCorruptError(
            path, "file", "recorded length does not match the file",
            expected=f"{total} bytes", actual=f"{size} bytes",
        )
    if not 1 <= nsections <= _MAX_SECTIONS:
        raise IndexCorruptError(
            path, "footer", "implausible section count",
            expected=f"1..{_MAX_SECTIONS}", actual=str(nsections),
        )
    footer_len = _footer4_len(nsections)
    if size < len(_MAGIC4) + 8 + footer_len:
        raise IndexCorruptError(
            path, "footer", "footer overlaps the header prefix",
            expected=f">= {len(_MAGIC4) + 8 + footer_len} bytes",
            actual=f"{size} bytes",
        )
    handle.seek(size - footer_len)
    crcs = list(struct.unpack(
        f"<{nsections + 1}I", handle.read(4 * (nsections + 1))
    ))
    handle.seek(0)
    prefix = handle.read(len(_MAGIC4) + 8)
    (header_len,) = struct.unpack("<Q", prefix[len(_MAGIC4):])
    table_len = nsections * _SECTION_ENTRY.size
    if len(prefix) + header_len + table_len + footer_len > size:
        raise IndexCorruptError(
            path, "header", "header length field exceeds file size",
            expected=(
                f"<= {size - len(prefix) - table_len - footer_len} bytes"
            ),
            actual=f"{header_len} bytes",
        )
    blob = handle.read(header_len)
    table = handle.read(table_len)
    header_crc = zlib.crc32(table, zlib.crc32(blob, zlib.crc32(prefix)))
    if crcs[0] != header_crc:
        raise IndexCorruptError(
            path, "header", "checksum mismatch",
            expected=f"crc32 {crcs[0]:#010x}", actual=f"{header_crc:#010x}",
        )
    try:
        header = json.loads(blob)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"{path}: undecodable v4 header: {exc}"
        ) from exc
    entries = [
        _SECTION_ENTRY.unpack_from(table, i * _SECTION_ENTRY.size)
        for i in range(nsections)
    ]
    data_start = len(prefix) + header_len + table_len
    return header, entries, crcs, data_start, size - footer_len


def _check_v4_header(path: PathLike, header: dict) -> dict:
    """Format/version/typecode validation; returns the arena meta.

    A header without ``count_typecode`` predates 32-bit counts: its
    count section is int64, and the returned meta says so.
    """
    if header.get("format") != _FORMAT:
        raise SerializationError(f"{path}: not a {_FORMAT} file")
    if header.get("version") != _BINARY_VERSION4:
        raise SerializationError(
            f"{path}: unsupported binary version {header.get('version')}"
        )
    meta = header["arena"]
    meta.setdefault("count_typecode", "q")
    for field, allowed in (
        ("dist_typecode", DIST_TYPECODES),
        ("count_typecode", COUNT_TYPECODES),
    ):
        if meta[field] not in allowed:
            raise SerializationError(
                f"{path}: unsupported {field.replace('_', ' ')} "
                f"{meta[field]!r}"
            )
    return meta


def _check_v4_entries(path, layout, entries, data_start, data_end):
    """Cross-check the section table against the header's declared
    layout: sizes, 8-byte alignment, file bounds, and no overlaps."""
    if len(entries) != len(layout):
        raise IndexCorruptError(
            path, "footer", "section count does not match the header",
            expected=f"{len(layout)} sections", actual=f"{len(entries)}",
        )
    spans = []
    for (name, typecode, length), (offset, nbytes) in zip(layout, entries):
        want = length * array(typecode).itemsize
        if nbytes != want:
            raise IndexCorruptError(
                path, name, "section size does not match the header",
                expected=f"{want} bytes", actual=f"{nbytes} bytes",
            )
        if offset % 8 != 0:
            raise IndexCorruptError(
                path, name, "unaligned section",
                expected="8-byte aligned offset", actual=f"offset {offset}",
            )
        if offset < data_start or offset + nbytes > data_end:
            raise IndexCorruptError(
                path, name, "section out of bounds",
                expected=f"within [{data_start}, {data_end})",
                actual=f"[{offset}, {offset + nbytes})",
            )
        spans.append((offset, offset + nbytes, name))
    spans.sort()
    for (_, prev_end, prev_name), (start, _, name) in zip(spans, spans[1:]):
        if start < prev_end:
            raise IndexCorruptError(
                path, name, f"section overlaps {prev_name}",
                expected=f"offset >= {prev_end}", actual=f"offset {start}",
            )


def _check_crc(path: PathLike, name: str, buf, want: int) -> None:
    got = zlib.crc32(buf)
    if got != want:
        raise IndexCorruptError(
            path, name, "checksum mismatch",
            expected=f"crc32 {want:#010x}", actual=f"{got:#010x}",
        )


def _scan_padding(handle, spans, data_start, data_end) -> Tuple[int, int]:
    """``(non-zero bytes, total bytes)`` of the alignment padding.

    Padding is the only part of a v4 file no section CRC covers; the
    verifying paths require it to be zero so that *every* byte of the
    file is under some check.
    """
    dirty = total = 0
    cursor = data_start
    for start, end in sorted(spans) + [(data_end, data_end)]:
        if start > cursor:
            handle.seek(cursor)
            remaining = start - cursor
            total += remaining
            while remaining:
                chunk = handle.read(min(remaining, 1 << 20))
                if not chunk:
                    break
                dirty += len(chunk) - chunk.count(0)
                remaining -= len(chunk)
        cursor = max(cursor, end)
    return dirty, total


def _index_from_binary_v4(path: PathLike, header: dict, arena, views):
    """Construct the index from a v4 container's buffers."""
    kind = header.get("type")
    if kind in ("CTLS", "CTL"):
        tree = CutTree.from_flat(
            views["tree_parents"], views["tree_blocks"],
            views["tree_vertices"],
        )
        node_of_dense = views.get("tree_node_of")
        if node_of_dense is not None:
            node_of_dense = node_of_dense.tolist()
        if kind == "CTLS":
            return CTLSIndex(
                tree, arena, BuildStats(), header["num_vertices"],
                header["num_edges"], header["strategy"],
                node_of_dense=node_of_dense,
            )
        return CTLIndex(
            tree, arena, BuildStats(), header["num_vertices"],
            header["num_edges"], node_of_dense=node_of_dense,
        )
    if kind == "TL":
        return _tl_from_payload(header, None, None, arena=arena)
    raise SerializationError(f"{path}: unknown index type {kind!r}")


def _load_binary_v4(
    path: PathLike, size: int, *, use_mmap: bool = True, verify: bool = None
):
    """Load a v4 container, zero-copy via mmap when possible.

    The mapping (when used) outlives this function: the arena keeps a
    reference in ``arena.region`` and every section view keeps the
    mapping's pages alive, so nothing here closes it explicitly.
    """
    handle = open(path, "rb")
    try:
        header, entries, crcs, data_start, data_end = _read_v4_layout(
            handle, path, size
        )
        meta = _check_v4_header(path, header)
        layout = _section_layout(header)
        _check_v4_entries(path, layout, entries, data_start, data_end)
        swap = meta["byteorder"] != sys.byteorder
        region = None
        if use_mmap and not swap:
            region = _mmaplib.mmap(
                handle.fileno(), 0, access=_mmaplib.ACCESS_READ
            )
            base = memoryview(region)
        # A heap load (cross-endian file or explicit mmap opt-out) reads
        # every byte anyway, so it always verifies everything.
        full = verify or region is None
        views = {}
        for i, ((name, typecode, _), (offset, nbytes)) in enumerate(
            zip(layout, entries)
        ):
            if region is not None:
                buf = base[offset:offset + nbytes]
            else:
                handle.seek(offset)
                buf = handle.read(nbytes)
            if full or name not in _ENTRY_SECTIONS:
                _check_crc(path, name, buf, crcs[1 + i])
            if region is not None:
                views[name] = buf.cast(typecode)
                continue
            section = array(typecode)
            section.frombytes(buf)
            if swap:
                section.byteswap()
            views[name] = section
        if full:
            spans = [(offset, offset + nbytes) for offset, nbytes in entries]
            dirty, _ = _scan_padding(handle, spans, data_start, data_end)
            if dirty:
                raise IndexCorruptError(
                    path, "padding", "non-zero bytes in alignment padding",
                    expected="0 dirty bytes", actual=f"{dirty}",
                )
    finally:
        handle.close()
    arena = LabelArena(
        views["vertices"].tolist(), views["offsets"], views["dist"],
        views["count"], meta["overflow_positions"],
        meta["overflow_counts"], region=region,
    )
    index = _index_from_binary_v4(path, header, arena, views)
    _attach_provenance(
        index, path, format_version=_BINARY_VERSION4,
        build_info=header.get("build_info"),
        sections=header.get("sections"),
    )
    return index


# ----------------------------------------------------------------------
# integrity verification (repro-spc verify-index)
# ----------------------------------------------------------------------
def verify_index_file(path: PathLike) -> List[Tuple[str, bool, str]]:
    """Validate an index file's integrity; never raises for corruption.

    Returns a per-section report ``[(section, ok, detail), ...]``.  For
    a v4 container every section is checked (checksum, length,
    alignment and bounds) even after an earlier one fails, so one run
    reports all the damage; a v1 JSON file (no checksums) gets a single
    structural ``file`` entry from attempting a full load.  A retired
    v2/v3 container is not corruption: it raises the same one-line
    :class:`SerializationError` as :func:`load_index`.

    The envelope is opened lazily — footer and header only — and each
    section is then streamed through CRC32 without ever materialising
    the index, so verification of a multi-gigabyte file needs constant
    memory.
    """
    try:
        size = os.path.getsize(path)
        magic = _sniff_magic(path)
    except OSError as exc:
        return [("file", False, str(exc))]
    if magic == _MAGIC4:
        return _verify_v4(path, size)
    try:
        load_index(path)
    except SerializationError as exc:
        return [("file", False, str(exc))]
    except Exception as exc:  # pragma: no cover - defensive
        return [("file", False, f"{type(exc).__name__}: {exc}")]
    return [("file", True, "structural load ok (no checksums)")]


def _verify_v4(path: PathLike, size: int) -> List[Tuple[str, bool, str]]:
    """Full-damage report for a v4 container (checksums + layout)."""
    report: List[Tuple[str, bool, str]] = []
    with open(path, "rb") as handle:
        try:
            header, entries, crcs, data_start, data_end = _read_v4_layout(
                handle, path, size
            )
            _check_v4_header(path, header)
            layout = _section_layout(header)
        except SerializationError as exc:
            section = getattr(exc, "section", "header")
            return [(section, False, str(exc))]
        report.append(("header", True, "checksum ok"))
        if len(entries) != len(layout):
            report.append((
                "footer", False,
                f"section count mismatch: header declares {len(layout)} "
                f"sections, footer records {len(entries)}",
            ))
            return report
        spans = sorted(
            (offset, offset + nbytes, name)
            for (name, _, _), (offset, nbytes) in zip(layout, entries)
        )
        overlapping = set()
        for (_, prev_end, prev_name), (start, _, name) in zip(
            spans, spans[1:]
        ):
            if start < prev_end:
                overlapping.add(name)
                report.append((
                    name, False, f"section overlaps {prev_name}",
                ))
        for i, ((name, typecode, length), (offset, nbytes)) in enumerate(
            zip(layout, entries)
        ):
            problems = []
            want_bytes = length * array(typecode).itemsize
            if nbytes != want_bytes:
                problems.append(
                    f"size mismatch: header implies {want_bytes} bytes, "
                    f"table records {nbytes}"
                )
            if offset % 8 != 0:
                problems.append(f"unaligned offset {offset}")
            if offset < data_start or offset + nbytes > data_end:
                problems.append(
                    f"out of bounds: [{offset}, {offset + nbytes}) not "
                    f"within [{data_start}, {data_end})"
                )
            if problems:
                report.append((name, False, "; ".join(problems)))
                continue
            if name in overlapping:
                continue
            handle.seek(offset)
            remaining = nbytes
            crc = 0
            while remaining:
                chunk = handle.read(min(remaining, 1 << 20))
                if not chunk:
                    break
                crc = zlib.crc32(chunk, crc)
                remaining -= len(chunk)
            if remaining:
                report.append((
                    name, False,
                    f"truncated: {remaining} of {nbytes} bytes missing",
                ))
            elif crc != crcs[1 + i]:
                report.append((
                    name, False,
                    f"checksum mismatch: expected crc32 "
                    f"{crcs[1 + i]:#010x}, got {crc:#010x}",
                ))
            else:
                report.append((name, True, f"checksum ok ({nbytes} bytes)"))
        dirty, total_pad = _scan_padding(
            handle, [span[:2] for span in spans], data_start, data_end
        )
        if dirty:
            report.append((
                "padding", False,
                f"{dirty} non-zero bytes in alignment padding",
            ))
        else:
            report.append(
                ("padding", True, f"all zero ({total_pad} bytes)")
            )
    return report


# ----------------------------------------------------------------------
# lazy inspection (repro-spc stats)
# ----------------------------------------------------------------------
def describe_index(path: PathLike) -> dict:
    """Structural summary of an index file without loading its labels.

    For a v4 container only the footer and JSON header are read — the
    dist/count sections, usually >99% of the file, are never touched;
    a CTL/CTLS file additionally reads (and checksums) its two small
    tree-shape sections to recover tree height/width.  The v1 JSON
    document has no lazy path and falls back to a full
    :func:`load_index`; a retired v2/v3 container raises the same
    one-line :class:`SerializationError`.

    Returns a dict with ``type``, ``format_version``, ``num_vertices``,
    ``num_edges``, ``tree_nodes``, ``height``, ``width``,
    ``total_label_entries``, ``size_bytes`` (the paper's 32-bit label
    model, matching ``index.stats()``), ``file_bytes``, the label
    arrays' ``dist_typecode`` and ``count_typecode``, plus
    ``sections`` and ``build_info`` when the container records them.
    """
    size = os.path.getsize(path)
    if _sniff_magic(path) != _MAGIC4:
        index = load_index(path)
        stats = index.stats()
        provenance = getattr(index, "provenance", {}) or {}
        return {
            "type": type(index).__name__.replace("Index", ""),
            "format_version": provenance.get("format_version", _VERSION),
            "num_vertices": stats.num_vertices,
            "num_edges": stats.num_edges,
            "tree_nodes": stats.tree_nodes,
            "height": stats.height,
            "width": stats.width,
            "total_label_entries": stats.total_label_entries,
            "size_bytes": stats.size_bytes,
            "file_bytes": size,
            "sections": None,
            "build_info": provenance.get("build_info"),
            "dist_typecode": index.arena.dist_typecode,
            "count_typecode": index.arena.count_typecode,
            "lazy": False,
        }
    with open(path, "rb") as handle:
        header, entries, crcs, _, _ = _read_v4_layout(handle, path, size)
        meta = _check_v4_header(path, header)
        kind = header.get("type")
        entries_count = meta["num_entries"]
        summary = {
            "type": kind,
            "format_version": _BINARY_VERSION4,
            "num_vertices": header.get("num_vertices", meta["num_vertices"]),
            "num_edges": header["num_edges"],
            "total_label_entries": entries_count,
            "size_bytes": 8 * entries_count,
            "file_bytes": size,
            "sections": header.get("sections"),
            "build_info": header.get("build_info"),
            "dist_typecode": meta["dist_typecode"],
            "count_typecode": meta["count_typecode"],
            "lazy": True,
        }
        if kind == "TL":
            parent = {
                int(v): p for v, p in header["parent"].items()
            }
            depth = {}
            for v in reversed(header["order"]):
                p = parent[v]
                depth[v] = 0 if p is None else depth[p] + 1
            summary["tree_nodes"] = meta["num_vertices"]
            summary["height"] = max(depth.values(), default=-1) + 1
            summary["width"] = max(
                (len(bag) + 1 for bag in header["bags"].values()), default=0
            )
            return summary
        # Read (and checksum) just the two small tree-shape sections.
        shape = {}
        for i, (name, (offset, nbytes)) in enumerate(
            zip(header["section_names"], entries)
        ):
            if name in ("tree_parents", "tree_blocks"):
                handle.seek(offset)
                raw = handle.read(nbytes)
                _check_crc(path, name, raw, crcs[1 + i])
                shape[name] = array("q", raw)
        parents, blocks = shape["tree_parents"], shape["tree_blocks"]
        block_end = []
        height = 0
        width = 0
        for i, parent in enumerate(parents):
            own = blocks[i + 1] - blocks[i]
            end = own + (block_end[parent] if parent >= 0 else 0)
            block_end.append(end)
            height = max(height, end)
            width = max(width, own)
        summary["tree_nodes"] = header["tree_flat"]["nodes"]
        summary["height"] = height
        summary["width"] = width
    return summary
