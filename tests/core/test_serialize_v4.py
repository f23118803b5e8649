"""The v4 mmap-native container: alignment, zero-copy parity, hardening.

v4 exists so ``load_index`` can hand the query kernel ``memoryview``s
straight over an ``mmap`` region — no parse, no copy.  That only works
if the on-disk layout is trustworthy, so these tests pin four
contracts:

* **layout** — every section offset is 8-byte *and* page aligned, and
  the file round-trips through v4 and the v1 JSON document;
* **parity** — an mmap-loaded index answers ``query``/``query_batch``
  bit-identically to a heap-loaded one;
* **hardening** — a hostile section table (overlaps, out-of-bounds,
  unaligned offsets) is rejected at load, a flipped byte in an O(n)
  section is caught by every open, and flipped bytes anywhere in the
  file (sections *or* alignment padding) are caught by ``verify``;
* **crash safety** — no single-byte corruption or truncation loads
  silently, and an interrupted ``save_index`` never clobbers the
  previous file.
"""

import struct
import zlib
from array import array

import pytest

import repro.core.serialize as ser
from repro.baselines.tl import TLIndex
from repro.core.ctls import CTLSIndex
from repro.core.serialize import (
    describe_index,
    load_index,
    save_index,
    verify_index_file,
)
from repro.exceptions import IndexCorruptError, SerializationError
from repro.graph.generators import grid_graph, road_network


@pytest.fixture(scope="module")
def graph():
    return road_network(180, seed=5)


@pytest.fixture(scope="module")
def index(graph):
    return CTLSIndex.build(graph)


@pytest.fixture(scope="module")
def pairs(graph):
    vertices = sorted(graph.vertices())
    return [
        (vertices[i], vertices[-1 - i]) for i in range(0, len(vertices), 3)
    ]


@pytest.fixture()
def v4_file(tmp_path, index):
    path = tmp_path / "index.bin"
    save_index(index, path, format="binary")
    return path


# ----------------------------------------------------------------------
# tampering helpers
# ----------------------------------------------------------------------
def _layout(path):
    size = path.stat().st_size
    with open(path, "rb") as handle:
        return ser._read_v4_layout(handle, path, size)


def _rewrite_entry(path, name, *, offset=None, nbytes=None):
    """Rewrite one section-table entry and re-sign the header CRC.

    This forges a *consistently checksummed* but structurally hostile
    file — exactly what the loader's layout validation (not the CRCs)
    must catch.
    """
    data = bytearray(path.read_bytes())
    header, entries, _, _, _ = _layout(path)
    i = header["section_names"].index(name)
    old_offset, old_nbytes = entries[i]
    entry = (
        old_offset if offset is None else offset,
        old_nbytes if nbytes is None else nbytes,
    )
    (header_len,) = struct.unpack_from("<Q", data, 8)
    table_start = 16 + header_len
    struct.pack_into("<QQ", data, table_start + 16 * i, *entry)
    table_end = table_start + 16 * len(entries)
    footer_start = len(data) - ser._footer4_len(len(entries))
    struct.pack_into(
        "<I", data, footer_start, zlib.crc32(bytes(data[:table_end]))
    )
    path.write_bytes(bytes(data))


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
class TestLayout:
    def test_magic_and_footer(self, v4_file):
        raw = v4_file.read_bytes()
        assert raw[:8] == b"RSPCIDX4"
        assert raw[-8:] == b"RSPC4END"

    def test_every_section_page_aligned(self, v4_file):
        _, entries, _, _, _ = _layout(v4_file)
        for offset, _ in entries:
            assert offset % ser._ALIGN == 0
            assert offset % 8 == 0  # int64 views need this even if
            # _ALIGN were ever lowered

    def test_sections_cover_expected_names(self, v4_file):
        header, entries, _, _, _ = _layout(v4_file)
        assert header["section_names"] == [
            "vertices", "offsets", "dist", "count",
            "tree_parents", "tree_blocks", "tree_vertices", "tree_node_of",
        ]
        assert len(entries) == 8

    def test_tl_keeps_tree_in_header(self, tmp_path):
        tl = TLIndex.build(grid_graph(5, 5))
        path = tmp_path / "tl.bin"
        save_index(tl, path, format="binary")
        header, entries, _, _, _ = _layout(path)
        assert header["section_names"] == [
            "vertices", "offsets", "dist", "count",
        ]
        loaded = load_index(path)
        assert loaded.arena == tl.arena

    def test_resave_round_trips_through_older_formats(
        self, tmp_path, v4_file, index
    ):
        loaded = load_index(v4_file)  # mmap-backed views
        for fmt, version in (("binary", 4), ("json", 1)):
            out = tmp_path / f"again-{fmt}.idx"
            save_index(loaded, out, format=fmt)
            again = load_index(out)
            assert again.arena == index.arena, fmt
            assert again.provenance["format_version"] == version
        # v4 -> v4 through mmap-backed views rewrites the same bytes
        assert (tmp_path / "again-binary.idx").read_bytes() == (
            v4_file.read_bytes()
        )


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------
class TestParity:
    def test_mmap_load_is_zero_copy(self, v4_file):
        loaded = load_index(v4_file)
        assert loaded.arena.is_mapped

    def test_heap_load_is_not_mapped(self, v4_file):
        loaded = load_index(v4_file, mmap=False)
        assert not loaded.arena.is_mapped

    def test_mmap_and_heap_bit_identical(self, v4_file, index, pairs):
        mapped = load_index(v4_file)
        heap = load_index(v4_file, mmap=False)
        want = index.query_batch(pairs)
        assert mapped.query_batch(pairs) == want
        assert heap.query_batch(pairs) == want
        for source, target in pairs[:20]:
            assert mapped.query(source, target) == index.query(
                source, target
            )

    def test_describe_matches_full_stats(self, v4_file, index):
        summary = describe_index(v4_file)
        stats = index.stats()
        assert summary["lazy"] is True
        assert summary["format_version"] == 4
        assert summary["type"] == "CTLS"
        assert summary["num_vertices"] == stats.num_vertices
        assert summary["num_edges"] == stats.num_edges
        assert summary["tree_nodes"] == stats.tree_nodes
        assert summary["height"] == stats.height
        assert summary["width"] == stats.width
        assert summary["total_label_entries"] == stats.total_label_entries
        assert summary["size_bytes"] == stats.size_bytes
        assert summary["file_bytes"] == v4_file.stat().st_size


# ----------------------------------------------------------------------
# hardening
# ----------------------------------------------------------------------
class TestHardening:
    def test_overlapping_sections_rejected(self, v4_file):
        _, entries, _, _, _ = _layout(v4_file)
        _rewrite_entry(v4_file, "count", offset=entries[2][0])  # = dist
        with pytest.raises(IndexCorruptError, match="overlap"):
            load_index(v4_file)

    def test_out_of_bounds_section_rejected(self, v4_file):
        huge = v4_file.stat().st_size * 2
        _rewrite_entry(v4_file, "dist", offset=huge - huge % ser._ALIGN)
        with pytest.raises(IndexCorruptError, match="bounds|beyond"):
            load_index(v4_file)

    def test_unaligned_section_rejected(self, v4_file):
        _, entries, _, _, _ = _layout(v4_file)
        _rewrite_entry(v4_file, "dist", offset=entries[2][0] + 4)
        with pytest.raises(IndexCorruptError, match="align"):
            load_index(v4_file)

    def test_hostile_tables_also_fail_verify(self, v4_file):
        _, entries, _, _, _ = _layout(v4_file)
        _rewrite_entry(v4_file, "count", offset=entries[2][0])
        report = verify_index_file(v4_file)
        assert any(not ok for _, ok, _ in report)

    def test_section_bitflip_caught_by_verify(self, v4_file):
        _, entries, _, _, _ = _layout(v4_file)
        offset, nbytes = entries[2]  # dist
        data = bytearray(v4_file.read_bytes())
        data[offset + nbytes // 2] ^= 0xFF
        v4_file.write_bytes(bytes(data))
        # the default mmap open trusts section payloads (header CRC +
        # layout checks only) ...
        load_index(v4_file)
        # ... but both explicit verification paths must catch the flip
        with pytest.raises(IndexCorruptError, match="checksum"):
            load_index(v4_file, verify=True)
        report = {name: ok for name, ok, _ in verify_index_file(v4_file)}
        assert report["dist"] is False
        assert report["vertices"] is True

    def test_heap_load_always_checksums(self, v4_file):
        _, entries, _, _, _ = _layout(v4_file)
        offset, _ = entries[3]  # count
        data = bytearray(v4_file.read_bytes())
        data[offset] ^= 0x01
        v4_file.write_bytes(bytes(data))
        with pytest.raises(IndexCorruptError, match="checksum"):
            load_index(v4_file, mmap=False)

    def test_padding_bitflip_caught_by_verify(self, v4_file):
        _, entries, _, data_start, _ = _layout(v4_file)
        first = min(offset for offset, _ in entries)
        assert first > data_start, "fixture needs real padding"
        data = bytearray(v4_file.read_bytes())
        data[first - 1] ^= 0xFF
        v4_file.write_bytes(bytes(data))
        report = {name: ok for name, ok, _ in verify_index_file(v4_file)}
        assert report["padding"] is False
        # both verifying loads refuse it too — no byte escapes a check
        with pytest.raises(IndexCorruptError, match="padding"):
            load_index(v4_file, verify=True)
        with pytest.raises(IndexCorruptError, match="padding"):
            load_index(v4_file, mmap=False)

    def test_truncated_file_rejected(self, v4_file):
        data = v4_file.read_bytes()
        v4_file.write_bytes(data[: len(data) // 2])
        with pytest.raises(SerializationError):
            load_index(v4_file)

    def test_header_bitflip_rejected_on_plain_load(self, v4_file):
        data = bytearray(v4_file.read_bytes())
        data[20] ^= 0xFF  # somewhere inside the JSON header blob
        v4_file.write_bytes(bytes(data))
        with pytest.raises(SerializationError):
            load_index(v4_file)

    @pytest.mark.parametrize("section", [
        "vertices", "offsets", "tree_parents", "tree_blocks",
        "tree_vertices",
    ])
    def test_small_section_flip_caught_on_default_open(
        self, v4_file, section
    ):
        # The O(n) sections are checksummed on every open, so a flip
        # there can never surface as a raw KeyError/ValueError from the
        # arena or tree rebuild, nor load as a silently wrong index.
        header, entries, _, _, _ = _layout(v4_file)
        offset, nbytes = entries[header["section_names"].index(section)]
        pristine = v4_file.read_bytes()
        for at in (offset, offset + nbytes // 2, offset + nbytes - 1):
            data = bytearray(pristine)
            data[at] ^= 0x01
            v4_file.write_bytes(bytes(data))
            with pytest.raises(IndexCorruptError) as excinfo:
                load_index(v4_file)
            assert excinfo.value.section == section, at

    def test_describe_checksums_tree_shape(self, v4_file):
        header, entries, _, _, _ = _layout(v4_file)
        offset, _ = entries[header["section_names"].index("tree_parents")]
        data = bytearray(v4_file.read_bytes())
        data[offset] ^= 0x01
        v4_file.write_bytes(bytes(data))
        with pytest.raises(IndexCorruptError) as excinfo:
            describe_index(v4_file)
        assert excinfo.value.section == "tree_parents"


# ----------------------------------------------------------------------
# crash safety (5x5 grid: small enough for a sweep, real padding)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def grid_index():
    return CTLSIndex.build(grid_graph(5, 5))


@pytest.fixture
def grid_file(grid_index, tmp_path):
    path = tmp_path / "grid.bin"
    save_index(grid_index, path, format="binary")
    return path


#: Every part of a v4 file a corruption error may name.
PARTS = (
    "header", "vertices", "offsets", "dist", "count", "tree_parents",
    "tree_blocks", "tree_vertices", "tree_node_of", "padding", "footer",
    "file",
)


class TestCrashSafety:
    @pytest.mark.parametrize("opts", [
        pytest.param({"verify": True}, id="verify"),
        pytest.param({"mmap": False}, id="heap"),
    ])
    def test_single_byte_flips_always_detected(self, grid_file, opts):
        # Property-style sweep: flip one byte at ~100 sampled offsets
        # (always including the length field, the end marker and the
        # first and last byte of every section, which the stride alone
        # can step over) — every flip must be rejected, and flips past
        # the magic must surface as a typed IndexCorruptError naming a
        # real part.
        data = grid_file.read_bytes()
        _, entries, _, _, _ = _layout(grid_file)
        step = max(1, len(data) // 97)
        offsets = sorted(
            set(range(0, len(data), step)) | {8, len(data) - 1}
            | {at for offset, nbytes in entries
               for at in (offset, offset + nbytes - 1)}
        )
        for offset in offsets:
            corrupted = bytearray(data)
            corrupted[offset] ^= 0x40
            grid_file.write_bytes(bytes(corrupted))
            with pytest.raises(SerializationError) as excinfo:
                load_index(grid_file, **opts)
            if offset >= 8:  # inside-magic flips fail format sniffing
                assert isinstance(excinfo.value, IndexCorruptError), (
                    f"offset {offset}: expected a typed corruption error"
                )
                assert excinfo.value.section in PARTS, (
                    f"offset {offset}: bad section {excinfo.value.section!r}"
                )

    @pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.95])
    def test_truncation_rejected(self, grid_file, keep):
        data = grid_file.read_bytes()
        grid_file.write_bytes(data[: int(len(data) * keep)])
        with pytest.raises(IndexCorruptError) as excinfo:
            load_index(grid_file)
        assert excinfo.value.path == str(grid_file)
        assert str(grid_file) in str(excinfo.value)

    def test_zero_byte_file_is_typed_error(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(IndexCorruptError) as excinfo:
            load_index(path)
        assert excinfo.value.section == "file"
        assert str(path) in str(excinfo.value)

    def test_truncation_error_reports_sizes(self, grid_file):
        data = grid_file.read_bytes()
        grid_file.write_bytes(data[: len(data) - 1])
        with pytest.raises(IndexCorruptError) as excinfo:
            load_index(grid_file)
        err = excinfo.value
        assert err.expected is not None and err.actual is not None

    def test_interrupted_save_preserves_previous_file(
        self, grid_file, grid_index, monkeypatch
    ):
        before = grid_file.read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(ser.os, "replace", crash)
        with pytest.raises(OSError):
            save_index(grid_index, grid_file, format="binary")
        monkeypatch.undo()
        assert grid_file.read_bytes() == before, "previous index clobbered"
        leftovers = [
            p for p in grid_file.parent.iterdir() if ".tmp-" in p.name
        ]
        assert not leftovers, f"temp files left behind: {leftovers}"
        assert load_index(grid_file).arena == grid_index.arena

    def test_rejected_object_preserves_previous_file(self, grid_file):
        before = grid_file.read_bytes()
        with pytest.raises(SerializationError):
            save_index(object(), grid_file, format="binary")
        assert grid_file.read_bytes() == before

    def test_save_overwrites_atomically(self, grid_file, grid_index):
        # Re-saving over a live file goes through rename, so the target
        # is always either the old complete file or the new one.
        save_index(grid_index, grid_file, format="binary")
        assert load_index(grid_file).arena == grid_index.arena


class TestVerifyReport:
    def test_verify_reports_every_section_ok(self, grid_file):
        header, _, _, _, _ = _layout(grid_file)
        report = verify_index_file(grid_file)
        assert [name for name, _, _ in report] == (
            ["header"] + header["section_names"] + ["padding"]
        )
        assert all(ok for _, ok, _ in report)

    def test_verify_names_the_corrupt_section(self, grid_file):
        header, entries, _, _, _ = _layout(grid_file)
        offset, nbytes = entries[header["section_names"].index("count")]
        data = bytearray(grid_file.read_bytes())
        data[offset + nbytes // 2] ^= 0xFF
        grid_file.write_bytes(bytes(data))
        report = verify_index_file(grid_file)
        assert [name for name, ok, _ in report if not ok] == ["count"]

    def test_verify_handles_structurally_broken_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"RSPCIDX4 definitely not a real index")
        report = verify_index_file(path)
        assert report and not all(ok for _, ok, _ in report)
