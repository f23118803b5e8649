"""v4 files and label widths: older wider files open, new files narrow.

``data/grid5x5_ctls_int64.v4`` is the 5×5 grid CTLS index as the v4
writer laid it out before 32-bit label arrays existed: int64 ``dist``
and ``count`` sections and no ``count_typecode`` in the header.
``data/grid5x5_ctls_int32.v4`` is the same index as written before
16-bit label arrays existed: int32 sections.  Both must keep loading
(mapped and on the heap), verifying, describing and answering exactly,
and saving either again must write the uint16 layout a fresh build
writes.
"""

import hashlib
import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.core.ctls import CTLSIndex
from repro.core.serialize import (
    describe_index,
    load_index,
    save_index,
    verify_index_file,
)
from repro.exceptions import SerializationError
from repro.graph.generators import grid_graph

OLD_FILE = Path(__file__).parent / "data" / "grid5x5_ctls_int64.v4"
INT32_FILE = Path(__file__).parent / "data" / "grid5x5_ctls_int32.v4"

#: sha256 of the 5×5 grid CTLS v4 file with int64 label arrays (the
#: committed fixture), with int32 arrays and the ``tree_node_of``
#: section (the other committed fixture), and with the uint16 arrays
#: written today.
OLD_SHA256 = "f69df52d45bf9e7af00a3dc1eb46996bebc3e4cdd73beca1307db0502fea2d84"
INT32_SHA256 = (
    "0c27ac8cd4fad9257aab724a8253fe4fb991abeb53de8e9142c3e2494cb8f87d"
)
NEW_SHA256 = "8ca19918a5a256812f42c21fb45f210f0be9ffaa55f035ea80284cb17df19224"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _header(path) -> dict:
    raw = Path(path).read_bytes()
    (length,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16:16 + length])


def _widths(index):
    return index.arena.dist_typecode, index.arena.count_typecode


@pytest.fixture(scope="module")
def fresh():
    return CTLSIndex.build(grid_graph(5, 5))


@pytest.fixture(scope="module")
def pairs():
    return [(s, t) for s in range(25) for t in range(25)]


def _answers(index, pairs):
    """Each answer with its types, from ``query_batch`` then ``query``."""
    results = list(index.query_batch(pairs))
    results += [index.query(s, t) for s, t in pairs]
    return [(type(d), d, type(c), c) for d, c in results]


class TestOldInt64File:
    def test_fixture_has_the_old_header_shape(self):
        assert _sha256(OLD_FILE) == OLD_SHA256
        arena = _header(OLD_FILE)["arena"]
        assert arena["dist_typecode"] == "q"
        assert "count_typecode" not in arena

    @pytest.mark.parametrize(
        "options", [{}, {"mmap": False}, {"verify": True}],
        ids=["mmap", "heap", "verify"],
    )
    def test_loads_and_answers_bit_identically(self, options, fresh, pairs):
        old = load_index(OLD_FILE, **options)
        assert _widths(old) == ("q", "q")
        assert _widths(fresh) == ("H", "H")
        assert old.arena.is_mapped == options.get("mmap", True)
        assert old.provenance["count_typecode"] == "q"
        assert _answers(old, pairs) == _answers(fresh, pairs)

    def test_verifies_clean(self):
        report = verify_index_file(OLD_FILE)
        assert report and all(ok for _, ok, _ in report), report

    def test_describes_as_int64(self, tmp_path, fresh):
        old = describe_index(OLD_FILE)
        assert (old["dist_typecode"], old["count_typecode"]) == ("q", "q")
        path = tmp_path / "new.bin"
        save_index(fresh, path, format="binary")
        new = describe_index(path)
        assert (new["dist_typecode"], new["count_typecode"]) == ("H", "H")
        for key in ("type", "num_vertices", "num_edges", "tree_nodes",
                    "height", "width", "total_label_entries", "size_bytes"):
            assert old[key] == new[key], key

    def test_saving_again_narrows(self, tmp_path, fresh):
        path = tmp_path / "again.bin"
        save_index(load_index(OLD_FILE), path, format="binary")
        assert _widths(load_index(path)) == ("H", "H")
        assert _sha256(path) == NEW_SHA256
        built = tmp_path / "built.bin"
        save_index(fresh, built, format="binary")
        assert _sha256(built) == NEW_SHA256
        sections = _header(path)["sections"]
        assert sections["dist"] == sections["count"] == 2 * 215


class TestOldInt32File:
    def test_fixture_has_the_int32_layout(self):
        assert _sha256(INT32_FILE) == INT32_SHA256
        arena = _header(INT32_FILE)["arena"]
        assert (arena["dist_typecode"], arena["count_typecode"]) == (
            "i", "i",
        )

    @pytest.mark.parametrize(
        "options", [{}, {"mmap": False}, {"verify": True}],
        ids=["mmap", "heap", "verify"],
    )
    def test_loads_and_answers_bit_identically(self, options, fresh, pairs):
        old = load_index(INT32_FILE, **options)
        assert _widths(old) == ("i", "i")
        assert old.arena.is_mapped == options.get("mmap", True)
        assert old.provenance["dist_typecode"] == "i"
        assert _answers(old, pairs) == _answers(fresh, pairs)

    def test_verifies_clean(self):
        report = verify_index_file(INT32_FILE)
        assert report and all(ok for _, ok, _ in report), report

    def test_describes_as_int32(self, tmp_path, fresh):
        old = describe_index(INT32_FILE)
        assert (old["dist_typecode"], old["count_typecode"]) == ("i", "i")
        path = tmp_path / "new.bin"
        save_index(fresh, path, format="binary")
        new = describe_index(path)
        for key in ("type", "num_vertices", "num_edges", "tree_nodes",
                    "height", "width", "total_label_entries", "size_bytes"):
            assert old[key] == new[key], key

    def test_saving_again_narrows_to_uint16(self, tmp_path, fresh):
        old = load_index(INT32_FILE)
        assert old.arena.narrowed() is not old.arena
        path = tmp_path / "again.bin"
        save_index(old, path, format="binary")
        again = load_index(path)
        assert _widths(again) == ("H", "H")
        assert again.arena.narrowed() is again.arena
        assert again.arena == fresh.arena
        assert _sha256(path) == NEW_SHA256


class TestDenseNodeSection:
    """A file written today maps each dense id's tree node
    (``tree_node_of``); a file written before that section existed (the
    fixture) opens by looking the nodes up in the tree's vertex map."""

    def test_old_file_derives_the_dense_nodes(self, fresh, pairs):
        assert "tree_node_of" not in _header(OLD_FILE)["section_names"]
        for options in ({}, {"mmap": False}):
            old = load_index(OLD_FILE, **options)
            assert old.node_of_dense == fresh.node_of_dense
            assert old.tree._node_of_vertex is not None
            assert _answers(old, pairs) == _answers(fresh, pairs)

    def test_new_file_maps_them(self, tmp_path, fresh, pairs):
        path = tmp_path / "new.bin"
        save_index(fresh, path, format="binary")
        header = _header(path)
        assert header["section_names"][-1] == "tree_node_of"
        assert header["sections"]["tree_node_of"] == 4 * 25
        for options in ({}, {"mmap": False}):
            new = load_index(path, **options)
            assert new.node_of_dense == fresh.node_of_dense
            assert new.tree._node_of_vertex is None
            assert new.tree._nodes is None
            assert _answers(new, pairs) == _answers(fresh, pairs)


class TestDescribeWidths:
    def test_json_document_reports_the_loaded_widths(self, tmp_path, fresh):
        path = tmp_path / "index.json"
        save_index(fresh, path)
        summary = describe_index(path)
        assert (summary["dist_typecode"], summary["count_typecode"]) == (
            "H", "H",
        )
        assert load_index(path).provenance["dist_typecode"] == "H"


class TestUnknownWidth:
    def test_unknown_count_typecode_is_refused(self, tmp_path, fresh):
        path = tmp_path / "index.bin"
        save_index(fresh, path, format="binary")
        data = bytearray(path.read_bytes())
        (length,) = struct.unpack_from("<Q", data, 8)
        forged = data[16:16 + length].replace(
            b'"count_typecode": "H"', b'"count_typecode": "d"'
        )
        assert len(forged) == length
        data[16:16 + length] = forged
        # Re-sign the header CRC, so only the typecode check can object.
        sections = len(_header(path)["section_names"])
        table_end = 16 + length + 16 * sections
        footer = len(data) - (4 * (sections + 1) + 12 + 8)
        struct.pack_into("<I", data, footer, zlib.crc32(data[:table_end]))
        path.write_bytes(bytes(data))
        for open_it in (load_index, describe_index):
            with pytest.raises(SerializationError, match="count typecode"):
                open_it(path)
        [(section, ok, detail)] = verify_index_file(path)
        assert (section, ok) == ("header", False)
        assert "count typecode 'd'" in detail
