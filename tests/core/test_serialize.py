"""Tests for index save/load round trips."""

import json

import pytest

from repro.baselines.tl import TLIndex
from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.core.serialize import (
    describe_index,
    load_index,
    save_index,
    verify_index_file,
)
from repro.exceptions import SerializationError
from repro.graph.generators import grid_graph


@pytest.fixture
def graph():
    return grid_graph(4, 4)


def pairs():
    return [(0, 15), (3, 12), (5, 5), (1, 14), (0, 1)]


@pytest.mark.parametrize(
    "builder",
    [
        lambda g: CTLIndex.build(g),
        lambda g: CTLSIndex.build(g, strategy="cutsearch"),
        lambda g: CTLSIndex.build(g, strategy="basic"),
        lambda g: TLIndex.build(g),
    ],
    ids=["ctl", "ctls-cutsearch", "ctls-basic", "tl"],
)
def test_round_trip(tmp_path, graph, builder):
    index = builder(graph)
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert type(loaded) is type(index)
    for s, t in pairs():
        assert tuple(loaded.query(s, t)) == tuple(index.query(s, t))
    assert loaded.stats().total_label_entries == index.stats().total_label_entries


def test_round_trip_preserves_inf(tmp_path, two_components):
    index = CTLIndex.build(two_components)
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.query(0, 3).count == 0


def test_round_trip_preserves_strategy(tmp_path, graph):
    index = CTLSIndex.build(graph, strategy="pruned")
    path = tmp_path / "index.json"
    save_index(index, path)
    assert load_index(path).strategy == "pruned"


def test_unknown_object_rejected(tmp_path):
    with pytest.raises(SerializationError):
        save_index(object(), tmp_path / "x.json")


def test_bad_format_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(SerializationError):
        load_index(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "repro-spc-index", "version": 99}))
    with pytest.raises(SerializationError):
        load_index(path)


def test_unknown_type_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"format": "repro-spc-index", "version": 1, "type": "XXX"})
    )
    with pytest.raises(SerializationError):
        load_index(path)


def test_big_counts_survive_json(tmp_path):
    g = grid_graph(8, 8)  # counts up to C(14,7) = 3432; json-safe ints
    index = CTLSIndex.build(g)
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.query(0, 63).count == index.query(0, 63).count == 3432


# ----------------------------------------------------------------------
# v4 binary container
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "builder",
    [
        lambda g: CTLIndex.build(g),
        lambda g: CTLSIndex.build(g, strategy="cutsearch"),
        lambda g: TLIndex.build(g),
    ],
    ids=["ctl", "ctls", "tl"],
)
def test_binary_round_trip(tmp_path, graph, builder):
    index = builder(graph)
    path = tmp_path / "index.bin"
    save_index(index, path, format="binary")
    loaded = load_index(path)
    assert type(loaded) is type(index)
    # The arena survives bit-for-bit, so queries scan identical buffers.
    assert loaded.arena == index.arena
    for s, t in pairs():
        assert loaded.query(s, t) == index.query(s, t)
    assert loaded.query_batch(pairs()) == index.query_batch(pairs())


@pytest.mark.parametrize(
    "builder",
    [
        lambda g: CTLIndex.build(g),
        lambda g: CTLSIndex.build(g, strategy="basic"),
        lambda g: TLIndex.build(g),
    ],
    ids=["ctl", "ctls", "tl"],
)
def test_binary_and_json_load_equal_indexes(tmp_path, graph, builder):
    index = builder(graph)
    json_path = tmp_path / "index.json"
    bin_path = tmp_path / "index.bin"
    save_index(index, json_path)
    save_index(index, bin_path, format="binary")
    from_json = load_index(json_path)
    from_binary = load_index(bin_path)
    assert type(from_json) is type(from_binary)
    assert from_json.arena == from_binary.arena
    assert from_json.query_batch(pairs()) == from_binary.query_batch(pairs())
    assert from_json.stats() == from_binary.stats()


def test_binary_preserves_inf(tmp_path, two_components):
    index = CTLIndex.build(two_components)
    path = tmp_path / "index.bin"
    save_index(index, path, format="binary")
    loaded = load_index(path)
    assert loaded.query(0, 3).count == 0
    assert loaded.query(0, 1).count == 1


def test_binary_preserves_overflow_counts(tmp_path):
    # Label counts beyond 64 bits ride in the v4 header, not the raw
    # int64 buffer; they must come back exactly.
    from tests.labels.test_arena import diamond_chain

    g = diamond_chain(140)
    index = CTLSIndex.build(g)
    assert index.arena.overflow_positions  # the test needs the lane hot
    path = tmp_path / "index.bin"
    save_index(index, path, format="binary")
    loaded = load_index(path)
    assert loaded.arena == index.arena
    assert loaded.query(0, 3 * 140).count == 2 ** 140


def test_binary_preserves_float_weights(tmp_path):
    from repro.graph.graph import Graph

    g = Graph()
    g.add_edge(0, 1, 0.5)
    g.add_edge(1, 2, 0.25)
    g.add_edge(0, 2, 0.75)
    index = CTLSIndex.build(g)
    assert index.arena.dist.typecode == "d"
    path = tmp_path / "index.bin"
    save_index(index, path, format="binary")
    loaded = load_index(path)
    assert loaded.arena == index.arena
    assert loaded.query(0, 2) == index.query(0, 2)


def test_binary_round_trip_via_cli_roundabout(tmp_path, graph):
    # Saving a binary-loaded index back to JSON exercises the lazy
    # dict-of-lists rebuild from the arena.
    index = CTLSIndex.build(graph)
    bin_path = tmp_path / "index.bin"
    json_path = tmp_path / "again.json"
    save_index(index, bin_path, format="binary")
    loaded = load_index(bin_path)
    save_index(loaded, json_path)
    again = load_index(json_path)
    assert again.arena == index.arena


def test_unknown_save_format_rejected(tmp_path, graph):
    index = CTLSIndex.build(graph)
    for fmt in ("pickle", "binary-v2", "binary-v3"):
        with pytest.raises(SerializationError, match="unknown format"):
            save_index(index, tmp_path / "x.idx", format=fmt)


def test_binary_unknown_object_rejected(tmp_path):
    with pytest.raises(SerializationError):
        save_index(object(), tmp_path / "x.bin", format="binary")


def test_truncated_binary_rejected(tmp_path, graph):
    index = CTLSIndex.build(graph)
    path = tmp_path / "index.bin"
    save_index(index, path, format="binary")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 64])
    with pytest.raises(SerializationError):
        load_index(path)


def test_corrupt_binary_header_rejected(tmp_path):
    import struct

    # A retired v2 container is refused by its magic alone — the
    # (here undecodable) header behind it is never parsed.
    path = tmp_path / "index.bin"
    path.write_bytes(b"RSPCIDX2" + struct.pack("<Q", 4) + b"\xff\xfe\x00\x01")
    with pytest.raises(SerializationError, match="retired container") as exc:
        load_index(path)
    assert "\n" not in str(exc.value)
    assert "repro-spc build --format binary" in str(exc.value)


@pytest.mark.parametrize("magic", [b"RSPCIDX2", b"RSPCIDX3"])
@pytest.mark.parametrize(
    "reader", [load_index, verify_index_file, describe_index],
    ids=["load", "verify", "describe"],
)
def test_retired_containers_rejected(tmp_path, magic, reader):
    path = tmp_path / "old.bin"
    path.write_bytes(magic + bytes(64))
    with pytest.raises(SerializationError, match="retired container"):
        reader(path)
