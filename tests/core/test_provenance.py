"""Index provenance: loaders stamp where an index came from.

Every load path (JSON v1, binary v4) must attach a ``provenance``
dict to the returned index, and both round-trip the ``build_info``
block ``save_index`` embeds, which is how ``repro-spc stats`` and the
server's ``/stats`` endpoint answer "how was the index serving right
now built?".
"""

import pytest

from repro.core.ctls import CTLSIndex
from repro.core.serialize import load_index, save_index
from repro.graph.generators import grid_graph


@pytest.fixture(scope="module")
def index():
    return CTLSIndex.build(grid_graph(6, 6))


BUILD_INFO = {
    "algorithm": "ctls",
    "git_sha": "abc123",
    "build_seconds": 1.25,
    "label_entries": 999,
}


def test_v1_provenance_and_build_info(tmp_path, index):
    path = tmp_path / "idx.json"
    save_index(index, path, build_info=BUILD_INFO)
    loaded = load_index(path)
    prov = loaded.provenance
    assert prov["format_version"] == 1
    assert prov["path"] == str(path)
    assert prov["build_info"]["git_sha"] == "abc123"


def test_v4_provenance_with_sections_and_build_info(tmp_path, index):
    path = tmp_path / "idx.bin"
    save_index(index, path, format="binary", build_info=BUILD_INFO)
    loaded = load_index(path)
    prov = loaded.provenance
    assert prov["format_version"] == 4
    assert prov["build_info"]["label_entries"] == 999
    sections = prov["sections"]
    assert sections, "v4 provenance must carry section byte sizes"
    for name, size in sections.items():
        assert size > 0, name


def test_v4_provenance_without_build_info(tmp_path, index):
    path = tmp_path / "idx.bin"
    save_index(index, path, format="binary")
    prov = load_index(path).provenance
    assert prov["format_version"] == 4
    assert prov.get("build_info") is None


def test_saved_payload_unaffected_by_provenance(tmp_path, index):
    # provenance is attached to the loaded object, never serialized
    # back: save -> load -> save must be byte-stable.
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    save_index(index, first, format="binary", build_info=BUILD_INFO)
    loaded = load_index(first)
    save_index(loaded, second, format="binary", build_info=BUILD_INFO)
    assert load_index(second).arena == index.arena
