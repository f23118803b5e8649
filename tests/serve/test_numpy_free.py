"""A server that answers GETs never imports numpy.

numpy costs a serving process about 14 MB of PSS, and a one-pair scan
never needs it: the v4 open derives the cut tree's query arrays in
plain Python, and :meth:`LabelArena.scan_batch` imports numpy only for
a batch of ``_MIN_VECTOR_BATCH`` pairs or more.  These tests drive the
real ``repro-spc serve`` command and look inside the answering process:

* its ``sys.modules``, through a launcher that writes them to a file on
  ``SIGUSR1`` (``serve`` and ``serve --live-updates``);
* the supervised child's ``/proc/<pid>/maps`` (``serve --workers 2``),
  where an imported numpy shows as its mapped extension modules.

Then one POST batch of ``_MIN_VECTOR_BATCH`` pairs takes the vector
kernel, and its answers must equal the per-pair GETs bit for bit.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from pathlib import Path

import pytest

from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.core.serialize import save_index
from repro.graph.generators import road_network
from repro.graph.io import write_json
from repro.labels.arena import _MIN_VECTOR_BATCH
from repro.live import synthesize_deltas
from repro.search.pairwise import spc_query
from repro.types import INF
from tests.serve.supervised import Served

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/maps"
)

#: ``serve`` with a ``SIGUSR1`` handler that writes the process's
#: ``sys.modules`` (one name a line) to the path in ``argv[1]``.
_REPORTING_LAUNCHER = """\
import os
import signal
import sys

report = sys.argv.pop(1)


def _write_modules(signum, frame):
    with open(report + ".tmp", "w") as out:
        out.write("\\n".join(sorted(sys.modules)))
    os.replace(report + ".tmp", report)


signal.signal(signal.SIGUSR1, _write_modules)

if __name__ == "__main__":
    from repro.cli import main
    sys.exit(main(sys.argv[1:]))
"""


@pytest.fixture(scope="module")
def graph():
    return road_network(300, seed=3)


@pytest.fixture(scope="module")
def pairs(graph):
    """``_MIN_VECTOR_BATCH`` pairs of distinct vertices: every one is
    scanned (a same-vertex pair is answered without a scan)."""
    vertices = sorted(graph.vertices())
    half = len(vertices) // 2
    return [
        (vertices[i], vertices[half + 7 * i])
        for i in range(_MIN_VECTOR_BATCH)
    ]


def _launcher(tmp_path):
    script = tmp_path / "reporting_serve.py"
    script.write_text(_REPORTING_LAUNCHER)
    report = tmp_path / "modules.txt"
    return [str(script), str(report)], report


def _modules(server: Served, report: Path) -> set:
    """The server process's ``sys.modules`` names, right now."""
    report.unlink(missing_ok=True)
    os.kill(server.process.pid, signal.SIGUSR1)
    deadline = time.time() + 30
    while not report.exists():
        assert time.time() < deadline, f"no module report:\n{server.log}"
        time.sleep(0.05)
    return set(report.read_text().split())


def _numpy_mapped(pid: int) -> bool:
    return "numpy" in Path(f"/proc/{pid}/maps").read_text()


def _get_answers(server: Served, pairs):
    return [
        server.json("GET", f"/query?source={s}&target={t}") for s, t in pairs
    ]


def _post_answers(server: Served, pairs):
    body = server.json("POST", "/query", {"pairs": [list(p) for p in pairs]})
    return body["results"]


def test_ctls_server_answers_gets_without_numpy(graph, pairs, tmp_path):
    path = tmp_path / "ctls.bin"
    index = CTLSIndex.build(graph)
    save_index(index, path, format="binary")
    launcher, report = _launcher(tmp_path)
    with Served([path, "--cache-size", "0"], tmp_path / "serve.log",
                launcher=launcher) as server:
        gets = _get_answers(server, pairs)
        assert "numpy" not in _modules(server, report)
        assert _post_answers(server, pairs) == gets
        # The batch took the vector kernel, which loaded numpy.
        assert "numpy" in _modules(server, report)
    assert [(a["distance"], a["count"]) for a in gets] == [
        tuple(index.query(s, t)) for s, t in pairs
    ]


def test_live_ctl_server_repairs_without_numpy(graph, pairs, tmp_path):
    path = tmp_path / "ctl.bin"
    graph_path = tmp_path / "graph.json"
    save_index(CTLIndex.build(graph), path, format="binary")
    write_json(graph, graph_path)
    batch = synthesize_deltas(graph, batches=1, edges_per_batch=4, seed=8)[0]
    launcher, report = _launcher(tmp_path)
    args = [path, "--cache-size", "0", "--live-updates",
            "--graph", graph_path, "--wal-dir", tmp_path / "wal"]
    with Served(args, tmp_path / "serve.log", launcher=launcher) as server:
        _get_answers(server, pairs)
        ack = server.json(
            "POST", "/admin/update",
            {"updates": [list(u) for u in batch.updates]},
        )
        assert ack["seqno"] == 1, ack
        gets = _get_answers(server, pairs)
        modules = _modules(server, report)
        assert "numpy" not in modules
        assert "repro.core.dynamic" in modules  # the repair ran here
        assert _post_answers(server, pairs) == gets
    mirror = graph.copy()
    for a, b, weight in batch.updates:
        mirror.add_edge(a, b, weight, mirror.count(a, b))
    for answer, (s, t) in zip(gets, pairs):
        want = spc_query(mirror, s, t)
        assert (answer["distance"], answer["count"]) == (
            None if want.distance == INF else want.distance, want.count,
        )


def test_supervised_child_never_maps_numpy(graph, pairs, tmp_path):
    path = tmp_path / "ctls.bin"
    save_index(CTLSIndex.build(graph), path, format="binary")
    with Served([path, "--workers", "2", "--cache-size", "0"],
                tmp_path / "serve.log") as server:
        gets = _get_answers(server, pairs)
        child = server.child_pid()
        assert not _numpy_mapped(child)
        assert not _numpy_mapped(server.process.pid)
        assert _post_answers(server, pairs) == gets
        assert _numpy_mapped(child)
