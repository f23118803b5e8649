"""A serving process never imports ``multiprocessing``.

Only the parallel CTLS build (:mod:`repro.core.parallel`) runs a
process pool, and :mod:`repro.core` exports it lazily.  So a fresh
interpreter that imports the CLI and the server and opens and queries
an index loads neither ``multiprocessing`` nor
``concurrent.futures.process`` — about 0.75 MB of PSS in every server
process.
"""

from __future__ import annotations

import subprocess
import sys

from repro.core.ctls import CTLSIndex
from repro.core.serialize import save_index
from repro.graph.generators import grid_graph
from tests.serve.supervised import cli_env

#: Imports what ``repro-spc serve`` imports, opens the index at
#: ``argv[1]``, answers one query and prints ``sys.modules``.
_PROBE = """\
import sys

import repro.cli
import repro.serve.server
from repro.core.serialize import load_index

index = load_index(sys.argv[1])
assert tuple(index.query(0, 24)) == (8, 70)
print("\\n".join(sorted(sys.modules)))
"""


def test_serving_imports_leave_multiprocessing_unloaded(tmp_path):
    path = tmp_path / "index.bin"
    save_index(CTLSIndex.build(grid_graph(5, 5)), path, format="binary")
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, str(path)],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    modules = set(probe.stdout.split())
    assert "repro.serve.server" in modules
    assert "multiprocessing" not in modules
    assert "concurrent.futures.process" not in modules
    assert "repro.core.parallel" not in modules


def test_build_ctls_parallel_is_still_exported():
    import repro.core
    from repro.core.parallel import build_ctls_parallel

    assert repro.core.build_ctls_parallel is build_ctls_parallel
    assert "build_ctls_parallel" in repro.core.__all__
