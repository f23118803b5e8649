"""The benchmark's traced run wraps named entry points of the program.

``perfbench/launch.py`` replaces every entry of its ``TARGETS`` in
place, by name (``owner.__dict__[attr]`` for a class attribute).  A
rename, or a method moved into a base class, breaks every traced run
while the rest of the suite stays green; these tests resolve each
entry exactly as ``install()`` does, without installing anything.
"""

import asyncio
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from repro.graph.generators import grid_graph
from repro.baselines.tl import TLIndex
from repro.serve import ServeConfig, ServerThread, http

LAUNCH = Path(__file__).resolve().parents[2] / "perfbench" / "launch.py"


@pytest.fixture
def launch(monkeypatch):
    """``launch.py`` loaded as a module, with tracing off."""
    monkeypatch.delenv("PERFBENCH_TRACE_DIR", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_as_install_does(launch):
    assert launch.TARGETS
    for module_name, path, _name, importers in launch.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert callable(raw), path
        for importer in importers:
            importlib.import_module(importer)


def test_fast_query_takes_the_raw_head_first(launch):
    # The traced run reads the request id off the head bytes the
    # server's byte-level /query parse receives as its first argument.
    from repro.serve.server import SPCServer

    parameters = list(inspect.signature(SPCServer._fast_query).parameters)
    assert parameters[:2] == ["self", "head"]
    head = b"GET /query?source=1&target=2 HTTP/1.1\r\nX-Request-Id: r-7\r\n\r\n"
    assert launch._rid_from_head((None, head), None) == "r-7"


def test_front_end_parses_and_encodes_through_patched_names(monkeypatch):
    # ``install()`` rebinds ``repro.serve.http.parse_request`` and
    # ``response_bytes``; the connection loop must call those names so
    # the traced http.read_request_us and http.response_bytes_us still
    # measure it.
    calls = {"parse_request": 0, "response_bytes": 0}
    for name in calls:
        real = getattr(http, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(http, name, counted)

    async def post(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        body = json.dumps({"source": 0, "target": 5}).encode()
        writer.write(
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % len(body) + body
        )
        await writer.drain()
        status, _, payload = await http.read_response(reader)
        writer.close()
        return status, payload

    index = TLIndex.build(grid_graph(3, 3))
    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        status, payload = asyncio.run(post(host, port))
    assert status == 200 and payload["count"] == index.query(0, 5).count
    assert calls["parse_request"] >= 1
    assert calls["response_bytes"] >= 1
