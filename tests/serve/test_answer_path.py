"""The one answer path: :func:`scan_answers` and one write per tick.

A query is answered in one step — cache, then one ``query_batch`` of
the request's misses run on the event loop through
:func:`repro.serve.server.scan_answers`, then encode — by the server
alone and by the same server as the supervised child of
``serve --workers N``, and a connection writes every answer that
became ready in one loop tick in one socket write.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.baselines.tl import TLIndex
from repro.core.serialize import save_index
from repro.exceptions import IndexQueryError
from repro.faults import FaultPlan, FaultyIndex
from repro.graph.generators import road_network
from repro.obs import Recorder
from repro.serve import ServeConfig, SPCServer
from repro.serve import frontend
from repro.serve.fleet import Supervised
from repro.serve.http import parse_request
from repro.serve.runner import ServerThread
from repro.serve.server import scan_answers
from repro.types import QueryResult


class FakeIndex:
    """Counts batch calls; vertex ids < 0 are 'unindexed', and a pair
    with source 13 crashes the scan (not a ReproError)."""

    def __init__(self):
        self.batch_calls = []

    def query(self, source, target):
        if source < 0 or target < 0:
            raise IndexQueryError(f"vertex {min(source, target)}")
        if source == 13:
            raise RuntimeError("corrupt read")
        return QueryResult(source + target, 1)

    def query_batch(self, pairs):
        self.batch_calls.append(list(pairs))
        return [self.query(source, target) for source, target in pairs]


@pytest.fixture(scope="module")
def graph():
    return road_network(220, seed=11)


@pytest.fixture(scope="module")
def index(graph):
    return TLIndex.build(graph)


def _get_head(source, target, rid="rid-1"):
    return (
        f"GET /query?source={source}&target={target} HTTP/1.1\r\n"
        f"Host: x\r\nX-Request-Id: {rid}\r\n\r\n"
    ).encode()


def _post_request(body: bytes, rid="rid-2"):
    head = (
        f"POST /query HTTP/1.1\r\nHost: x\r\nX-Request-Id: {rid}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()

    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(body)
        reader.feed_eof()
        return await parse_request(head, reader)

    return asyncio.run(parse())


# ----------------------------------------------------------------------
# the shared scan
# ----------------------------------------------------------------------
def test_bad_pair_fails_only_its_answer():
    index = FakeIndex()
    results = scan_answers(index, [(1, 2), (-7, 2), (3, 4)])
    assert results[0] == QueryResult(3, 1)
    assert isinstance(results[1], IndexQueryError)
    assert results[2] == QueryResult(7, 1)


def test_scan_crash_fails_only_its_own_answer():
    recorder = Recorder()
    results = scan_answers(FakeIndex(), [(1, 2), (13, 2), (3, 4)], recorder)
    assert results[0] == QueryResult(3, 1)
    assert isinstance(results[1], RuntimeError)
    assert results[2] == QueryResult(7, 1)
    counters = recorder.metrics_snapshot()["counters"]
    assert counters["serve.batch.isolated"] == 1
    assert counters["serve.batch.retry_ok"] == 2
    assert counters["serve.batch.retry_failed"] == 1


def test_scan_fault_isolates_and_answers():
    # The injected fault fails the batch call once; the per-pair retry
    # answers every pair.
    inner, recorder = FakeIndex(), Recorder()
    faulty = FaultyIndex(inner, FaultPlan.parse("scan.fail:1.0x1"))
    pairs = [(i, i + 1) for i in range(5)]
    assert scan_answers(faulty, pairs, recorder) == [
        QueryResult(2 * i + 1, 1) for i in range(5)
    ]
    counters = recorder.metrics_snapshot()["counters"]
    assert counters["serve.batch.isolated"] == 1
    assert counters["serve.batch.retry_ok"] == 5
    assert inner.batch_calls == []  # the fault fired before the scan


def test_post_batch_misses_scan_in_one_call():
    index = FakeIndex()
    spc = SPCServer(index, ServeConfig(port=0))
    spc._dispatch(_post_request(b'{"pairs": [[1, 2]]}'))
    status, payload, _ = spc._dispatch(
        _post_request(b'{"pairs": [[5, 6], [1, 2], [-1, 3], [13, 4]]}')
    )
    # the cached (1, 2) is not scanned again; the other three misses
    # are one query_batch call, and each failure stays in its slot
    assert index.batch_calls == [[(1, 2)], [(5, 6), (-1, 3), (13, 4)]]
    assert status == 500
    results = payload["results"]
    assert results[0]["distance"] == 11 and results[1]["distance"] == 3
    assert results[2] == {"error": "vertex -1"}
    assert results[3]["error"] == "scan failed"


def test_primary_answer_is_a_ready_tuple(index):
    spc = SPCServer(index, ServeConfig(port=0))
    answer, keep_alive = spc._fast_query(_get_head(0, 5))
    assert type(answer) is tuple and keep_alive is True
    status, payload, extra = answer
    assert status == 200 and type(payload) is bytes
    assert extra == (("X-Request-Id", "rid-1"),)


# ----------------------------------------------------------------------
# the server alone and under the supervisor
# ----------------------------------------------------------------------
def _bodies(host, port):
    """Response bodies of a miss, its symmetric hit and a POST batch."""
    from tests.serve.supervised import request

    out = []
    for method, path, payload in (
        ("GET", "/query?source=3&target=150", None),
        ("GET", "/query?source=150&target=3", None),
        ("POST", "/query", {"pairs": [[3, 150], [7, 90], [90, 7]]}),
    ):
        status, _, body = request(host, port, method, path, payload)
        out.append((status, body))
    return out


def test_server_and_router_give_identical_bodies(index, tmp_path):
    # `serve` and `serve --workers 2` answer a miss, a hit and a batch
    # with the same bytes: the supervised child is the same server.
    from tests.serve.supervised import Served

    path = tmp_path / "index.bin"
    save_index(index, path, format="binary")
    with Served([path], tmp_path / "one.log") as alone:
        expected = _bodies(*alone.address)
    with Served([path, "--workers", "2"], tmp_path / "two.log") as fleet:
        assert _bodies(*fleet.address) == expected
    assert [status for status, _ in expected] == [200, 200, 200]


def _count_writes(monkeypatch):
    writes = []
    write = frontend._Connection.write

    def counting_write(conn, chunks):
        writes.append(len(chunks))
        return write(conn, chunks)

    monkeypatch.setattr(frontend._Connection, "write", counting_write)
    return writes


def _pipeline(host, port, pairs):
    """Send every GET in one segment; return the response bytes."""
    data = b"".join(_get_head(s, t, f"p{i}") for i, (s, t) in enumerate(pairs))
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(data)
        received = b""
        while received.count(b"HTTP/1.1 200 ") < len(pairs):
            chunk = sock.recv(65536)
            assert chunk, received
            received += chunk
    return received


PIPELINED = [(3, 150), (7, 90), (3, 150), (11, 12), (40, 80), (0, 1)]


def test_pipelined_gets_leave_in_one_write_on_the_server(index, monkeypatch):
    writes = _count_writes(monkeypatch)
    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        _pipeline(host, port, PIPELINED)
    assert writes == [len(PIPELINED)]


def test_pipelined_gets_leave_in_one_write_on_the_router(index, monkeypatch):
    # The supervised child's configuration: the server accepts on a
    # socket its supervisor bound, and writes a window in one call.
    listener = socket.create_server(("127.0.0.1", 0))
    channel, child_end = socket.socketpair()
    writes = _count_writes(monkeypatch)
    thread = ServerThread(
        index, ServeConfig(port=0),
        supervised=Supervised(listener, 0, child_end),
    )
    try:
        with thread as (host, port):
            assert port == listener.getsockname()[1]
            _pipeline(host, port, PIPELINED)
    finally:
        listener.close()
        channel.close()
        child_end.close()
    assert writes == [len(PIPELINED)]


def test_drain_delivers_answers_computed_but_not_written(index):
    # With no grace at all, the drain still writes every answer the
    # server has computed before it closes the connection.
    started = threading.Event()

    class Slow:
        def __init__(self, inner):
            self.inner = inner

        def query_batch(self, pairs):
            started.set()
            time.sleep(0.05)
            return self.inner.query_batch(pairs)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    thread = ServerThread(
        Slow(index), ServeConfig(port=0, cache_size=0, drain_grace_s=0.0)
    )
    host, port = thread.start()
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(b"".join(_get_head(s, t) for s, t in PIPELINED[:3]))
        assert started.wait(5.0)
        thread.stop()
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    assert received.count(b"HTTP/1.1 200 ") == 3
