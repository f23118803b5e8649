"""End-to-end server tests: a live SPCServer behind ServerThread.

Every test starts a real server on an ephemeral port and talks real
HTTP to it — through the load-generator client for bulk correctness,
and through raw asyncio connections for the protocol corners (POST
bodies, error statuses, shedding, deadlines, metrics).
"""

import asyncio
import json
import random
import threading
import time

import pytest

from repro.baselines.tl import TLIndex
from repro.faults import FaultPlan
from repro.graph.generators import road_network
from repro.serve import ServeConfig, SPCServer, ServerThread, replay
from repro.serve.http import read_response
from repro.serve.server import encode_result, encode_result_bytes
from repro.types import INF, QueryResult


@pytest.fixture(scope="module")
def graph():
    return road_network(220, seed=11)


@pytest.fixture(scope="module")
def index(graph):
    return TLIndex.build(graph)


@pytest.fixture(scope="module")
def workload(graph):
    vertices = list(graph.vertices())
    rng = random.Random(23)
    return [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(300)
    ]


class SlowIndex:
    """Delays every scan; for shedding, deadline and drain tests.
    ``scanning`` is set once a scan has started."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s
        self.scanning = threading.Event()

    def query(self, source, target):
        self.scanning.set()
        time.sleep(self._delay_s)
        return self._inner.query(source, target)

    def query_batch(self, pairs):
        self.scanning.set()
        time.sleep(self._delay_s)
        return self._inner.query_batch(pairs)


def _broken_with_fallback(index, fallback, **config):
    """A server whose index fails every scan and whose breaker is
    already open (tripped by one request), so every further query goes
    to ``fallback``."""
    thread = ServerThread(
        index,
        ServeConfig(
            port=0, cache_size=0, breaker_threshold=1,
            breaker_cooldown_s=3600.0, **config,
        ),
        fault_plan=FaultPlan.parse("scan.fail:1.0"),
        fallback=fallback,
    )
    host, port = thread.start()
    status, _, _ = _get(host, port, "/query?source=0&target=1")
    assert status == 500 and thread.server.breaker.open
    return thread, host, port


def _request(host, port, raw: bytes):
    """One raw HTTP exchange; returns ``(status, headers, payload)``."""

    async def scenario():
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw)
        await writer.drain()
        response = await read_response(reader)
        writer.close()
        return response

    return asyncio.run(scenario())


def _get(host, port, path):
    return _request(
        host, port, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
    )


def _post(host, port, path, payload):
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    return _request(host, port, head + body)


@pytest.mark.parametrize("cache_size", [4096, 0], ids=["on", "off"])
def test_served_answers_match_index(index, workload, cache_size):
    config = ServeConfig(port=0, cache_size=cache_size)
    with ServerThread(index, config) as (host, port):
        report = replay(
            host, port, workload, concurrency=6, pipeline=3,
            collect_results=True,
        )
    assert report.ok == len(workload)
    for source, target, status, distance, count in report.results:
        assert status == 200
        expected = index.query(source, target)
        wire = None if expected.distance == INF else expected.distance
        assert (distance, count) == (wire, expected.count)


def test_fast_and_slow_parse_paths_agree(index, workload):
    source, target = workload[0]
    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        # param order 'source=..&target=..' takes the byte-level fast
        # path; the reversed order falls back to the full parser.
        _, _, fast = _get(
            host, port, f"/query?source={source}&target={target}"
        )
        _, _, slow = _get(
            host, port, f"/query?target={target}&source={source}"
        )
    assert fast == slow


def test_post_single_and_batch(index, workload):
    (s1, t1), (s2, t2) = workload[0], workload[1]
    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        status, _, single = _post(
            host, port, "/query", {"source": s1, "target": t1}
        )
        assert status == 200
        batch_status, _, batch = _post(
            host, port, "/query", {"pairs": [[s1, t1], [s2, t2]]}
        )
        assert batch_status == 200
        empty = _post(host, port, "/query", {"pairs": []})
        assert (empty[0], empty[2]) == (200, {"results": []})
    expected = index.query(s1, t1)
    assert single["distance"] == expected.distance
    assert single["count"] == expected.count
    assert [r["source"] for r in batch["results"]] == [s1, s2]
    assert batch["results"][0] == single


def test_error_statuses(index):
    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        status, _, _ = _get(host, port, "/nope")
        assert status == 404
        status, _, payload = _get(host, port, "/query?source=1")
        assert status == 400 and "error" in payload
        status, _, payload = _get(
            host, port, "/query?source=999999&target=1"
        )
        assert status == 400 and "not indexed" in payload["error"]


def test_health_and_metrics(index, workload):
    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        replay(host, port, workload, concurrency=4, repeats=2)
        status, _, health = _get(host, port, "/health")
        assert status == 200 and health["status"] == "ok"
        status, _, metrics = _get(host, port, "/metrics")
        assert status == 200
    counters = metrics["counters"]
    gauges = metrics["gauges"]
    # the second repeat of the workload is (almost entirely) absorbed
    # by the cache; "almost" because two requests for one pair can
    # overlap in flight and both miss.
    assert counters["serve.cache.hits"] >= 0.8 * len(workload)
    # every request was answered either by a scan (responses.ok) or by
    # the cache (cache.hits)
    assert (
        counters["serve.responses.ok"] + counters["serve.cache.hits"]
        == 2 * len(workload)
    )
    assert "serve.cache.hit_rate" in gauges
    assert "serve.queue.depth" in gauges
    assert "serve.latency_seconds" in metrics["histograms"]


def test_serve_requests_counts_queries_only(index, workload):
    # Probes, metrics reads and explain-free POST batches aside, every
    # /query request moves serve.requests by exactly one.
    pairs = workload[:50]
    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        before = _get(host, port, "/metrics")[2]["counters"]
        _get(host, port, "/health")
        _get(host, port, "/stats")
        replay(host, port, pairs, concurrency=4)
        status, _, _ = _post(
            host, port, "/query", {"pairs": [list(p) for p in pairs[:5]]}
        )
        assert status == 200
        after = _get(host, port, "/metrics")[2]["counters"]
    moved = after["serve.requests"] - before.get("serve.requests", 0)
    assert moved == len(pairs) + 1


def test_cache_hit_short_circuits_scan(index, workload):
    recorder_pairs = workload[:20]
    with ServerThread(index, ServeConfig(port=0)) as thread_addr:
        host, port = thread_addr
        first = replay(host, port, recorder_pairs, concurrency=2)
        second = replay(host, port, recorder_pairs, concurrency=2)
    assert first.ok == second.ok == len(recorder_pairs)


def test_overload_sheds_with_503(index, workload):
    # The fallback is the one path where queries wait: past
    # queue_high_water waiting fallback queries, new ones get 503.
    thread, host, port = _broken_with_fallback(
        index, SlowIndex(index, delay_s=0.02), queue_high_water=2
    )
    try:
        report = replay(host, port, workload[:64], concurrency=8)
        counters = thread.server.recorder.metrics_snapshot()["counters"]
    finally:
        thread.stop()
    assert report.shed > 0, "expected some 503s past the high-water mark"
    assert report.ok > 0, "admitted requests must still be answered"
    assert report.status_counts.get(503, 0) == report.shed
    assert counters["serve.shed"] == report.shed
    assert counters["serve.fallback.ok"] == report.ok


def test_post_batch_over_high_water_sheds_with_503(index, workload):
    config = ServeConfig(port=0, queue_high_water=4)
    with ServerThread(index, config) as (host, port):
        status, headers, payload = _post(
            host, port, "/query", {"pairs": [list(p) for p in workload[:5]]}
        )
        assert status == 503
        assert payload == {
            "error": "overloaded", "queue_depth": 0, "high_water": 4
        }
        assert headers["retry-after"] == "1"
        status, _, payload = _post(
            host, port, "/query", {"pairs": [list(p) for p in workload[:4]]}
        )
        assert status == 200 and len(payload["results"]) == 4


def test_draining_server_sheds_queries_with_503(index):
    server = SPCServer(index, ServeConfig(port=0))
    server._draining = True
    answer, keep_alive = server._fast_query(
        b"GET /query?source=1&target=2 HTTP/1.1\r\nHost: x\r\n\r\n"
    )
    status, payload, extra = answer
    assert (status, payload) == (503, {"error": "draining"})
    assert ("Retry-After", "1") in extra
    assert keep_alive is False
    assert server.recorder.metrics_snapshot()["counters"][
        "serve.shed.draining"
    ] == 1


def test_deadline_returns_504(index, workload):
    # A fallback query still waiting after request_timeout_ms: 504.
    thread, host, port = _broken_with_fallback(
        index, SlowIndex(index, delay_s=0.25), request_timeout_ms=50
    )
    try:
        status, _, payload = _get(
            host, port,
            f"/query?source={workload[0][0]}&target={workload[0][1]}",
        )
        counters = thread.server.recorder.metrics_snapshot()["counters"]
    finally:
        thread.stop()
    assert status == 504
    assert payload["error"] == "deadline exceeded"
    assert counters["serve.timeouts"] == 1


def test_executor_window_members_all_time_out(index, workload):
    # Three pipelined queries wait together on the fallback executor,
    # the one executor left; the deadline answers every one with a 504.
    thread, host, port = _broken_with_fallback(
        index, SlowIndex(index, delay_s=0.25), request_timeout_ms=50
    )
    pairs = workload[:3]
    try:

        async def pipelined():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(
                f"GET /query?source={s}&target={t} HTTP/1.1\r\n"
                "Host: x\r\n\r\n".encode()
                for s, t in pairs
            ))
            await writer.drain()
            responses = [await read_response(reader) for _ in pairs]
            writer.close()
            return responses

        responses = asyncio.run(pipelined())
        counters = thread.server.recorder.metrics_snapshot()["counters"]
    finally:
        thread.stop()
    assert [status for status, _, _ in responses] == [504] * 3
    assert counters["serve.timeouts"] == 3
    assert counters["serve.fallback.queries"] == 3
    assert counters.get("serve.fallback.ok", 0) == 0


def test_explain_reports_scan_timing(index, workload):
    config = ServeConfig(port=0, cache_size=0)
    with ServerThread(index, config) as (host, port):
        source, target = workload[5]
        status, _, payload = _get(
            host, port,
            f"/query?source={source}&target={target}&explain=1",
        )
    assert status == 200
    explain = payload["explain"]
    assert explain["scan_us"] > 0
    assert explain["cache_hit"] is False
    assert "batch_size" not in explain and "queue_wait_us" not in explain


def test_post_vertex_ids_must_be_json_integers():
    from repro.graph.generators import grid_graph

    grid = TLIndex.build(grid_graph(4, 4))
    with ServerThread(grid, ServeConfig(port=0)) as (host, port):
        for body in (
            {"source": 1.9, "target": 5},
            {"source": True, "target": 5},
            {"source": "1", "target": 5},
            {"source": 1, "target": 5.0},
        ):
            status, _, payload = _post(host, port, "/query", body)
            assert status == 400, body
            assert payload == {
                "error": "query body needs integer 'source' and 'target'"
            }
        for pairs in ([[1.9, 5]], [[1, 5], [False, 3]], [["1", 5]]):
            status, _, payload = _post(
                host, port, "/query", {"pairs": pairs}
            )
            assert status == 400, pairs
            assert payload == {"error": "each pair must be [source, target]"}
        status, _, payload = _post(
            host, port, "/query", {"source": 1, "target": 5}
        )
        assert status == 200 and payload["source"] == 1


#: Request heads whose keep-alive decision the fast path must share
#: with the full parser, and the decision itself.
_KEEP_ALIVE_HEADS = [
    ("HTTP/1.1", "", True),
    ("HTTP/1.0", "", False),
    ("HTTP/1.0", "Connection: keep-alive\r\n", True),
    ("HTTP/1.1", "Connection: Close\r\n", False),
    ("HTTP/1.1", "connection:close\r\n", False),
    ("HTTP/1.1", "X-Request-Id: closet-1\r\n", True),
]


@pytest.mark.parametrize(
    "version,header,keep_alive",
    _KEEP_ALIVE_HEADS,
    ids=["1.1", "1.0", "1.0-keep-alive", "Close", "close-bare", "closet"],
)
@pytest.mark.parametrize("order", ["source-first", "target-first"])
def test_keep_alive_same_on_fast_and_full_parser(
    index, workload, version, header, keep_alive, order
):
    source, target = workload[0]
    query = (
        f"source={source}&target={target}"
        if order == "source-first"
        else f"target={target}&source={source}"
    )
    raw = f"GET /query?{query} {version}\r\nHost: x\r\n{header}\r\n"

    async def exchange(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw.encode())
        await writer.drain()
        status, headers, _ = await read_response(reader)
        try:
            closed = await asyncio.wait_for(reader.read(1), 0.3) == b""
        except asyncio.TimeoutError:
            closed = False
        writer.close()
        return status, headers["connection"], closed

    with ServerThread(index, ServeConfig(port=0)) as (host, port):
        status, connection, closed = asyncio.run(exchange(host, port))
    assert status == 200
    assert connection == ("keep-alive" if keep_alive else "close")
    assert closed is not keep_alive


def test_graceful_drain_finishes_inflight(index, workload):
    slow = SlowIndex(index, delay_s=0.05)
    thread = ServerThread(slow, ServeConfig(port=0, cache_size=0))
    host, port = thread.start()

    async def one_query():
        reader, writer = await asyncio.open_connection(host, port)
        source, target = workload[0]
        writer.write(
            f"GET /query?source={source}&target={target} "
            "HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        await writer.drain()
        # wait until the scan has started — stopping earlier would
        # legitimately shed the request with a 503 "draining"
        while not slow.scanning.is_set():
            await asyncio.sleep(0.001)
        # stop the server while the scan is sleeping; its answer is
        # computed but not yet written when the drain starts, and the
        # drain must still deliver it before the loop shuts down
        stopper = asyncio.get_running_loop().run_in_executor(
            None, thread.stop
        )
        status, _, payload = await read_response(reader)
        writer.close()
        await stopper
        return status, payload

    status, payload = asyncio.run(one_query())
    assert status == 200
    expected = index.query(*workload[0])
    assert payload["count"] == expected.count


@pytest.mark.parametrize(
    "result",
    [QueryResult(5, 2), QueryResult(2.5, 7), QueryResult(INF, 0)],
    ids=["int", "float", "disconnected"],
)
def test_encode_result_bytes_matches_json(result):
    fast = encode_result_bytes(4, 9, result)
    slow = json.dumps(
        encode_result(4, 9, result), separators=(",", ":")
    ).encode()
    assert fast == slow
