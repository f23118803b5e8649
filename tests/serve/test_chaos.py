"""Chaos suite: the real server under an injected :class:`FaultPlan`.

The fault-tolerance contract these tests pin, with double-digit
scan-failure and connection-reset rates injected:

* every 200 the client receives is **bit-identical** to the direct
  index answer — chaos may cost availability, never correctness;
* availability stays above the floor (retries + isolate-and-retry);
* the circuit breaker trips on a genuinely broken index, routes to the
  degraded-mode fallback, and closes itself once the index heals;
* hot reload swaps a validated index atomically and refuses a corrupt
  one;
* graceful drain completes fault-slowed in-flight requests.
"""

import asyncio
import json
import random

import pytest

from repro.baselines.online import OnlineSPC
from repro.baselines.tl import TLIndex
from repro.core.serialize import save_index
from repro.faults import FaultPlan
from repro.graph.generators import road_network
from repro.serve import RetryPolicy, ServeConfig, ServerThread, replay
from repro.serve.http import read_response
from repro.types import INF


@pytest.fixture(scope="module")
def graph():
    return road_network(220, seed=11)


@pytest.fixture(scope="module")
def index(graph):
    return TLIndex.build(graph)


@pytest.fixture(scope="module")
def workload(graph):
    vertices = list(graph.vertices())
    rng = random.Random(29)
    return [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(400)
    ]


def _request(host, port, raw: bytes):
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


def _assert_no_wrong_answers(report, index):
    for source, target, status, distance, count in report.results:
        if status != 200:
            continue
        expected = index.query(source, target)
        wire = None if expected.distance == INF else expected.distance
        assert (distance, count) == (wire, expected.count), (
            f"Q({source}, {target}) answered wrong under chaos"
        )


def test_chaos_replay_correct_and_available(index, workload):
    plan = FaultPlan.parse("scan.fail:0.15,conn.reset:0.1", seed=13)
    thread = ServerThread(
        index,
        ServeConfig(port=0, cache_size=0, breaker_threshold=10),
        fault_plan=plan,
    )
    with thread as (host, port):
        report = replay(
            host, port, workload, concurrency=4,
            collect_results=True,
            retry=RetryPolicy(
                max_attempts=4, base_delay_s=0.001, max_delay_s=0.01,
                seed=3,
            ),
        )
        counters = thread.server.recorder.metrics_snapshot()["counters"]
    # the chaos actually happened
    assert plan.fired("scan.fail") > 10
    assert plan.fired("conn.reset") > 5
    assert report.transport_errors > 0
    assert report.retries > 0
    # ... and the contract held anyway
    _assert_no_wrong_answers(report, index)
    assert report.availability >= 0.9
    # injected scan faults were isolated and retried per-pair
    assert counters.get("serve.batch.isolated", 0) > 0
    assert counters.get("serve.batch.retry_ok", 0) > 0


def test_scan_fault_500s_do_not_kill_batch_mates(index, workload):
    # Without client retries: a fired scan fault may 500 its own
    # request (p^2 after isolation) but never a batch-mate, so the
    # overwhelming majority of a heavily-faulted run still answers.
    plan = FaultPlan.parse("scan.fail:0.25", seed=7)
    thread = ServerThread(
        index,
        ServeConfig(port=0, cache_size=0, breaker_threshold=0),
        fault_plan=plan,
    )
    with thread as (host, port):
        report = replay(
            host, port, workload, concurrency=6, pipeline=2,
            collect_results=True,
        )
    assert plan.fired("scan.fail") > 20
    _assert_no_wrong_answers(report, index)
    # ~6% of requests fail (0.25^2) — far fewer than the 25% fault rate
    assert report.availability >= 0.85
    assert report.status_counts.get(500, 0) > 0


def test_breaker_trips_degrades_and_heals_via_fallback(graph, index):
    # The index fails every scan until 10 fires are spent, then heals.
    plan = FaultPlan.parse("scan.fail:1.0x10", seed=1)
    thread = ServerThread(
        index,
        ServeConfig(
            port=0, cache_size=0,
            breaker_threshold=3, breaker_cooldown_s=0.05,
        ),
        fault_plan=plan,
        fallback=OnlineSPC.build(graph),
    )
    source, target = 0, 1
    expected = index.query(source, target)
    with thread as (host, port):
        # each failing request spends 2 fires (batch + single retry):
        # three requests trip the threshold-3 breaker
        for _ in range(3):
            status, _, _ = _get(
                host, port, f"/query?source={source}&target={target}"
            )
            assert status == 500
        status, _, health = _get(host, port, "/health")
        assert status == 503
        assert health["status"] == "degraded"
        assert health["breaker"]["state"] == "open"
        assert "circuit_open" in health["slo"]["breaches"]
        assert health["fallback"]["active"] is True
        # open breaker + fallback: correct answers via online Dijkstra
        status, _, payload = _post(
            host, port, "/query",
            {"source": source, "target": target, "explain": True},
        )
        assert status == 200
        assert payload["count"] == expected.count
        assert payload["explain"].get("fallback") is True
        # probes burn through the remaining fires; once the plan is
        # exhausted the index heals and a probe closes the breaker
        import time

        deadline = time.perf_counter() + 10.0
        while thread.server.breaker.open:
            assert time.perf_counter() < deadline, (
                "breaker never closed after the index healed"
            )
            _get(host, port, f"/query?source={source}&target={target}")
            time.sleep(0.06)
        status, _, health = _get(host, port, "/health")
        assert status == 200 and health["status"] == "ok"
        counters = thread.server.recorder.metrics_snapshot()["counters"]
        assert counters["serve.fallback.queries"] >= 1
        assert counters["serve.breaker.trips"] == 1


def test_hot_reload_swaps_and_rejects_corrupt(tmp_path, graph, index):
    path_a = tmp_path / "a.bin"
    save_index(index, path_a, format="binary")
    small_graph = road_network(80, seed=3)
    other = TLIndex.build(small_graph)
    path_b = tmp_path / "b.bin"
    save_index(other, path_b, format="binary")
    # a vertex only the big index knows tells us which index answers
    probe = max(graph.vertices())
    thread = ServerThread(
        index, ServeConfig(port=0), index_path=str(path_a)
    )
    with thread as (host, port):
        status, _, _ = _get(host, port, f"/query?source={probe}&target=0")
        assert status == 200
        status, _, _ = _request(
            host, port,
            b"GET /admin/reload HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert status == 405  # reload is POST-only
        status, _, payload = _post(
            host, port, "/admin/reload", {"path": str(path_b)}
        )
        assert status == 200 and payload["reloaded"] is True
        # the swap is visible: the probe vertex is gone, and the
        # result cache was dropped with it
        status, _, payload = _get(
            host, port, f"/query?source={probe}&target=0"
        )
        assert status == 400
        # corrupt file: reload refuses, the server keeps serving B
        data = bytearray(path_b.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path_b.write_bytes(bytes(data))
        status, _, payload = _post(host, port, "/admin/reload", {})
        assert status == 409 and payload["reloaded"] is False
        assert "corrupt" in payload["error"]
        status, _, _ = _get(host, port, "/query?source=0&target=1")
        assert status == 200
        counters = thread.server.recorder.metrics_snapshot()["counters"]
        assert counters["serve.reload.count"] == 1
        assert counters["serve.reload.failed"] == 1


def test_drain_completes_fault_slowed_request(tmp_path, index, workload):
    log_path = tmp_path / "serve.log"
    plan = FaultPlan.parse("scan.slow:1.0@80", seed=0)
    thread = ServerThread(
        index,
        ServeConfig(
            port=0, cache_size=0,
            access_log=str(log_path), request_timeout_ms=5000,
        ),
        fault_plan=plan,
    )
    host, port = thread.start()
    source, target = workload[0]

    async def scenario():
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"GET /query?source={source}&target={target} "
            "HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        await writer.drain()
        # The slow scan runs on the server's loop; it has started once
        # the fault fired.
        while plan.fired("scan.slow") == 0:
            await asyncio.sleep(0.001)
        # SIGTERM-equivalent: stop the server while the fault-injected
        # slow scan is sleeping — the drain must deliver this answer
        stopper = asyncio.get_running_loop().run_in_executor(
            None, thread.stop
        )
        status, _, payload = await read_response(reader)
        writer.close()
        await stopper
        return status, payload

    status, payload = asyncio.run(scenario())
    assert status == 200
    assert payload["count"] == index.query(source, target).count
    assert plan.fired("scan.slow") == 1
    # drained: new connections are refused and the lifecycle drain
    # record made it to the log
    with pytest.raises(OSError):
        asyncio.run(asyncio.open_connection(host, port))
    records = [
        json.loads(line)
        for line in log_path.read_text().splitlines()
    ]
    assert any(
        r.get("event") == "server" and r.get("what") == "drain"
        for r in records
    )


def test_robustness_hooks_are_off_path_when_disabled(index, workload):
    # No plan, no fallback: the answer path carries None hooks
    # and answers match exactly (the fault-free regression guard the
    # serve benchmark quantifies).
    thread = ServerThread(index, ServeConfig(port=0, cache_size=0))
    with thread as (host, port):
        report = replay(
            host, port, workload[:100], concurrency=4,
            collect_results=True,
        )
        stats_status, _, stats = _get(host, port, "/stats")
    assert report.ok == 100
    _assert_no_wrong_answers(report, index)
    assert stats_status == 200
    assert stats["breaker"]["state"] == "closed"
    assert "faults" not in stats
