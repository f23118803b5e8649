"""The ``serve --workers N`` fleet: routing, aggregation, chaos, reload.

The router's contract mirrors the single server's, scaled out:

* every answer a client receives is **bit-identical** to the direct
  index answer, whichever worker answered it and however a ``pairs``
  batch was split into chunks;
* symmetric keys — ``Q(s, t)`` and ``Q(t, s)`` — share one slot of the
  router's result cache;
* the router cache stays exact across commits: an update drops every
  pair it may have changed, a reload empties it, and no answer whose
  request was in flight across a commit is ever cached;
* ``/metrics`` and ``/health`` aggregate the whole fleet;
* the chaos bar set for the single server (double-digit scan-failure
  and connection-reset rates) holds against the fleet;
* ``/admin/reload`` is two-phase: all workers swap or none do, with
  the old index serving throughout.

Worker processes start via the multiprocessing ``spawn`` context, so
each test fleet costs a couple of seconds — the fleets are shared
module-wide where the tests allow it.
"""

import asyncio
import http.client
import json
import os
import random
import signal
import socket
import threading
import time

import pytest

from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.core.serialize import save_index
from repro.graph.generators import road_network
from repro.graph.io import write_json
from repro.live import synthesize_deltas
from repro.search.pairwise import spc_query
from repro.serve import (
    FleetThread,
    RetryPolicy,
    ServeConfig,
    merge_metrics_snapshots,
    replay,
)
from repro.serve.fleet import FleetRouter, _Worker
from repro.serve.frontend import _PIPELINE_DEPTH
from repro.serve.http import response_bytes
from repro.serve.server import encode_result_bytes
from repro.types import INF, QueryResult


@pytest.fixture(scope="module")
def graph():
    return road_network(200, seed=3)


@pytest.fixture(scope="module")
def index(graph):
    return CTLSIndex.build(graph)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, index):
    path = tmp_path_factory.mktemp("fleet") / "index.bin"
    save_index(index, path, format="binary")
    return path


@pytest.fixture(scope="module")
def workload(graph):
    vertices = list(graph.vertices())
    rng = random.Random(17)
    return [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(300)
    ]


@pytest.fixture(scope="module")
def fleet_thread(index_path):
    thread = FleetThread(index_path, 2, ServeConfig(port=0))
    thread.start()
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def fleet(fleet_thread):
    return fleet_thread.router.host, fleet_thread.router.port


def _http(host, port, method, path, payload=None):
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _assert_no_wrong_answers(results, index):
    wrong = []
    for source, target, status, distance, count in results:
        if status != 200:
            continue
        expected = index.query(source, target)
        wire = None if expected.distance == INF else expected.distance
        if (distance, count) != (wire, expected.count):
            wrong.append((source, target))
    assert not wrong, f"fleet answered {len(wrong)} queries wrong: {wrong[:5]}"


# ----------------------------------------------------------------------
# metrics aggregation (pure function)
# ----------------------------------------------------------------------
class TestMergeSnapshots:
    def test_counters_and_gauges_sum(self):
        merged = merge_metrics_snapshots([
            {"counters": {"a": 2, "b": 1}, "gauges": {"depth": 3}},
            {"counters": {"a": 5}, "gauges": {"depth": 4}},
        ])
        assert merged["counters"] == {"a": 7, "b": 1}
        assert merged["gauges"] == {"depth": 7}

    def test_histograms_merge_bucketwise(self):
        part = {
            "count": 10, "sum": 30.0, "min": 1.0, "max": 9.0,
            "mean": 3.0, "p50": 2.0, "p95": 8.0, "p99": 9.0,
            "buckets": {"<= 5": 8, "> 5": 2},
        }
        other = {
            "count": 2, "sum": 14.0, "min": 6.0, "max": 8.0,
            "mean": 7.0, "p50": 7.0, "p95": 8.0, "p99": 8.0,
            "buckets": {"<= 5": 0, "> 5": 2},
        }
        merged = merge_metrics_snapshots([
            {"histograms": {"latency": part}},
            {"histograms": {"latency": other}},
        ])["histograms"]["latency"]
        assert merged["count"] == 12
        assert merged["sum"] == 44.0
        assert merged["min"] == 1.0
        assert merged["max"] == 9.0
        assert merged["buckets"] == {"<= 5": 8, "> 5": 4}
        assert merged["p50"] == 5.0  # bucket upper bound estimate

    def test_empty_worker_does_not_poison_the_merge(self):
        live = {
            "count": 4, "sum": 8.0, "min": 1.0, "max": 3.0,
            "mean": 2.0, "p50": 2.0, "p95": 3.0, "p99": 3.0,
            "buckets": {"<= 5": 4},
        }
        empty = {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            "buckets": {},
        }
        merged = merge_metrics_snapshots([
            {"histograms": {"latency": empty}},
            {"histograms": {"latency": live}},
        ])["histograms"]["latency"]
        assert merged["count"] == 4
        assert merged["min"] == 1.0


# ----------------------------------------------------------------------
# the live fleet
# ----------------------------------------------------------------------
class TestFleetServing:
    def test_replay_matches_direct_index(self, fleet, index, workload):
        host, port = fleet
        report = replay(
            host, port, workload, concurrency=4, collect_results=True
        )
        assert report.availability == 1.0
        _assert_no_wrong_answers(report.results, index)

    def test_batch_pairs_scattered_and_reassembled_in_order(
        self, fleet, index, workload
    ):
        host, port = fleet
        pairs = workload[:40]
        status, body = _http(
            host, port, "POST", "/query",
            {"pairs": [[s, t] for s, t in pairs]},
        )
        assert status == 200
        results = json.loads(body)["results"]
        assert len(results) == len(pairs)
        for (source, target), row in zip(pairs, results):
            assert row["source"] == source and row["target"] == target
            expected = index.query(source, target)
            wire = None if expected.distance == INF else expected.distance
            assert (row["distance"], row["count"]) == (wire, expected.count)

    def test_health_reports_every_worker(self, fleet):
        host, port = fleet
        status, body = _http(host, port, "GET", "/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["healthy_workers"] == 2
        assert len(payload["workers"]) == 2

    def test_metrics_aggregate_the_fleet(self, fleet):
        host, port = fleet
        status, body = _http(host, port, "GET", "/metrics")
        assert status == 200
        payload = json.loads(body)
        assert payload["fleet"] == {"workers": 2, "reporting": 2}
        assert payload["counters"].get("serve.requests", 0) > 0

    def test_metrics_reads_do_not_count_as_requests(self, fleet):
        # serve.requests counts /query requests only: neither the
        # reads themselves nor the router's fan-outs and supervisor
        # probes behind them move it.
        host, port = fleet
        first = _metrics(host, port)["counters"].get("serve.requests", 0)
        second = _metrics(host, port)["counters"].get("serve.requests", 0)
        assert second == first

    def test_prometheus_rendering_survives_aggregation(self, fleet):
        host, port = fleet
        status, body = _http(
            host, port, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        text = body.decode()
        assert "serve_requests" in text

    def test_stats_carry_a_fleet_block(self, fleet):
        host, port = fleet
        status, body = _http(host, port, "GET", "/stats")
        assert status == 200
        payload = json.loads(body)
        assert payload["fleet"]["workers"] == 2

    def test_unknown_path_404s(self, fleet):
        host, port = fleet
        status, _ = _http(host, port, "GET", "/nope")
        assert status == 404


class TestFleetChaos:
    def test_chaos_replay_correct_and_available(
        self, index_path, index, workload
    ):
        thread = FleetThread(
            index_path, 2,
            ServeConfig(port=0, cache_size=0, breaker_threshold=10),
            fault_spec="scan.fail:0.15,conn.reset:0.1",
            fault_seed=13,
        )
        try:
            host, port = thread.start()
            report = replay(
                host, port, workload, concurrency=4,
                collect_results=True,
                retry=RetryPolicy(
                    max_attempts=4, base_delay_s=0.001,
                    max_delay_s=0.01, seed=3,
                ),
            )
        finally:
            thread.stop()
        _assert_no_wrong_answers(report.results, index)
        assert report.availability >= 0.9

    def test_a_reset_breaks_only_the_request_it_cut_off(
        self, index_path, index, workload
    ):
        # Each upstream request has a connection to itself, so an
        # injected mid-response reset costs one attempt of one request
        # and nothing queued beside it; the router's bounded resends
        # absorb the resets without client retries (a request fails
        # only if all three of its attempts are cut off: p = 0.001).
        # Every request carries a sampled traceparent, which takes the
        # whole path through a worker (the router would answer these
        # static pairs itself otherwise, past the fault site).
        thread = FleetThread(
            index_path, 2,
            ServeConfig(port=0, cache_size=0),
            fault_spec="conn.reset:0.1",
            fault_seed=3,
        )
        try:
            host, port = thread.start()
            report = replay(
                host, port, workload * 2, concurrency=4, pipeline=8,
                collect_results=True, trace_every=1,
            )
            metrics = _metrics(host, port)
            while metrics["fleet"]["reporting"] < 2:
                metrics = _metrics(host, port)  # a reset cost a worker
        finally:
            thread.stop()
        _assert_no_wrong_answers(report.results, index)
        counters = metrics["counters"]
        assert counters["serve.errors.injected_reset"] > 0
        assert (
            counters["fleet.upstream.transport_errors"]
            == counters["serve.errors.injected_reset"]
        )
        assert report.availability >= 0.99, report.status_counts


class TestForwarding:
    def test_forwarded_requests_go_round_robin(
        self, fleet_thread, index, workload
    ):
        # A sampled traceparent sends every request through a worker;
        # the router takes the live workers in turn.
        host, port = fleet_thread.router.host, fleet_thread.router.port
        workers = [worker.port for worker in fleet_thread.router.workers]

        def requests():
            return [
                _metrics("127.0.0.1", worker)["counters"].get(
                    "serve.requests", 0
                )
                for worker in workers
            ]

        before = requests()
        report = replay(
            host, port, workload[:200], concurrency=4,
            collect_results=True, trace_every=1,
        )
        after = requests()
        assert report.availability == 1.0
        _assert_no_wrong_answers(report.results, index)
        for was, now in zip(before, after):
            assert abs(now - was - 100) <= 1, (before, after)

    def test_batch_members_go_in_admitted_chunks_and_keep_a_shed_503(
        self, index_path
    ):
        # Forwarded members go out queue_high_water at a time, one
        # chunk after another; a chunk a worker sheds whole answers its
        # members with the worker's 503 and Retry-After, not a 502.
        router = FleetRouter(
            index_path, 2, ServeConfig(cache_size=0, queue_high_water=2)
        )
        router.workers = [_Worker(i, None, None) for i in range(2)]
        overloaded = {"error": "overloaded", "queue_depth": 2, "high_water": 2}
        chunks = []

        async def routed(data):
            members = json.loads(data.partition(b"\r\n\r\n")[2])["pairs"]
            chunks.append(len(members))
            if len(chunks) == 2:
                return response_bytes(
                    503, overloaded, extra_headers=(("Retry-After", "3"),)
                )
            return response_bytes(
                200, {"results": [{"distance": 1, "count": 1}] * len(members)}
            )

        router._routed = routed
        status, payload, extra = asyncio.run(
            router._answer_batch([[0, 1]] * 5, False, "batch-1")
        )
        assert chunks == [2, 2, 1]
        assert status == 503
        rows = payload["results"]
        assert rows[2] == rows[3] == overloaded
        assert all(rows[i]["count"] == 1 for i in (0, 1, 4))
        assert ("Retry-After", "3") in extra
        assert ("X-Request-Id", "batch-1") in extra

    def test_next_live_skips_ejected_workers(self, index_path):
        router = FleetRouter(index_path, 3, ServeConfig())
        router.workers = [_Worker(i, None, None) for i in range(3)]
        picks = [router._next_live().worker_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        router.workers[1].up = False
        picks = [router._next_live().worker_id for _ in range(4)]
        assert picks == [0, 2, 0, 2]
        for worker in router.workers:
            worker.up = False
        assert router._next_live() is None


class TestFleetReload:
    def test_reload_under_load_drops_nothing(
        self, tmp_path, index, index_path, workload
    ):
        next_path = tmp_path / "next.bin"
        save_index(index, next_path, format="binary")
        thread = FleetThread(index_path, 2, ServeConfig(port=0))
        try:
            host, port = thread.start()
            outcome = {}

            def hammer():
                outcome["report"] = replay(
                    host, port, workload, concurrency=4,
                    collect_results=True,
                )

            load = threading.Thread(target=hammer)
            load.start()
            status, body = _http(
                host, port, "POST", "/admin/reload",
                {"path": str(next_path)},
            )
            load.join()
        finally:
            thread.stop()
        payload = json.loads(body)
        assert status == 200 and payload["reloaded"] is True
        assert payload["workers"] == 2
        report = outcome["report"]
        assert report.availability == 1.0, "reload dropped requests"
        _assert_no_wrong_answers(report.results, index)

    def test_corrupt_reload_rejected_fleet_wide(
        self, tmp_path, index, index_path, workload
    ):
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"RSPCIDX4" + b"\x00" * 64)
        thread = FleetThread(index_path, 2, ServeConfig(port=0))
        try:
            host, port = thread.start()
            status, body = _http(
                host, port, "POST", "/admin/reload",
                {"path": str(corrupt)},
            )
            assert status == 409
            assert json.loads(body)["reloaded"] is False
            # every worker kept the old index and keeps answering
            report = replay(
                host, port, workload[:60], concurrency=2,
                collect_results=True,
            )
        finally:
            thread.stop()
        assert report.availability == 1.0
        _assert_no_wrong_answers(report.results, index)

    def test_get_reload_rejected_405(self, fleet):
        host, port = fleet
        status, _ = _http(host, port, "GET", "/admin/reload")
        assert status == 405


class TestFleetLifecycle:
    def test_stop_is_clean_and_idempotent(self, index_path, workload):
        thread = FleetThread(index_path, 2, ServeConfig(port=0))
        host, port = thread.start()
        replay(host, port, workload[:20], concurrency=2)
        thread.stop()
        thread.stop()  # second stop is a no-op, not an error
        with pytest.raises(OSError):
            http.client.HTTPConnection(
                host, port, timeout=2.0
            ).request("GET", "/health")


class TestFleetTracing:
    """The acceptance criterion: one merged Chrome trace for the fleet
    in which a router span parents a worker-side span across process
    boundaries."""

    @pytest.mark.parametrize("value", ["True", "on"])
    def test_clear_accepts_any_truthy_spelling(self, fleet, workload, value):
        host, port = fleet
        replay(host, port, workload[:20], concurrency=2, trace_every=1)
        status, _ = _http(
            host, port, "POST", f"/admin/trace?format=fragment&clear={value}"
        )
        assert status == 200
        status, body = _http(
            host, port, "POST", "/admin/trace?format=fragment"
        )
        assert status == 200
        assert json.loads(body)["spans"] == []

    def test_merged_trace_links_router_to_worker_spans(
        self, fleet, workload
    ):
        from repro.obs import cross_process_links, validate_chrome_trace

        host, port = fleet
        # Client stamps every request with a sampled traceparent, so
        # tracing is deterministic regardless of head-sampling knobs.
        replay(host, port, workload[:40], concurrency=4, trace_every=1)
        status, body = _http(
            host, port, "POST", "/admin/trace?format=chrome&clear=1"
        )
        assert status == 200
        payload = json.loads(body)
        assert validate_chrome_trace(payload) == []
        assert payload["fleet"] == {"workers": 2, "reporting": 2}
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        roles = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "router" in roles
        assert {"worker-0", "worker-1"} & roles
        by_span_id = {s["args"]["span_id"]: s for s in spans}
        links = cross_process_links(payload)
        assert links, "no cross-process parent/child link in the trace"
        # At least one link must be the router's request span parenting
        # the worker-side request span of the same trace.
        router_to_worker = [
            (parent, child)
            for parent, child in links
            if parent["name"] == "fleet.request"
            and child["name"] == "serve.request"
            and parent["args"]["trace_id"] == child["args"]["trace_id"]
        ]
        assert router_to_worker, links[:3]
        parent, child = router_to_worker[0]
        assert child["args"]["parent_id"] == parent["args"]["span_id"]
        assert parent["pid"] != child["pid"]
        # The worker's scan span hangs off its request span in turn.
        scans = [s for s in spans if s["name"] == "serve.scan_batch"]
        assert any(
            by_span_id.get(s["args"]["parent_id"], {}).get("name")
            == "serve.request"
            for s in scans
        )

    def test_fragment_format_returns_router_fragment(self, fleet):
        host, port = fleet
        status, body = _http(
            host, port, "POST", "/admin/trace?format=fragment"
        )
        assert status == 200
        fragment = json.loads(body)
        assert fragment["role"] == "router"
        assert "wall_at_epoch" in fragment

    def test_trace_capture_requires_post(self, fleet):
        host, port = fleet
        status, _ = _http(host, port, "GET", "/admin/trace")
        assert status == 405


# ----------------------------------------------------------------------
# self-healing: supervision, respawn, WAL catch-up
# ----------------------------------------------------------------------
def _http_with_headers(host, port, method, path, payload=None):
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _healing_fleet_thread(tmp_path, graph, workers=2, **overrides):
    """A live-update fleet with supervision, respawn, and a WAL."""
    index_path = tmp_path / "index.bin"
    graph_path = tmp_path / "graph.json"
    save_index(CTLIndex.build(graph), index_path, format="binary")
    write_json(graph, graph_path)
    settings = dict(
        port=0,
        live_updates=True,
        wal_dir=str(tmp_path / "wal"),
        respawn=True,
        probe_interval_s=0.2,
        respawn_backoff_s=0.05,
        respawn_backoff_max_s=0.2,
    )
    settings.update(overrides)
    return FleetThread(
        index_path, workers, ServeConfig(**settings),
        live_graph_path=str(graph_path),
    )


def _wait_for(predicate, *, deadline_s, interval_s=0.1):
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    return None


class TestFleetSelfHealing:
    """The pinned crash bar: ``kill -9`` one of two workers under a
    sustained query replay *and* a live-update stream.  Zero wrong
    answers, availability >= 0.9, and the respawned worker joins the
    router's state — no worker keeps a log to replay — so it serves the
    router's epoch/seqno (verified through the ``/stats`` per-worker lag
    rows, which measure against the router's version)."""

    def test_kill_nine_under_load_heals_with_no_wrong_answers(
        self, tmp_path
    ):
        graph = road_network(120, seed=9)
        rng = random.Random(33)
        vertices = sorted(graph.vertices())
        query_pool = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(40)
        ]
        batches = synthesize_deltas(graph, batches=4, seed=33)
        mirror = graph.copy()
        snapshots = [graph.copy()]  # every state a query may observe

        def push_batch(host, port, batch):
            status, body = _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            assert status == 200, body
            for a, b, w in batch.updates:
                mirror.add_edge(a, b, w, mirror.count(a, b))
            snapshots.append(mirror.copy())
            return json.loads(body)

        results = []
        stop = threading.Event()

        def hammer(host, port):
            while not stop.is_set():
                s, t = query_pool[len(results) % len(query_pool)]
                try:
                    status, body = _http(
                        host, port, "GET",
                        f"/query?source={s}&target={t}",
                    )
                except OSError:
                    results.append((s, t, 599, None, None))
                    continue
                if status == 200:
                    row = json.loads(body)
                    results.append(
                        (s, t, status, row["distance"], row["count"])
                    )
                else:
                    results.append((s, t, status, None, None))

        thread = _healing_fleet_thread(tmp_path, graph)
        try:
            host, port = thread.start()
            push_batch(host, port, batches[0])
            load = threading.Thread(target=hammer, args=(host, port))
            load.start()
            time.sleep(0.3)

            victim = thread.router.workers[1]
            os.kill(victim.process.pid, signal.SIGKILL)
            # The stream keeps flowing while the worker is down: the
            # router ejects the corpse and applies on the survivor.
            for batch in batches[1:3]:
                push_batch(host, port, batch)

            def healed():
                status, body = _http(host, port, "GET", "/stats")
                if status != 200:
                    return None
                supervisor = json.loads(body)["fleet"]["supervisor"]
                if (
                    supervisor["respawns"] >= 1
                    and supervisor["workers_down"] == 0
                ):
                    return supervisor
                return None

            supervisor = _wait_for(healed, deadline_s=30.0)
            assert supervisor is not None, "worker never respawned"
            assert supervisor["workers"][1]["generation"] >= 1

            # Post-recovery: the next batch reaches both workers and
            # nobody lags the router — the respawned worker joined the
            # router's state, the batches it missed included.
            payload = push_batch(host, port, batches[3])
            assert payload["workers"] == 2
            status, body = _http(host, port, "GET", "/stats")
            assert status == 200
            stats = json.loads(body)
            assert stats["live"]["seqno"] == len(batches)
            rows = stats["fleet"]["per_worker"]
            assert len(rows) == 2
            for row in rows:
                assert row["epoch_lag"] == 0, rows
                assert row["seqno_lag"] == 0, rows
                assert row["seqno"] == stats["live"]["seqno"], rows
            stop.set()
            load.join()

            # Every worker answers with the final weights.
            for s, t in query_pool[:20]:
                status, body = _http(
                    host, port, "GET", f"/query?source={s}&target={t}"
                )
                assert status == 200
                row = json.loads(body)
                expect = spc_query(mirror, s, t)
                wire = None if expect.distance >= INF else expect.distance
                assert (row["distance"], row["count"]) == (
                    wire, expect.count,
                ), (s, t)
        finally:
            stop.set()
            thread.stop()

        # Availability: the single kill -9 may fail in-flight requests
        # once, but ejecting it keeps the fleet serving.
        ok = sum(1 for r in results if r[2] == 200)
        assert results, "query hammer never ran"
        assert ok / len(results) >= 0.9, (
            f"availability {ok}/{len(results)}"
        )

        # Zero wrong answers: every 200 matches counting Dijkstra on
        # one of the graph states the fleet actually passed through.
        allowed = {}
        for s, t, status, distance, count in results:
            if status != 200:
                continue
            if (s, t) not in allowed:
                answers = set()
                for snapshot in snapshots:
                    expect = spc_query(snapshot, s, t)
                    wire = (
                        None if expect.distance >= INF else expect.distance
                    )
                    answers.add((wire, expect.count))
                allowed[(s, t)] = answers
            assert (distance, count) in allowed[(s, t)], (
                s, t, distance, count, sorted(allowed[(s, t)]),
            )

    def test_flap_circuit_keeps_a_crash_looping_worker_down(
        self, tmp_path
    ):
        graph = road_network(80, seed=5)
        thread = _healing_fleet_thread(
            tmp_path, graph, flap_max_restarts=1
        )
        try:
            host, port = thread.start()
            victim = thread.router.workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)

            def tripped():
                status, body = _http(host, port, "GET", "/stats")
                if status != 200:
                    return None
                supervisor = json.loads(body)["fleet"]["supervisor"]
                row = supervisor["workers"][0]
                return supervisor if row["circuit_open"] else None

            supervisor = _wait_for(tripped, deadline_s=15.0)
            assert supervisor is not None, "flap circuit never tripped"
            assert supervisor["respawns"] == 0  # flapped, not respawned
            status, headers, body = _http_with_headers(
                host, port, "GET", "/health"
            )
            payload = json.loads(body)
            assert status == 503
            assert payload["status"] == "degraded"
            assert payload["workers_down"] == 1
            assert payload["workers"][0]["status"] == "flapped"
            # The survivor keeps answering alone.
            vertices = sorted(graph.vertices())
            status, _ = _http(
                host, port, "GET",
                f"/query?source={vertices[0]}&target={vertices[-1]}",
            )
            assert status == 200
        finally:
            thread.stop()


class TestFleetNonFiniteUpdate:
    """A weight of NaN, Infinity or an overflowing literal is refused by
    the router with a 400 before any worker prepares it: no worker's
    seqno or write-ahead log moves."""

    def test_router_rejects_non_finite_weights(self, tmp_path):
        graph = road_network(60, seed=4)
        a, b, weight, _count = next(iter(graph.edges()))
        wal_dir = tmp_path / "wal"

        def wal_bytes():
            return sorted(
                (path.name, path.stat().st_size)
                for path in wal_dir.rglob("*") if path.is_file()
            )

        def worker_seqnos(host, port):
            status, body = _http(host, port, "GET", "/stats")
            assert status == 200
            rows = json.loads(body)["fleet"]["per_worker"]
            return [row["seqno"] for row in rows]

        thread = _healing_fleet_thread(tmp_path, graph)
        try:
            host, port = thread.start()
            before = wal_bytes()
            assert worker_seqnos(host, port) == [0, 0]
            for literal in (b"NaN", b"Infinity", b"-Infinity", b"1e400"):
                conn = http.client.HTTPConnection(host, port, timeout=30.0)
                try:
                    conn.request(
                        "POST", "/admin/update",
                        body=b'{"updates": [[%d, %d, %s]]}' % (a, b, literal),
                    )
                    response = conn.getresponse()
                    status = response.status
                    payload = json.loads(response.read())
                finally:
                    conn.close()
                assert status == 400, (literal, payload)
                assert payload["applied"] is False
            assert worker_seqnos(host, port) == [0, 0]
            assert wal_bytes() == before
            # The fleet still takes a well-formed batch.
            status, body = _http(
                host, port, "POST", "/admin/update",
                {"updates": [[a, b, weight + 1]]},
            )
            assert status == 200, body
            assert worker_seqnos(host, port) == [1, 1]
        finally:
            thread.stop()


class TestFleetAllWorkersDown:
    """Satellite: every worker dead => 503 + ``Retry-After``, and
    ``/health`` reports the outage instead of hanging."""

    def test_query_is_503_with_retry_after(self, index_path):
        thread = FleetThread(
            index_path, 2,
            ServeConfig(port=0, probe_interval_s=0.2, respawn=False),
        )
        try:
            host, port = thread.start()
            for worker in thread.router.workers:
                os.kill(worker.process.pid, signal.SIGKILL)

            def all_down():
                status, body = _http(host, port, "GET", "/health")
                payload = json.loads(body)
                return payload if payload["workers_down"] == 2 else None

            payload = _wait_for(all_down, deadline_s=15.0)
            assert payload is not None, "supervisor never ejected corpses"
            assert payload["status"] == "down"
            assert all(
                row["status"] == "down" for row in payload["workers"]
            )

            status, headers, body = _http_with_headers(
                host, port, "GET", "/query?source=0&target=1"
            )
            assert status == 503
            assert "Retry-After" in headers
            assert int(headers["Retry-After"]) >= 1
            assert "no live workers" in json.loads(body)["error"]

            # Batch scatter takes the same branch.
            status, headers, _ = _http_with_headers(
                host, port, "POST", "/query",
                {"pairs": [[0, 1], [2, 3]]},
            )
            assert status == 503
            assert "Retry-After" in headers
        finally:
            thread.stop()


class TestFleetAnalytics:
    def test_stats_carry_per_worker_rows_and_merged_top_pairs(
        self, fleet, workload
    ):
        host, port = fleet
        hot = workload[0]
        for _ in range(25):
            _http(
                host, port, "GET",
                f"/query?source={hot[0]}&target={hot[1]}",
            )
        status, body = _http(host, port, "GET", "/stats")
        assert status == 200
        payload = json.loads(body)
        fleet_block = payload["fleet"]
        assert fleet_block["workers"] == 2
        rows = fleet_block["per_worker"]
        assert len(rows) == fleet_block["reporting"]
        for row in rows:
            assert {"worker", "requests", "qps", "p99_ms",
                    "cache_hit_rate"} <= set(row)
        top = payload["top_pairs"]
        assert top["sketch"]["total"] > 0
        hot_key = sorted(hot)
        assert hot_key in [entry["pair"] for entry in top["top"]]
        attribution = top["cache_attribution"]
        assert attribution["hot"]["hits"] + attribution["hot"][
            "misses"
        ] > 0


# ----------------------------------------------------------------------
# the router's result cache
# ----------------------------------------------------------------------
def _metrics(host, port):
    status, body = _http(host, port, "GET", "/metrics")
    assert status == 200
    return json.loads(body)


def _wire(answer):
    return (
        None if answer.distance >= INF else answer.distance,
        answer.count,
    )


class TestRouterCache:
    def test_second_pass_is_answered_by_the_router(
        self, fleet, index, workload
    ):
        host, port = fleet
        pairs = workload[:50]
        replay(host, port, pairs, concurrency=2)
        before = _metrics(host, port)["counters"]
        report = replay(
            host, port, pairs, concurrency=2, collect_results=True
        )
        after = _metrics(host, port)["counters"]
        assert report.availability == 1.0
        _assert_no_wrong_answers(report.results, index)
        hits = after["serve.cache.hits"] - before.get("serve.cache.hits", 0)
        assert hits >= len(pairs)
        # Every answered query counts once in serve.requests, whichever
        # process answered it.
        assert after["serve.requests"] - before["serve.requests"] >= len(
            pairs
        )

    def test_hit_is_byte_identical_to_the_worker_answer(
        self, fleet, workload
    ):
        host, port = fleet
        source, target = workload[7]
        path = f"/query?source={source}&target={target}"
        first = _http_with_headers(host, port, "GET", path)
        second = _http_with_headers(host, port, "GET", path)
        assert first[0] == second[0] == 200
        assert first[2] == second[2]
        assert second[1]["X-Request-Id"]
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request("GET", path, headers={"X-Request-Id": "mine-7"})
            response = conn.getresponse()
            assert response.read() == first[2]
            assert response.getheader("X-Request-Id") == "mine-7"
        finally:
            conn.close()

    def test_batch_is_scattered_only_for_its_misses(
        self, fleet, index, workload
    ):
        host, port = fleet
        cached = workload[:10]
        replay(host, port, cached, concurrency=1)
        graph_pairs = [(s, t) for s, t in workload[200:210]]
        pairs = cached + graph_pairs
        before = _metrics(host, port)["counters"]
        status, body = _http(
            host, port, "POST", "/query",
            {"pairs": [[s, t] for s, t in pairs]},
        )
        after = _metrics(host, port)["counters"]
        assert status == 200
        for (source, target), row in zip(pairs, json.loads(body)["results"]):
            assert (row["distance"], row["count"]) == _wire(
                index.query(source, target)
            )
        assert after["serve.cache.hits"] - before["serve.cache.hits"] >= 10

    def test_reload_empties_the_cache(self, fleet, index_path, workload):
        host, port = fleet
        replay(host, port, workload[:30], concurrency=2)
        assert _metrics(host, port)["gauges"]["serve.cache.size"] > 0
        status, body = _http(
            host, port, "POST", "/admin/reload", {"path": str(index_path)}
        )
        assert status == 200, body
        assert _metrics(host, port)["gauges"]["serve.cache.size"] == 0
        status, body = _http(host, port, "GET", "/stats")
        assert json.loads(body)["cache"]["size"] == 0

    def test_answer_in_flight_across_a_commit_is_never_cached(
        self, index_path
    ):
        router = FleetRouter(index_path, 2, ServeConfig(cache_size=8))
        raw = response_bytes(
            200, encode_result_bytes(1, 2, QueryResult(5, 3))
        )

        async def scenario():
            gate = asyncio.Event()

            async def held_fanout(method, path, body=None, *, resend=False):
                await gate.wait()
                return []

            router._fanout = held_fanout
            before = router._generation
            commit = asyncio.ensure_future(
                router._commit("/admin/reload/commit")
            )
            await asyncio.sleep(0)
            during = router._generation
            assert during & 1, "the generation is odd mid-commit"
            # Dispatched before the commit, landed during it; and
            # dispatched during the commit: neither is cached.
            router._relayed((1, 2), raw, before)
            router._relayed((1, 2), raw, during)
            assert len(router.cache) == 0
            gate.set()
            await commit
            # Dispatched before, landed after: still not cached.
            router._relayed((1, 2), raw, before)
            router._relayed((1, 2), raw, during)
            assert len(router.cache) == 0
            # A query dispatched after the commit is.
            router._relayed((1, 2), raw, router._generation)
            assert router.cache.get(2, 1) == QueryResult(5, 3)

        asyncio.run(scenario())

    def test_updates_invalidate_every_changed_answer(self, tmp_path):
        graph = road_network(120, seed=9)
        vertices = sorted(graph.vertices())
        rng = random.Random(41)
        # Tight edges (each its endpoints' shortest path): halving the
        # weight must change at least those pairs' distances.
        tight = [
            (a, b, w) for a, b, w, _count in sorted(graph.edges())
            if a < b and spc_query(graph, a, b).distance == w
        ]
        edges = rng.sample(tight, 3)
        pairs = [(a, b) for a, b, _w in edges]
        pairs += [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(60)
        ]
        batches = [
            [[a, b, w / 2] for a, b, w in edges],  # decrease
            [[a, b, w * 3] for a, b, w in edges],  # increase
        ]
        mirror = graph.copy()

        def answers(host, port):
            got = {}
            for s, t in pairs:
                status, body = _http(
                    host, port, "GET", f"/query?source={s}&target={t}"
                )
                assert status == 200
                row = json.loads(body)
                got[(s, t)] = (row["distance"], row["count"])
            status, body = _http(
                host, port, "POST", "/query",
                {"pairs": [[s, t] for s, t in pairs]},
            )
            assert status == 200
            for (s, t), row in zip(pairs, json.loads(body)["results"]):
                assert (row["distance"], row["count"]) == got[(s, t)]
            return got

        thread = _healing_fleet_thread(
            tmp_path, graph, respawn=False, probe_interval_s=0.0
        )
        try:
            host, port = thread.start()
            answers(host, port)
            hits_before = _metrics(host, port)["counters"][
                "serve.cache.hits"
            ]
            previous = answers(host, port)  # the warm pass: all hits
            assert _metrics(host, port)["counters"][
                "serve.cache.hits"
            ] - hits_before >= 2 * len(pairs)
            for batch in batches:
                status, body = _http(
                    host, port, "POST", "/admin/update", {"updates": batch}
                )
                assert status == 200, body
                for a, b, w in batch:
                    mirror.add_edge(a, b, w, mirror.count(a, b))
                got = answers(host, port)
                for s, t in pairs:
                    assert got[(s, t)] == _wire(spc_query(mirror, s, t)), (
                        s, t,
                    )
                moved = [pair for pair in pairs if got[pair] != previous[pair]]
                assert moved, "the batch changed no answer"
                previous = got
        finally:
            thread.stop()


class TestFleetDrain:
    def test_shutdown_answers_every_pipelined_request(
        self, index_path, index, workload
    ):
        # Slow scans keep the pipelined window in flight at the router
        # when the drain starts.  Explain queries always take the hop
        # to a worker's scan (the router answers plain ones itself).
        thread = FleetThread(
            index_path, 2,
            ServeConfig(port=0, request_timeout_ms=10000),
            fault_spec="scan.slow:1.0@40",
        )
        pairs = list(dict.fromkeys(workload))[:32]
        host, port = thread.start()
        sock = socket.create_connection((host, port), timeout=30.0)
        try:
            sock.sendall(b"".join(
                f"GET /query?source={s}&target={t}&explain=1 HTTP/1.1\r\n"
                f"Host: x\r\nX-Request-Id: drain-{i}\r\n\r\n".encode()
                for i, (s, t) in enumerate(pairs)
            ))
            deadline = time.time() + 10.0
            while thread.router._inflight < len(pairs):
                assert time.time() < deadline, "requests never arrived"
                time.sleep(0.005)
            stopper = threading.Thread(target=thread.stop)
            stopper.start()
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
            stopper.join(60.0)
            assert not stopper.is_alive()
        finally:
            sock.close()
            thread.stop()
        answered = []
        while data:
            head, _, rest = data.partition(b"\r\n\r\n")
            lines = head.split(b"\r\n")
            headers = dict(
                line.split(b": ", 1) for line in lines[1:]
            )
            length = int(headers[b"Content-Length"])
            answered.append(
                (int(lines[0][9:12]), headers[b"X-Request-Id"],
                 json.loads(rest[:length]))
            )
            data = rest[length:]
        # Each request was read before the drain began, so each one is
        # answered, in order, before the connection closes.
        assert len(answered) == len(pairs)
        for i, ((s, t), (status, rid, payload)) in enumerate(
            zip(pairs, answered)
        ):
            assert status == 200, payload
            assert rid == f"drain-{i}".encode()
            assert (payload["distance"], payload["count"]) == _wire(
                index.query(s, t)
            )


class TestRouterBackpressure:
    def test_a_client_that_does_not_read_stalls_only_itself(
        self, index_path
    ):
        # One client pipelines a flood of one cached query and reads
        # nothing.  The router stops reading that connection once its
        # answers back up, instead of buffering them all, and other
        # clients are still served.
        total = 50000
        request = b"GET /query?source=3&target=150 HTTP/1.1\r\nHost: x\r\n\r\n"
        thread = FleetThread(index_path, 2, ServeConfig(port=0))
        host, port = thread.start()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(60.0)
        sock.connect((host, port))
        sender = threading.Thread(
            target=sock.sendall, args=(request * total,), daemon=True
        )
        sender.start()
        try:
            time.sleep(1.0)
            before = _metrics(host, port)["counters"]["fleet.requests"]
            time.sleep(0.5)
            after = _metrics(host, port)["counters"]["fleet.requests"]
            # Stalled (only the /metrics call itself was read), well
            # short of the flood.
            assert after - before <= 1
            assert after < total // 2
            answered, tail = 0, b""
            while answered < total:
                chunk = sock.recv(1 << 20)
                assert chunk, f"connection closed after {answered} answers"
                text = tail + chunk
                answered += text.count(b"HTTP/1.1 200 ")
                tail = text[-12:]
            assert answered == total
        finally:
            sock.close()
            thread.stop()
            sender.join(10.0)

    def test_pipelined_misses_in_flight_stop_at_the_pipeline_depth(
        self, index_path, index, workload
    ):
        # Slow scans keep every miss in flight; the router reads no
        # further than _PIPELINE_DEPTH unanswered requests ahead.
        # Explain queries always take the hop to a worker's scan (the
        # router answers plain ones itself).
        thread = FleetThread(
            index_path, 2,
            ServeConfig(port=0, request_timeout_ms=10000),
            fault_spec="scan.slow:1.0@40",
        )
        pairs = list(dict.fromkeys(workload))[: 2 * _PIPELINE_DEPTH + 20]
        host, port = thread.start()
        sock = socket.create_connection((host, port), timeout=30.0)
        peak = 0
        done = threading.Event()

        def sample():
            nonlocal peak
            while not done.is_set():
                peak = max(peak, thread.router._inflight)
                time.sleep(0.001)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            sock.sendall(b"".join(
                f"GET /query?source={s}&target={t}&explain=1 HTTP/1.1\r\n"
                f"Host: x\r\n\r\n".encode()
                for s, t in pairs
            ))
            data = b""
            while data.count(b"HTTP/1.1 ") < len(pairs):
                chunk = sock.recv(65536)
                assert chunk
                data += chunk
        finally:
            done.set()
            sampler.join(5.0)
            sock.close()
            thread.stop()
        assert peak == _PIPELINE_DEPTH
        answers = []
        for part in data.split(b"HTTP/1.1 ")[1:]:
            head, _, body = part.partition(b"\r\n\r\n")
            assert head.startswith(b"200 "), part
            row = json.loads(body)
            answers.append((row["distance"], row["count"]))
        assert answers == [_wire(index.query(s, t)) for s, t in pairs]


class TestRouterProtocolErrors:
    @pytest.mark.parametrize(
        "raw",
        [
            b"NONSENSE\r\n\r\n",
            b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        ],
    )
    def test_malformed_request_gets_the_single_server_400(self, fleet, raw):
        host, port = fleet
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(raw)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # the router closes after the 400
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), data
        assert b"Connection: close" in head
        assert json.loads(body)["error"]


class TestRouterTopPairs:
    def test_a_pair_queried_25_times_counts_at_least_25(self, fleet):
        host, port = fleet
        source, target = 3, 150
        for _ in range(25):
            status, _ = _http(
                host, port, "GET", f"/query?source={source}&target={target}"
            )
            assert status == 200
        status, body = _http(host, port, "GET", "/stats")
        top = json.loads(body)["top_pairs"]["top"]
        counts = {tuple(entry["pair"]): entry["count"] for entry in top}
        assert counts.get((source, target), 0) >= 25, top
