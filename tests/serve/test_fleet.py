"""``serve --workers N``: one answering server under a supervisor.

The contract pinned here, against the real command:

* every answer a client receives is **bit-identical** to the direct
  index answer, and one process answers every query — nothing is
  forwarded;
* the result cache stays exact: a hit is byte-identical to the scan it
  saved, an update drops every pair it may have changed, and a reload
  empties it, so no answer older than a commit is served after it;
* ``/metrics``, ``/health`` and ``/stats`` are the answering process's
  own, and say which incarnation (``generation``) answers;
* the chaos bar set for the single server (double-digit scan-failure
  and connection-reset rates) holds under the supervisor;
* ``kill -9`` of the child under load: the supervisor respawns it on
  the same port, the respawn serves every acknowledged batch, and a
  query sent meanwhile waits in the accept backlog and is answered;
* a child that keeps dying trips the flap circuit and the supervisor
  exits non-zero; SIGTERM drains every pipelined request in flight.

Each test's server is a subprocess (``tests/serve/supervised.py``), so
each costs a second or two; the static one is shared module-wide.
"""

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
from repro.faults import FaultPlan
from repro.serve import RetryPolicy, ServeConfig, ServerThread, replay
from repro.serve.fleet import Supervised
from repro.serve.frontend import _PIPELINE_DEPTH
from repro.types import INF
from tests.serve.supervised import Served, request


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
def served(index_path, tmp_path_factory):
    log = tmp_path_factory.mktemp("fleet-log") / "serve.log"
    server = Served([index_path, "--workers", "2"], log)
    yield server
    server.stop()


@pytest.fixture(scope="module")
def fleet(served):
    return served.address


def _http(host, port, method, path, payload=None):
    status, _headers, body = request(host, port, method, path, payload)
    return status, body


def _metrics(host, port):
    status, body = _http(host, port, "GET", "/metrics")
    assert status == 200
    return json.loads(body)


def _wire(answer):
    return (
        None if answer.distance >= INF else answer.distance,
        answer.count,
    )


def _assert_no_wrong_answers(results, index):
    wrong = []
    for source, target, status, distance, count in results:
        if status != 200:
            continue
        if (distance, count) != _wire(index.query(source, target)):
            wrong.append((source, target))
    assert not wrong, f"answered {len(wrong)} queries wrong: {wrong[:5]}"


def _processes():
    """``{pid: (parent pid, process group, state)}`` of every process;
    a zombie's state is ``Z``."""
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[int(entry)] = (int(fields[1]), int(fields[2]), fields[0])
    return out


def _descendants(pid):
    """Every process below ``pid``, zombies included: ``{pid: state}``."""
    processes = _processes()
    out, stack = {}, [pid]
    while stack:
        parent = stack.pop()
        for child, (ppid, _group, state) in processes.items():
            if ppid == parent:
                out[child] = state
                stack.append(child)
    return out


def _running_in_group(group):
    """The processes of process group ``group`` that are not zombies."""
    return [
        pid for pid, (_ppid, pgrp, state) in _processes().items()
        if pgrp == group and state != "Z"
    ]


# ----------------------------------------------------------------------
# serving
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
            assert (row["distance"], row["count"]) == _wire(
                index.query(source, target)
            )

    def test_health_reports_every_worker(self, served):
        # The one answering process is the fleet: its /health is ok
        # and names it — generation 0, a child of the supervisor.
        status, _, body = served.request("GET", "/health")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        supervisor = payload["supervisor"]
        assert supervisor["generation"] == 0
        assert supervisor["pid"] != served.process.pid
        assert supervisor["pid"] in _descendants(served.process.pid)

    def test_metrics_aggregate_the_fleet(self, fleet):
        # Nothing to merge: the metrics are the answering process's.
        host, port = fleet
        payload = _metrics(host, port)
        assert "fleet" not in payload
        assert payload["counters"].get("serve.requests", 0) > 0

    def test_metrics_reads_do_not_count_as_requests(self, fleet):
        # serve.requests counts /query requests only: neither the
        # reads themselves nor the supervisor's liveness probes move it.
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
        assert "serve_requests" in body.decode()

    def test_stats_carry_a_fleet_block(self, served):
        stats = served.stats()
        assert stats["supervisor"]["generation"] == 0
        assert stats["supervisor"]["pid"] == served.child_pid()
        assert "fleet" not in stats

    def test_unknown_path_404s(self, fleet):
        host, port = fleet
        status, _ = _http(host, port, "GET", "/nope")
        assert status == 404


class TestFleetChaos:
    def test_chaos_replay_correct_and_available(
        self, index_path, index, workload, tmp_path
    ):
        args = [
            index_path, "--workers", "2", "--cache-size", "0",
            "--fault-plan", "scan.fail:0.15,conn.reset:0.1",
            "--fault-seed", "13",
        ]
        with Served(args, tmp_path / "serve.log") as server:
            report = replay(
                *server.address, workload, concurrency=4,
                collect_results=True,
                retry=RetryPolicy(
                    max_attempts=4, base_delay_s=0.001,
                    max_delay_s=0.01, seed=3,
                ),
            )
        _assert_no_wrong_answers(report.results, index)
        assert report.availability >= 0.9

    def test_a_reset_breaks_only_the_request_it_cut_off(
        self, index_path, index, workload, tmp_path
    ):
        # An injected mid-response reset aborts the connection it cut:
        # with one request in flight per connection it breaks exactly
        # that request, the client sees one transport error per reset
        # and resends, and a request fails only if all three of its
        # attempts are cut off (p = 0.001).
        args = [
            index_path, "--workers", "2", "--cache-size", "0",
            "--fault-plan", "conn.reset:0.1", "--fault-seed", "3",
        ]
        with Served(args, tmp_path / "serve.log") as server:
            report = replay(
                *server.address, workload * 2, concurrency=4,
                collect_results=True,
            )
            counters = server.counters()
        _assert_no_wrong_answers(report.results, index)
        assert counters["serve.errors.injected_reset"] > 0
        assert report.transport_errors == counters[
            "serve.errors.injected_reset"
        ]
        assert report.availability >= 0.99, report.status_counts


class TestForwarding:
    def test_two_processes_ever_and_one_counts_every_query(
        self, index_path, workload, tmp_path
    ):
        # Nothing is forwarded and nothing runs beside the child: the
        # supervisor's only descendant is the one answering process,
        # which counts every query a client sends exactly once.  A
        # kill -9 of it is reaped (no zombie), and its respawn is again
        # the supervisor's only descendant.
        with Served([index_path, "--workers", "2"],
                    tmp_path / "serve.log") as server:
            child = server.child_pid()
            below = _descendants(server.process.pid)
            assert list(below) == [child] and below[child] != "Z"
            os.kill(child, signal.SIGKILL)
            respawn = server.wait_generation(1)["supervisor"]["pid"]
            below = _descendants(server.process.pid)
            assert list(below) == [respawn] and below[respawn] != "Z"
            before = server.counters().get("serve.requests", 0)
            report = replay(*server.address, workload[:100], concurrency=4)
            assert report.ok == 100
            assert server.counters()["serve.requests"] - before == 100

    def test_batch_members_go_in_admitted_chunks_and_keep_a_shed_503(
        self, index_path, index, tmp_path
    ):
        # Nothing is chunked or forwarded: a batch within the
        # admission bound is answered whole, and one past it is shed
        # whole with 503 and Retry-After, before any scan.
        pairs = [[0, t] for t in range(1, 6)]
        args = [index_path, "--workers", "2", "--high-water", "4"]
        with Served(args, tmp_path / "serve.log") as server:
            status, headers, body = server.request(
                "POST", "/query", {"pairs": pairs},
                headers={"X-Request-Id": "batch-1"},
            )
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert headers["X-Request-Id"] == "batch-1"
            assert json.loads(body)["error"] == "overloaded"
            rows = server.json("POST", "/query", {"pairs": pairs[:4]})
            counters = server.counters()
        assert counters["serve.shed"] == len(pairs)
        assert [(r["distance"], r["count"]) for r in rows["results"]] == [
            _wire(index.query(s, t)) for s, t in pairs[:4]
        ]


# ----------------------------------------------------------------------
# reload
# ----------------------------------------------------------------------
class TestFleetReload:
    def test_reload_under_load_drops_nothing(
        self, tmp_path, index, index_path, workload
    ):
        next_path = tmp_path / "next.bin"
        save_index(index, next_path, format="binary")
        with Served([index_path, "--workers", "2"],
                    tmp_path / "serve.log") as server:
            outcome = {}

            def hammer():
                outcome["report"] = replay(
                    *server.address, workload, concurrency=4,
                    collect_results=True,
                )

            load = threading.Thread(target=hammer)
            load.start()
            status, _, body = server.request(
                "POST", "/admin/reload", {"path": str(next_path)}
            )
            load.join()
        payload = json.loads(body)
        assert status == 200 and payload["reloaded"] is True
        assert payload["path"] == str(next_path)
        report = outcome["report"]
        assert report.availability == 1.0, "reload dropped requests"
        _assert_no_wrong_answers(report.results, index)

    def test_corrupt_reload_rejected_fleet_wide(
        self, tmp_path, index, index_path, workload
    ):
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"RSPCIDX4" + b"\x00" * 64)
        with Served([index_path, "--workers", "2"],
                    tmp_path / "serve.log") as server:
            status, _, body = server.request(
                "POST", "/admin/reload", {"path": str(corrupt)}
            )
            assert status == 409
            assert json.loads(body)["reloaded"] is False
            # the old index keeps answering
            report = replay(
                *server.address, workload[:60], concurrency=2,
                collect_results=True,
            )
        assert report.availability == 1.0
        _assert_no_wrong_answers(report.results, index)

    def test_get_reload_rejected_405(self, fleet):
        host, port = fleet
        status, _ = _http(host, port, "GET", "/admin/reload")
        assert status == 405


class TestFleetLifecycle:
    def test_stop_is_clean_and_idempotent(self, index_path, workload,
                                          tmp_path):
        server = Served([index_path, "--workers", "2"], tmp_path / "s.log")
        replay(*server.address, workload[:20], concurrency=2)
        child = server.child_pid()
        server.process.send_signal(signal.SIGTERM)
        server.process.send_signal(signal.SIGTERM)  # a second is a no-op
        assert server.process.wait(60) == 0
        assert "drained cleanly" in server.log
        assert not os.path.exists(f"/proc/{child}")
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=2.0)
        server.kill()

    def test_an_orphaned_child_drains_and_exits(self, index_path, tmp_path):
        # With its supervisor SIGKILLed, the child sees its report
        # channel close, drains and exits by itself within its drain
        # grace, and no process of the server is left running.
        server = Served([index_path, "--workers", "2"], tmp_path / "s.log")
        try:
            os.kill(server.process.pid, signal.SIGKILL)
            server.process.wait(30)
            deadline = time.monotonic() + ServeConfig().drain_grace_s + 10
            while (_running_in_group(server.process.pid)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert _running_in_group(server.process.pid) == [], server.log
        finally:
            server.kill()
        assert "drained cleanly" in server.log


class TestFleetTracing:
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
        # One process answers, so the trace links each request span to
        # its scan span inside it; a sampled traceparent from the
        # client parents the request span.
        from repro.obs import validate_chrome_trace

        host, port = fleet
        rng = random.Random(71)  # pairs the cache has not seen
        fresh = [(rng.randrange(200), rng.randrange(200)) for _ in range(40)]
        replay(host, port, fresh, concurrency=4, trace_every=1)
        status, body = _http(
            host, port, "POST", "/admin/trace?format=chrome&clear=1"
        )
        assert status == 200
        payload = json.loads(body)
        assert validate_chrome_trace(payload) == []
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len({s["pid"] for s in spans}) == 1
        by_span_id = {s["args"]["span_id"]: s for s in spans}
        requests = [s for s in spans if s["name"] == "serve.request"]
        assert requests and all(s["args"]["parent_id"] for s in requests)
        scans = [s for s in spans if s["name"] == "serve.scan_batch"]
        assert scans and all(
            by_span_id.get(s["args"]["parent_id"], {}).get("name")
            == "serve.request"
            for s in scans
        )

    def test_fragment_format_returns_router_fragment(self, fleet):
        # The fragment is the answering process's own.
        host, port = fleet
        status, body = _http(
            host, port, "POST", "/admin/trace?format=fragment"
        )
        assert status == 200
        fragment = json.loads(body)
        assert fragment["role"] == "server"
        assert "wall_at_epoch" in fragment

    def test_trace_capture_requires_post(self, fleet):
        host, port = fleet
        status, _ = _http(host, port, "GET", "/admin/trace")
        assert status == 405


# ----------------------------------------------------------------------
# self-healing: respawn, WAL recovery, flap circuit
# ----------------------------------------------------------------------
def _live_args(tmp_path, graph, *extra):
    """``serve --workers 2`` over a CTL index of ``graph``, live, with
    a WAL and a fast probe."""
    index_path = tmp_path / "index.bin"
    graph_path = tmp_path / "graph.json"
    save_index(CTLIndex.build(graph), index_path, format="binary")
    write_json(graph, graph_path)
    return [
        index_path, "--workers", "2", "--live-updates",
        "--graph", graph_path, "--wal-dir", tmp_path / "wal",
        "--probe-interval-s", "0.2", *extra,
    ]


class TestFleetSelfHealing:
    """``kill -9`` of the answering child under a sustained query
    replay *and* a live-update stream.  It is respawned on the same
    port, its generation shows in ``/stats``, the respawn recovers
    every acknowledged batch from the WAL, zero answers are wrong and
    availability is at least 0.9."""

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
        results = []
        stop = threading.Event()

        def push_batch(server, batch):
            payload = server.json(
                "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            for a, b, w in batch.updates:
                mirror.add_edge(a, b, w, mirror.count(a, b))
            snapshots.append(mirror.copy())
            return payload

        def hammer(host, port):
            while not stop.is_set():
                s, t = query_pool[len(results) % len(query_pool)]
                try:
                    status, body = _http(
                        host, port, "GET", f"/query?source={s}&target={t}"
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

        server = Served(_live_args(tmp_path, graph), tmp_path / "s.log")
        try:
            push_batch(server, batches[0])
            push_batch(server, batches[1])
            load = threading.Thread(target=hammer, args=server.address)
            load.start()
            time.sleep(0.3)
            os.kill(server.child_pid(), signal.SIGKILL)
            # The batch sent while the child is down waits in the
            # accept backlog and is applied by the respawn.
            push_batch(server, batches[2])
            stats = server.wait_generation(1)
            assert stats["live"]["seqno"] == 3
            payload = push_batch(server, batches[3])
            assert (payload["epoch"], payload["seqno"]) == (1, 4)
            stop.set()
            load.join()
            # The respawn answers with the final weights.
            for s, t in query_pool[:20]:
                row = server.json("GET", f"/query?source={s}&target={t}")
                assert (row["distance"], row["count"]) == _wire(
                    spc_query(mirror, s, t)
                ), (s, t)
        finally:
            stop.set()
            server.stop()
        assert "generation 1" in server.log

        # Availability: the kill may fail the requests in flight once.
        ok = sum(1 for r in results if r[2] == 200)
        assert results, "query hammer never ran"
        assert ok / len(results) >= 0.9, f"availability {ok}/{len(results)}"
        # Zero wrong answers: every 200 matches counting Dijkstra on
        # one of the graph states the server passed through.
        allowed = {}
        for s, t, status, distance, count in results:
            if status != 200:
                continue
            if (s, t) not in allowed:
                allowed[(s, t)] = {
                    _wire(spc_query(snapshot, s, t))
                    for snapshot in snapshots
                }
            assert (distance, count) in allowed[(s, t)], (
                s, t, distance, count, sorted(allowed[(s, t)]),
            )

    def test_flap_circuit_keeps_a_crash_looping_worker_down(
        self, index_path, tmp_path
    ):
        # Every child SIGKILLs itself on its first query: after
        # flap_max_restarts (5) deaths inside flap_window_s the
        # supervisor gives up and exits non-zero.
        args = [index_path, "--workers", "2",
                "--fault-plan", "worker.kill:1.0"]
        server = Served(args, tmp_path / "serve.log")
        try:
            deadline = time.time() + 60
            while server.process.poll() is None:
                assert time.time() < deadline, server.log
                try:
                    server.request("GET", "/query?source=0&target=1",
                                   timeout=5.0)
                except OSError:
                    pass
                time.sleep(0.05)
            assert server.process.returncode == 1, server.log
        finally:
            server.kill()
        log = server.log
        assert log.count("exited with code -9") == 5, log
        assert "flap circuit" in log
        assert "generation 4" in log and "generation 5" not in log


class TestFleetNonFiniteUpdate:
    """A weight of NaN, Infinity or an overflowing literal is refused
    with a 400 before anything is applied: neither the seqno nor the
    write-ahead log moves."""

    def test_router_rejects_non_finite_weights(self, tmp_path):
        graph = road_network(60, seed=4)
        a, b, weight, _count = next(iter(graph.edges()))
        wal_dir = tmp_path / "wal"

        def wal_bytes():
            return sorted(
                (path.name, path.stat().st_size)
                for path in wal_dir.rglob("*") if path.is_file()
            )

        with Served(_live_args(tmp_path, graph),
                    tmp_path / "s.log") as server:
            before = wal_bytes()
            assert server.stats()["live"]["seqno"] == 0
            for literal in (b"NaN", b"Infinity", b"-Infinity", b"1e400"):
                with socket.create_connection(server.address,
                                              timeout=30.0) as sock:
                    body = b'{"updates": [[%d, %d, %s]]}' % (a, b, literal)
                    sock.sendall(
                        b"POST /admin/update HTTP/1.1\r\nHost: x\r\n"
                        b"Connection: close\r\nContent-Length: %d\r\n"
                        b"\r\n%s" % (len(body), body)
                    )
                    data = b""
                    while chunk := sock.recv(65536):
                        data += chunk
                status = int(data[9:12])
                payload = json.loads(data.partition(b"\r\n\r\n")[2])
                assert status == 400, (literal, payload)
                assert payload["applied"] is False
            assert server.stats()["live"]["seqno"] == 0
            assert wal_bytes() == before
            # It still takes a well-formed batch.
            server.json("POST", "/admin/update",
                        {"updates": [[a, b, weight + 1]]})
            assert server.stats()["live"]["seqno"] == 1


class TestFleetAllWorkersDown:
    """While the answering child is down, the supervisor still holds
    the listening socket: a query waits in the accept backlog and the
    respawn answers it, instead of being refused or left hanging."""

    def test_query_is_503_with_retry_after(self, index_path, index,
                                           tmp_path):
        with Served([index_path, "--workers", "2"],
                    tmp_path / "serve.log") as server:
            os.kill(server.child_pid(), signal.SIGKILL)
            status, headers, body = server.request(
                "GET", "/query?source=0&target=1"
            )
            assert status == 200, body
            row = json.loads(body)
            assert (row["distance"], row["count"]) == _wire(index.query(0, 1))
            assert headers["X-Request-Id"]
            assert server.stats()["supervisor"]["generation"] == 1
            status, _, body = server.request(
                "POST", "/query", {"pairs": [[0, 1], [2, 3]]}
            )
            assert status == 200, body


class TestFleetAnalytics:
    def test_stats_carry_per_worker_rows_and_merged_top_pairs(
        self, served, workload
    ):
        # One process, one sketch: every query shows in its top_pairs.
        hot = workload[0]
        for _ in range(25):
            served.request("GET", f"/query?source={hot[0]}&target={hot[1]}")
        payload = served.stats()
        assert payload["supervisor"]["generation"] == 0
        window = payload["window"]
        assert {"requests", "qps", "latency_ms", "cache_hit_rate"} <= set(
            window
        )
        top = payload["top_pairs"]
        assert top["sketch"]["total"] > 0
        assert sorted(hot) in [entry["pair"] for entry in top["top"]]
        attribution = top["cache_attribution"]
        assert attribution["hot"]["hits"] + attribution["hot"][
            "misses"
        ] > 0


# ----------------------------------------------------------------------
# the result cache
# ----------------------------------------------------------------------
class TestRouterCache:
    def test_second_pass_is_answered_by_the_router(
        self, fleet, index, workload
    ):
        # ...from the result cache.
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
        assert after["serve.requests"] - before["serve.requests"] == len(
            pairs
        )

    def test_hit_is_byte_identical_to_the_worker_answer(
        self, fleet, workload
    ):
        # A hit's body is the body of the scan it saved.
        host, port = fleet
        source, target = workload[7]
        path = f"/query?source={source}&target={target}"
        first = request(host, port, "GET", path)
        second = request(host, port, "GET", path)
        assert first[0] == second[0] == 200
        assert first[2] == second[2]
        assert second[1]["X-Request-Id"]
        status, headers, body = request(
            host, port, "GET", path, headers={"X-Request-Id": "mine-7"}
        )
        assert body == first[2]
        assert headers["X-Request-Id"] == "mine-7"

    def test_batch_is_scattered_only_for_its_misses(
        self, fleet, index, workload
    ):
        host, port = fleet
        cached = workload[:10]
        replay(host, port, cached, concurrency=1)
        pairs = cached + workload[200:210]
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
        self, graph, index_path, tmp_path
    ):
        # A warm cache never outlives a reload: after the reload's 200
        # every answer, hits included, is the new file's.
        changed = graph.copy()
        for i, (a, b, w, count) in enumerate(sorted(graph.edges())):
            if a < b and i % 3 == 0:
                changed.add_edge(a, b, w + 13, count)
        next_path = tmp_path / "next.bin"
        next_index = CTLSIndex.build(changed)
        save_index(next_index, next_path, format="binary")
        vertices = sorted(graph.vertices())
        pairs = [(vertices[i], vertices[-1 - i]) for i in range(0, 60, 3)]
        with Served([index_path, "--workers", "2"],
                    tmp_path / "serve.log") as server:
            for _ in range(2):
                replay(*server.address, pairs, concurrency=2)
            server.json("POST", "/admin/reload", {"path": str(next_path)})
            report = replay(
                *server.address, pairs * 2, concurrency=2,
                collect_results=True,
            )
        _assert_no_wrong_answers(report.results, next_index)
        moved = [p for p in pairs
                 if _wire(next_index.query(*p)) != _wire(spc_query(graph, *p))]
        assert moved, "the reload changed no answer"

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

        def answers(server):
            got = {}
            for s, t in pairs:
                row = server.json("GET", f"/query?source={s}&target={t}")
                got[(s, t)] = (row["distance"], row["count"])
            rows = server.json(
                "POST", "/query", {"pairs": [[s, t] for s, t in pairs]}
            )["results"]
            for (s, t), row in zip(pairs, rows):
                assert (row["distance"], row["count"]) == got[(s, t)]
            return got

        args = _live_args(tmp_path, graph, "--probe-interval-s", "0")
        with Served(args, tmp_path / "s.log") as server:
            answers(server)
            hits_before = server.counters()["serve.cache.hits"]
            previous = answers(server)  # the warm pass: all hits
            assert server.counters()[
                "serve.cache.hits"
            ] - hits_before >= 2 * len(pairs)
            for batch in batches:
                server.json("POST", "/admin/update", {"updates": batch})
                for a, b, w in batch:
                    mirror.add_edge(a, b, w, mirror.count(a, b))
                got = answers(server)
                for s, t in pairs:
                    assert got[(s, t)] == _wire(spc_query(mirror, s, t)), (
                        s, t,
                    )
                moved = [pair for pair in pairs if got[pair] != previous[pair]]
                assert moved, "the batch changed no answer"
                previous = got


# ----------------------------------------------------------------------
# drain and back-pressure
# ----------------------------------------------------------------------
def _parse_responses(data):
    answered = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        headers = dict(line.split(b": ", 1) for line in lines[1:])
        length = int(headers[b"Content-Length"])
        answered.append(
            (int(lines[0][9:12]), headers[b"X-Request-Id"],
             json.loads(rest[:length]))
        )
        data = rest[length:]
    return answered


class TestFleetDrain:
    def test_shutdown_answers_every_pipelined_request(
        self, index_path, index, workload, tmp_path
    ):
        # Slow scans (40 ms each) keep the pipelined window in flight
        # at the child when SIGTERM reaches the supervisor, which
        # forwards it: every request is answered, in order, before the
        # connection closes, and the supervisor exits 0.
        args = [index_path, "--workers", "2",
                "--fault-plan", "scan.slow:1.0@40"]
        pairs = list(dict.fromkeys(workload))[:32]
        server = Served(args, tmp_path / "serve.log")
        try:
            sock = socket.create_connection(server.address, timeout=30.0)
            with sock:
                sock.sendall(b"".join(
                    f"GET /query?source={s}&target={t} HTTP/1.1\r\n"
                    f"Host: x\r\nX-Request-Id: drain-{i}\r\n\r\n".encode()
                    for i, (s, t) in enumerate(pairs)
                ))
                time.sleep(0.3)
                server.process.send_signal(signal.SIGTERM)
                data = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert server.process.wait(60) == 0
        finally:
            server.kill()
        answered = _parse_responses(data)
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
        self, index_path, tmp_path
    ):
        # One client pipelines a flood of one cached query and reads
        # nothing.  The server stops reading that connection once its
        # answers back up, instead of buffering them all, and other
        # clients are still served.
        total = 50000
        request = b"GET /query?source=3&target=150 HTTP/1.1\r\nHost: x\r\n\r\n"
        with Served([index_path, "--workers", "2"],
                    tmp_path / "serve.log") as server:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(60.0)
            sock.connect(server.address)
            sender = threading.Thread(
                target=sock.sendall, args=(request * total,), daemon=True
            )
            sender.start()
            try:
                time.sleep(1.0)
                before = server.counters()["serve.requests"]
                time.sleep(0.5)
                after = server.counters()["serve.requests"]
                # Stalled well short of the flood.
                assert after == before
                assert after < total // 2
                answered, tail = 0, b""
                while answered < total:
                    chunk = sock.recv(1 << 20)
                    assert chunk, f"closed after {answered} answers"
                    text = tail + chunk
                    answered += text.count(b"HTTP/1.1 200 ")
                    tail = text[-12:]
                assert answered == total
            finally:
                sock.close()
                sender.join(10.0)

    def test_pipelined_misses_in_flight_stop_at_the_pipeline_depth(
        self, index, workload, monkeypatch
    ):
        # The child's configuration in-process: a server accepting on
        # a socket its supervisor bound.  Slow scans keep every answer
        # of the window unwritten; it reads no further than
        # _PIPELINE_DEPTH unanswered requests ahead.
        from repro.serve import frontend

        peak = 0
        queue = frontend._Connection.queue

        def counting_queue(conn, answer, keep_alive):
            nonlocal peak
            queue(conn, answer, keep_alive)
            peak = max(peak, len(conn.out))

        monkeypatch.setattr(frontend._Connection, "queue", counting_queue)
        listener = socket.create_server(("127.0.0.1", 0))
        channel, child_end = socket.socketpair()
        thread = ServerThread(
            index, ServeConfig(port=0),
            fault_plan=FaultPlan.parse("scan.slow:1.0@5"),
            supervised=Supervised(listener, 0, child_end),
        )
        pairs = list(dict.fromkeys(workload))[: 2 * _PIPELINE_DEPTH + 20]
        host, port = thread.start()
        assert port == listener.getsockname()[1]
        try:
            with socket.create_connection((host, port), timeout=30.0) as sock:
                sock.sendall(b"".join(
                    f"GET /query?source={s}&target={t} HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n".encode()
                    for s, t in pairs
                ))
                data = b""
                while data.count(b"HTTP/1.1 ") < len(pairs):
                    chunk = sock.recv(65536)
                    assert chunk
                    data += chunk
        finally:
            thread.stop()
            listener.close()
            channel.close()
            child_end.close()
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
                    break  # the server closes after the 400
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
