"""Live updates over HTTP: a server alone and under a supervisor.

The serving contract under streaming deltas:

* ``POST /admin/update`` applies a batch atomically — a 200 means
  every subsequent query reflects the new weights, bit-identical to
  counting Dijkstra on the updated graph;
* versioning (epoch/seqno) is echoed in update responses, ``/stats``,
  ``/metrics``, and ``--explain`` payloads;
* the result cache is invalidated only for pairs touching patched
  vertices;
* past the overlay threshold a background rebuild swaps in a fresh
  base index without changing any answer;
* under ``serve --workers 2`` the one supervised process applies each
  batch, logs it and runs the rebuild-and-swap, saving the rebuilt
  base for its write-ahead log to pin.
"""

import http.client
import json
import random
import time

import pytest

from repro.core.ctl import CTLIndex
from repro.core.serialize import load_index, save_index
from repro.graph.generators import road_network
from repro.graph.io import write_json
from repro.live import UpdateCoordinator, synthesize_deltas
from repro.serve import ServeConfig, ServerThread
from repro.search.pairwise import spc_query
from repro.types import INF
from tests.serve.supervised import Served


def _http(host, port, method, path, payload=None):
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        try:
            return response.status, json.loads(raw)
        except json.JSONDecodeError:
            return response.status, raw
    finally:
        conn.close()


def _assert_parity(host, port, mirror, *, seed, samples=60):
    rng = random.Random(seed)
    vertices = sorted(mirror.vertices())
    for _ in range(samples):
        s, t = rng.choice(vertices), rng.choice(vertices)
        status, payload = _http(
            host, port, "GET", f"/query?source={s}&target={t}"
        )
        assert status == 200
        expect = spc_query(mirror, s, t)
        distance = None if expect.distance >= INF else expect.distance
        assert payload["count"] == expect.count, (s, t, payload)
        assert payload["distance"] == distance, (s, t, payload)


def _post_raw(host, port, path, body):
    """POST ``body`` bytes as-is (``json.dumps`` cannot write 1e400)."""
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("POST", path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


#: Update bodies whose weight is not a finite number.  Python's json
#: module reads all three; none of them is JSON.
NON_FINITE_BODIES = [
    b'{"updates": [[%d, %d, NaN]]}',
    b'{"updates": [[%d, %d, Infinity]]}',
    b'{"updates": [[%d, %d, 1e400]]}',
]


def _mirror_apply(mirror, updates):
    for a, b, w in updates:
        mirror.add_edge(a, b, w, mirror.count(a, b))


@pytest.fixture(scope="module")
def graph():
    return road_network(120, seed=9)


def _live_server(graph, **config_kwargs):
    index = CTLIndex.build(graph)
    coordinator = UpdateCoordinator(
        graph,
        index,
        overlay_threshold=config_kwargs.get("overlay_threshold", 0),
    )
    config = ServeConfig(port=0, live_updates=True, **config_kwargs)
    return ServerThread(index, config, updates=coordinator), coordinator


class TestSingleServer:
    def test_update_then_query_parity(self, graph):
        thread, _ = _live_server(graph)
        with thread as (host, port):
            mirror = graph.copy()
            for i, batch in enumerate(
                synthesize_deltas(graph, batches=3, seed=1)
            ):
                status, payload = _http(
                    host, port, "POST", "/admin/update",
                    {"updates": [list(u) for u in batch.updates]},
                )
                assert status == 200, payload
                assert payload["applied"]
                assert payload["seqno"] == i + 1
                _mirror_apply(mirror, batch.updates)
                _assert_parity(host, port, mirror, seed=50 + i)

    def test_stats_metrics_and_explain_versioning(self, graph):
        thread, _ = _live_server(graph)
        with thread as (host, port):
            batch = synthesize_deltas(graph, batches=1, seed=2)[0]
            _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            _, stats = _http(host, port, "GET", "/stats")
            assert stats["live"]["seqno"] == 1
            assert stats["live"]["epoch"] == 1
            assert stats["live"]["applied_batches"] == 1
            _, metrics = _http(host, port, "GET", "/metrics")
            assert metrics["gauges"]["live.seqno"] == 1
            vertices = sorted(graph.vertices())
            _, q = _http(
                host, port, "GET",
                f"/query?source={vertices[0]}&target={vertices[-1]}"
                "&explain=1",
            )
            counters = q["explain"]
            assert counters["epoch"] == 1
            assert counters["seqno"] == 1
            assert isinstance(counters["poisoned"], bool)

    def test_update_disabled_is_409(self, graph):
        index = CTLIndex.build(graph)
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            status, payload = _http(
                host, port, "POST", "/admin/update",
                {"updates": [[0, 1, 2]]},
            )
            assert status == 409
            assert "not enabled" in payload["error"]

    def test_update_requires_post(self, graph):
        thread, _ = _live_server(graph)
        with thread as (host, port):
            status, _ = _http(host, port, "GET", "/admin/update")
            assert status == 405

    def test_malformed_and_unknown_edges_rejected(self, graph):
        thread, _ = _live_server(graph)
        with thread as (host, port):
            for payload in (
                {"updates": "nope"},
                {"updates": [[1, 2]]},
                {"updates": [[10**9, 0, 5]]},
                {},
            ):
                status, response = _http(
                    host, port, "POST", "/admin/update", payload
                )
                assert status == 400, response
                assert response["applied"] is False
            # The graph is untouched: queries still match the original.
            _assert_parity(host, port, graph, seed=3, samples=20)

    def test_non_finite_weights_rejected(self, graph):
        thread, coordinator = _live_server(graph)
        a, b, weight, _count = next(iter(graph.edges()))
        with thread as (host, port):
            for template in NON_FINITE_BODIES:
                status, response = _post_raw(
                    host, port, "/admin/update", template % (a, b)
                )
                assert status == 400, (template, response)
                assert response["applied"] is False
            _, stats = _http(host, port, "GET", "/stats")
            assert stats["live"]["seqno"] == 0
            assert coordinator.graph.weight(a, b) == weight
            _assert_parity(host, port, graph, seed=13, samples=20)

    def test_update_reports_repaired_entries(self, graph):
        thread, _ = _live_server(graph)
        with thread as (host, port):
            batch = synthesize_deltas(graph, batches=1, seed=15)[0]
            status, payload = _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            assert status == 200, payload
            assert payload["repaired_nodes"] > 0
            assert payload["repaired_entries"] >= 0
            _, metrics = _http(host, port, "GET", "/metrics")
        assert metrics["counters"].get("live.repair.entries", 0) == (
            payload["repaired_entries"]
        )

    def test_cache_invalidation_is_targeted(self, graph):
        thread, coordinator = _live_server(graph)
        with thread as (host, port):
            vertices = sorted(graph.vertices())
            rng = random.Random(9)
            pairs = [
                (rng.choice(vertices), rng.choice(vertices))
                for _ in range(50)
            ]
            for s, t in pairs:
                _http(host, port, "GET", f"/query?source={s}&target={t}")
            server = thread.server
            cached_before = len(server.cache)
            assert cached_before > 0
            batch = synthesize_deltas(graph, batches=1, seed=10)[0]
            status, payload = _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            assert status == 200
            # Only pairs touching patched vertices were dropped; the
            # patched-vertex set is usually far smaller than the graph.
            assert payload["cache_dropped"] <= cached_before
            changed = set(coordinator.live_index.state.patches)
            for key in list(server.cache._entries):
                assert key[0] not in changed and key[1] not in changed

    def test_threshold_rebuild_bumps_epoch_keeps_answers(self, graph):
        thread, _ = _live_server(graph, overlay_threshold=40)
        with thread as (host, port):
            mirror = graph.copy()
            batch = synthesize_deltas(
                graph, batches=1, edges_per_batch=6, seed=11
            )[0]
            status, payload = _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            assert status == 200
            _mirror_apply(mirror, batch.updates)
            if payload["rebuild_due"]:
                deadline = time.time() + 60
                while time.time() < deadline:
                    _, stats = _http(host, port, "GET", "/stats")
                    if stats["live"]["rebuilds"] >= 1:
                        break
                    time.sleep(0.1)
                assert stats["live"]["epoch"] == 2
                assert stats["live"]["overlay_entries"] == 0
            _assert_parity(host, port, mirror, seed=12)

    def test_plain_reload_rejected_in_live_mode(self, graph, tmp_path):
        thread, _ = _live_server(graph)
        with thread as (host, port):
            status, payload = _http(
                host, port, "POST", "/admin/reload",
                {"path": str(tmp_path / "other.bin")},
            )
            assert status in (400, 409)
            assert "rebuild" in json.dumps(payload)


class TestFleet:
    @pytest.fixture(scope="class")
    def live_fleet(self, tmp_path_factory):
        graph = road_network(120, seed=9)
        tmp = tmp_path_factory.mktemp("live_fleet")
        index_path = tmp / "index.bin"
        graph_path = tmp / "graph.json"
        save_index(CTLIndex.build(graph), index_path, format="binary")
        write_json(graph, graph_path)
        server = Served(
            [index_path, "--workers", "2", "--live-updates",
             "--graph", graph_path, "--wal-dir", tmp / "wal",
             "--overlay-threshold", "60"],
            tmp / "serve.log",
        )
        # One shared mirror: the server's graph state is cumulative
        # across the tests in this class.
        yield graph, graph.copy(), server.host, server.port, index_path
        server.stop()

    def test_fleet_updates_apply_everywhere(self, live_fleet):
        graph, mirror, host, port, _ = live_fleet
        for i, batch in enumerate(
            synthesize_deltas(graph, batches=3, seed=13)
        ):
            status, payload = _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            assert status == 200, payload
            assert payload["applied"]
            assert payload["seqno"] == i + 1
            _mirror_apply(mirror, batch.updates)
            _assert_parity(host, port, mirror, seed=60 + i)

    def test_fleet_rejects_bad_batch_everywhere(self, live_fleet):
        graph, _mirror, host, port, _ = live_fleet
        _, before = _http(host, port, "GET", "/stats")
        status, payload = _http(
            host, port, "POST", "/admin/update",
            {"updates": [[10**9, 0, 5]]},
        )
        # Rejected before any weight is written or logged.
        assert status == 400
        assert payload["applied"] is False and payload["error"]
        _, after = _http(host, port, "GET", "/stats")
        assert after["live"]["applied_batches"] == (
            before["live"]["applied_batches"]
        )

    def test_fleet_coordinated_rebuild(self, live_fleet):
        graph, mirror, host, port, index_path = live_fleet
        # Drive the overlay past the threshold, then wait for the
        # single-flight rebuild to swap the base.
        for batch in synthesize_deltas(
            graph, batches=2, edges_per_batch=6, seed=14
        ):
            status, _ = _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            assert status == 200
            _mirror_apply(mirror, batch.updates)
        deadline = time.time() + 90
        rebuilt = False
        while time.time() < deadline:
            _, stats = _http(host, port, "GET", "/stats")
            if stats["live"]["rebuilds"] >= 1:
                rebuilt = True
                break
            time.sleep(0.3)
        assert rebuilt, stats["live"]
        assert stats["live"]["epoch"] >= 2
        # Saved next to the served index for the WAL to pin.
        epoch = stats["live"]["epoch"]
        assert stats["live"]["base_path"] == f"{index_path}.epoch-{epoch}"
        assert load_index(stats["live"]["base_path"], verify=True)
        _assert_parity(host, port, mirror, seed=70)


class TestFreshnessTelemetry:
    """The ingest → validate → apply → visible pipeline is observable."""

    def test_update_populates_freshness_histogram(self, graph):
        thread, _ = _live_server(graph)
        with thread as (host, port):
            batch = synthesize_deltas(graph, batches=1, seed=21)[0]
            _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            _, metrics = _http(host, port, "GET", "/metrics")
            _, stats = _http(host, port, "GET", "/stats")
        freshness = metrics["histograms"]["live.freshness_ms"]
        assert freshness["count"] >= 1
        assert freshness["max"] >= 0.0
        live = stats["live"]
        assert live["staleness_s"] >= 0.0
        assert live["freshness_ms"]["count"] >= 1

    def test_update_pipeline_is_traced(self, graph):
        thread, _ = _live_server(graph)
        with thread as (host, port):
            batch = synthesize_deltas(graph, batches=1, seed=22)[0]
            _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            status, fragment = _http(
                host, port, "POST", "/admin/trace?format=fragment"
            )
        assert status == 200
        spans = {s["name"]: s for s in fragment["spans"]}
        for stage in ("live.ingest", "live.validate",
                      "live.overlay_apply"):
            assert stage in spans, sorted(spans)
            assert spans[stage]["parent_id"] == (
                spans["live.update"]["span_id"]
            )
            assert spans[stage]["trace_id"] == (
                spans["live.update"]["trace_id"]
            )
