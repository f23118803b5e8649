"""Live updates over HTTP: single server and the coordinated fleet.

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
* a fleet worker is a replica: ``POST /admin/install`` takes a batch's
  diff at exactly ``seqno + 1``, or the router's whole state;
* a fleet's router applies each batch once, installs it on every
  worker, and runs the rebuild-and-swap for the whole fleet.
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
from repro.live import (
    LiveIndex,
    UpdateCoordinator,
    patch_rows,
    synthesize_deltas,
)
from repro.serve import FleetThread, ServeConfig, ServerThread
from repro.search.pairwise import spc_query
from repro.types import INF


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

    def test_install_diff_and_whole_state(self, graph, tmp_path):
        # A replica serves what the router installs: a batch's diff at
        # seqno + 1, then the router's whole state on a new base.
        index = CTLIndex.build(graph)
        router = UpdateCoordinator(graph, index)
        replica = ServerThread(
            LiveIndex(index), ServeConfig(port=0, live_updates=True)
        )
        with replica as (host, port):
            mirror = graph.copy()
            for batch in synthesize_deltas(graph, batches=2, seed=4):
                report = router.apply_batch(batch.updates)
                status, payload = _http(
                    host, port, "POST", "/admin/install",
                    {"epoch": report.epoch, "seqno": report.seqno,
                     "changed": patch_rows(report.changed)},
                )
                assert status == 200, payload
                _mirror_apply(mirror, batch.updates)
                _assert_parity(host, port, mirror, seed=5, samples=20)
            _, stats = _http(host, port, "GET", "/stats")
            assert (stats["live"]["epoch"], stats["live"]["seqno"]) == (1, 2)
            # The whole state replaces whatever the replica held, base
            # file included.
            rebuilt = tmp_path / "rebuilt.bin"
            save_index(CTLIndex.build(router.graph), rebuilt, format="binary")
            router.adopt_base(load_index(rebuilt), 2)
            state = router.live_index.state
            status, payload = _http(
                host, port, "POST", "/admin/install",
                {"base": str(rebuilt), "epoch": state.epoch,
                 "seqno": state.seqno, "patches": patch_rows(state.patches)},
            )
            assert status == 200, payload
            _, stats = _http(host, port, "GET", "/stats")
            assert (stats["live"]["epoch"], stats["live"]["seqno"]) == (2, 2)
            _assert_parity(host, port, mirror, seed=6, samples=20)

    def test_install_refuses_a_diff_out_of_order(self, graph):
        index = CTLIndex.build(graph)
        router = UpdateCoordinator(graph, index)
        replica = ServerThread(
            LiveIndex(index), ServeConfig(port=0, live_updates=True)
        )
        batches = synthesize_deltas(graph, batches=2, seed=7)
        first = router.apply_batch(batches[0].updates)
        second = router.apply_batch(batches[1].updates)
        with replica as (host, port):
            # The second diff does not follow seqno 0: refused, and
            # nothing changes.
            status, payload = _http(
                host, port, "POST", "/admin/install",
                {"epoch": second.epoch, "seqno": second.seqno,
                 "changed": patch_rows(second.changed)},
            )
            assert status == 409, payload
            assert payload["installed"] is False
            assert "does not follow" in payload["error"]
            _, stats = _http(host, port, "GET", "/stats")
            assert stats["live"]["seqno"] == 0
            _assert_parity(host, port, graph, seed=8, samples=20)
            # Rows that do not fit the served base — a position past the
            # row, an unindexed vertex, a negative position — and a whole
            # state with a null entry: each refused, none counted.
            vertex = min(graph.vertices())
            unfit = [
                [[vertex, 10**6, 1, 1]],
                [[999999, 0, 2, 3]],
                [[vertex, -1, 5, 5]],
                [[vertex, 10**6, 1, 1], [999999, 0, 2, 3], [vertex, -1, 5, 5]],
            ]
            for rows in unfit:
                status, payload = _http(
                    host, port, "POST", "/admin/install",
                    {"epoch": first.epoch, "seqno": first.seqno,
                     "changed": rows},
                )
                assert status == 409, (rows, payload)
                assert payload["installed"] is False
            status, payload = _http(
                host, port, "POST", "/admin/install",
                {"base": None, "epoch": 1, "seqno": 5,
                 "patches": [[vertex, 0, None, None]]},
            )
            assert status == 409, payload
            _, stats = _http(host, port, "GET", "/stats")
            assert (stats["live"]["seqno"], stats["live"]["overlay_entries"]) \
                == (0, 0)
            _assert_parity(host, port, graph, seed=8, samples=20)
            status, _ = _http(
                host, port, "POST", "/admin/install",
                {"epoch": first.epoch, "seqno": first.seqno,
                 "changed": patch_rows(first.changed)},
            )
            assert status == 200
        # A server with a coordinator of its own repairs its own
        # overlay: it takes no install.
        thread, _ = _live_server(graph)
        with thread as (host, port):
            status, payload = _http(
                host, port, "POST", "/admin/install",
                {"epoch": 1, "seqno": 1, "changed": []},
            )
            assert status == 409, payload

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
        config = ServeConfig(
            port=0, live_updates=True, overlay_threshold=60
        )
        thread = FleetThread(
            index_path, 2, config, live_graph_path=str(graph_path)
        )
        host, port = thread.start()
        # One shared mirror: the fleet's graph state is cumulative
        # across the tests in this class.
        yield graph, graph.copy(), host, port
        thread.stop()

    def test_fleet_updates_apply_everywhere(self, live_fleet):
        graph, mirror, host, port = live_fleet
        for i, batch in enumerate(
            synthesize_deltas(graph, batches=3, seed=13)
        ):
            status, payload = _http(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            assert status == 200, payload
            assert payload["applied"] and payload["workers"] == 2
            assert payload["seqno"] == i + 1
            _mirror_apply(mirror, batch.updates)
            # Parity on every worker: the sample spans the hash ring.
            _assert_parity(host, port, mirror, seed=60 + i)

    def test_fleet_rejects_bad_batch_everywhere(self, live_fleet):
        graph, _mirror, host, port = live_fleet
        _, before = _http(host, port, "GET", "/stats")
        status, payload = _http(
            host, port, "POST", "/admin/update",
            {"updates": [[10**9, 0, 5]]},
        )
        # The router's live tier rejects it as a single server does,
        # before any weight is written or any worker hears of it.
        assert status == 400
        assert payload["applied"] is False and payload["error"]
        _, after = _http(host, port, "GET", "/stats")
        assert after["live"]["applied_batches"] == (
            before["live"]["applied_batches"]
        )

    def test_fleet_coordinated_rebuild(self, live_fleet):
        graph, mirror, host, port = live_fleet
        # Drive the overlay past the threshold, then wait for the
        # router's single-flight rebuild to swap every worker.
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


class TestInstallBody:
    """The install body a fleet router ships carries every value a
    patch can hold, bit for bit: ``INF`` (a hub became unreachable),
    an unpatch, a float distance and a count past ``2**63``."""

    def test_diffs_round_trip_bit_for_bit(self, graph):
        import asyncio

        from repro.live import OverlayState, UpdateReport
        from repro.serve.fleet import FleetRouter, _Worker

        index = CTLIndex.build(graph)
        v1, v2 = sorted(graph.vertices())[:2]
        diffs = [
            {v1: {0: (INF, 0), 1: (2.5, 3)}, v2: {0: (7, 2**64 + 3)}},
            {v1: {1: None}, v2: {1: (1.0, 1), 0: (7.0, 2**63)}},
        ]
        router = FleetRouter("unused.bin", 1, ServeConfig())
        router.workers = [_Worker(0, None, None)]
        bodies = []

        async def capture(method, url, body=None, *, resend=False):
            bodies.append(body)
            return [(router.workers[0], (200, {}, b"{}"))]

        router._fanout = capture
        expected = OverlayState.initial()
        for changed in diffs:
            expected = expected.with_batch(changed)
            report = UpdateReport(
                epoch=1, seqno=expected.seqno, submitted_edges=0,
                updated_edges=0, repaired_nodes=0, overlay_entries=0,
                changed=changed,
            )
            asyncio.run(router._publish_batch(report))
        replica = ServerThread(
            LiveIndex(index), ServeConfig(port=0, live_updates=True)
        )
        with replica as (host, port):
            for body in bodies:
                status, payload = _post_raw(
                    host, port, "/admin/install", body
                )
                assert status == 200, payload
            state = replica.server.live.state
        assert (state.epoch, state.seqno) == (expected.epoch, expected.seqno)
        assert state.patches == expected.patches
        assert repr(sorted(state.patches.items())) == repr(
            sorted(expected.patches.items())
        )
        assert type(state.patches[v2][1][0]) is float
        assert state.patches[v2][0][1] == 2**63
        assert state.patches[v1] == {0: (INF, 0)}
