"""Fleet misses answered by the router from the index it maps itself.

The router opens the same v4 file its workers serve and answers every
cache miss whose answer is exactly the owning worker's: on a static
fleet that is every well-formed pair; on a live fleet every pair that
is clean by the workers' own ``min_dirty`` rule, which the router
mirrors from their commit and readiness reports.  The contract pinned
here:

* a local answer is byte-identical to every worker's, and a static
  fleet answers hot GETs without a worker moving;
* after every acknowledged update batch, every pair equals counting
  Dijkstra, with both local and forwarded answers in play;
* after ``kill -9`` of the whole live fleet and a restart on the same
  WAL directory, the router maps the base the WAL pinned and every
  answer is still exact;
* a reload swaps the router's index with the workers', and a file the
  router cannot verify is refused fleet-wide.
"""

import asyncio
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.core.serialize import save_index
from repro.exceptions import ReproError
from repro.graph.generators import road_network
from repro.graph.io import write_json
from repro.live import synthesize_deltas
from repro.live.wal import WriteAheadLog, scan_wal
from repro.search.dijkstra import ssspc
from repro.serve import FleetThread, ServeConfig, replay
from repro.serve.fleet import FleetRouter, _Worker
from repro.types import INF


def _http(host, port, method, path, payload=None):
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _json(host, port, method, path, payload=None):
    status, body = _http(host, port, method, path, payload)
    assert status == 200, (path, status, body[:300])
    return json.loads(body)


def _counters(host, port):
    return _json(host, port, "GET", "/metrics")["counters"]


def _router_with_live_workers(path, config):
    """A router that was never started, with two workers marked live."""
    router = FleetRouter(path, 2, config)
    router.workers = [_Worker(worker_id, None, None) for worker_id in (0, 1)]
    return router


def _wire(distance, count):
    return (None if distance >= INF else distance, count)


def _all_pairs(graph):
    """Every unordered pair plus a few self-pairs, and the counting
    Dijkstra answer of each on ``graph``."""
    vertices = sorted(graph.vertices())
    expected = {}
    for source in vertices:
        dist, count = ssspc(graph, source)
        for target in vertices:
            if target >= source:
                expected[(source, target)] = _wire(
                    dist.get(target, INF), count.get(target, 0)
                )
    return expected


def _assert_fleet_matches(host, port, expected, *, gets=25, seed=0):
    """POST batches of every pair, plus hot GETs of a sample, equal
    ``expected``.  Batches stay below a worker's queue high-water mark,
    so a shard the router forwards is never shed."""
    pairs = sorted(expected)
    rows = []
    for start in range(0, len(pairs), 250):
        rows += _json(
            host, port, "POST", "/query",
            {"pairs": [list(p) for p in pairs[start : start + 250]]},
        )["results"]
    wrong = [
        (pair, (row.get("distance"), row.get("count")), expected[pair])
        for pair, row in zip(pairs, rows)
        if (row.get("distance"), row.get("count")) != expected[pair]
    ]
    assert not wrong, f"{len(wrong)} wrong batch answers: {wrong[:5]}"
    rng = random.Random(seed)
    for source, target in rng.sample(pairs, min(gets, len(pairs))):
        row = _json(
            host, port, "GET", f"/query?source={target}&target={source}"
        )
        assert (row["distance"], row["count"]) == expected[
            (source, target)
        ], (source, target, row)


# ----------------------------------------------------------------------
# static fleet
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def static_graph():
    return road_network(150, seed=21)


@pytest.fixture(scope="module")
def static_paths(tmp_path_factory, static_graph):
    """Index files of the graph (``a``), of the graph with changed
    weights (``b``), and a byte copy of ``a`` (``a_copy``)."""
    tmp = tmp_path_factory.mktemp("static")
    changed = static_graph.copy()
    for i, (a, b, weight, count) in enumerate(sorted(static_graph.edges())):
        if a < b and i % 3 == 0:
            changed.add_edge(a, b, weight + 13, count)
    paths = {"a": tmp / "a.bin", "b": tmp / "b.bin", "a_copy": tmp / "c.bin"}
    save_index(CTLSIndex.build(static_graph), paths["a"], format="binary")
    save_index(CTLSIndex.build(changed), paths["b"], format="binary")
    shutil.copyfile(paths["a"], paths["a_copy"])
    return paths, _all_pairs(static_graph), _all_pairs(changed)


class TestStaticFleet:
    def test_every_hot_get_is_answered_by_the_router(
        self, static_graph, static_paths
    ):
        paths, expected, _ = static_paths
        rng = random.Random(5)
        vertices = sorted(static_graph.vertices())
        workload = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(300)
        ]
        thread = FleetThread(
            paths["a"], 2, ServeConfig(port=0, probe_interval_s=0)
        )
        host, port = thread.start()
        try:
            workers = thread.router.workers
            before = [_counters("127.0.0.1", w.port) for w in workers]
            report = replay(
                host, port, workload, concurrency=4, collect_results=True
            )
            after = [_counters("127.0.0.1", w.port) for w in workers]
            router = _counters(host, port)
            assert report.availability == 1.0
            for source, target, _status, distance, count in report.results:
                key = (min(source, target), max(source, target))
                assert (distance, count) == expected[key], (source, target)
            misses = router["serve.cache.misses"]
            assert router["fleet.answers.local"] == misses > 0
            assert router.get("fleet.answers.forwarded", 0) == 0
            assert router["serve.requests"] >= len(workload)
            for was, now in zip(before, after):
                # No query reached a worker in between (serve.requests
                # counts /query requests only).
                assert now.get("serve.requests", 0) == was.get(
                    "serve.requests", 0
                )
                assert now.get("serve.responses.ok", 0) == was.get(
                    "serve.responses.ok", 0
                )
            # A local answer's body is every worker's, byte for byte,
            # for fresh misses and cache hits alike.
            for source, target in workload[:40] + [(7, 7), (90, 3)]:
                path = f"/query?source={source}&target={target}"
                status, body = _http(host, port, "GET", path)
                for worker in workers:
                    direct = _http("127.0.0.1", worker.port, "GET", path)
                    assert (status, body) == direct, (source, target)
        finally:
            thread.stop()

    def test_a_large_batch_is_forwarded_in_admitted_chunks(
        self, static_paths
    ):
        # Past the router's local-scan bound, a batch's members go to
        # the workers in chunks no worker sheds: every member is a 200.
        paths, expected, _ = static_paths
        pairs = sorted(expected)[:2000]
        config = ServeConfig(port=0, cache_size=0, probe_interval_s=0)
        with FleetThread(paths["a"], 2, config) as (host, port):
            before = _counters(host, port)
            status, body = _http(
                host, port, "POST", "/query",
                {"pairs": [list(pair) for pair in pairs]},
            )
            after = _counters(host, port)
        assert status == 200, body[:300]
        rows = json.loads(body)["results"]
        assert [(row["distance"], row["count"]) for row in rows] == [
            expected[pair] for pair in pairs
        ]
        forwarded = after.get("fleet.answers.forwarded", 0) - before.get(
            "fleet.answers.forwarded", 0
        )
        assert forwarded == len(pairs) - config.queue_high_water

    def test_nothing_is_answered_locally_across_a_commit(
        self, static_paths
    ):
        paths, expected, _ = static_paths
        path = str(paths["a"])
        router = _router_with_live_workers(path, ServeConfig(cache_size=0))
        pair = (3, 140)

        async def scenario():
            router._index = await router._open_index(path)
            router._index_path = path
            router._mirror_full([{"path": path}, {"path": path}])
            answer = router._local_answers([pair])[0]
            assert _wire(*answer) == expected[pair]
            gate = asyncio.Event()

            async def held_fanout(method, url, body=None, *, resend=False):
                await gate.wait()
                return []

            router._fanout = held_fanout
            commit = asyncio.ensure_future(
                router._commit("/admin/update/commit")
            )
            await asyncio.sleep(0)
            assert router._local_answers([pair]) == [None]
            gate.set()
            await commit
            # No worker reported the commit: the router cannot know the
            # state it left, so it forwards until a reload.
            assert router._local_answers([pair]) == [None]
            assert router._disagreement == "a worker did not report"
            router._mirror_full([{"path": path}, {"path": "other.bin"}])
            assert router._local_answers([pair]) == [None]
            router._mirror_full([{"path": path}, {"path": path}])
            assert router._local_answers([pair])[0] == answer

        asyncio.run(scenario())

    def test_commits_reach_the_mirror_in_commit_order(self, static_paths):
        # A coordinated rebuild's reload commit and an update commit
        # are issued back to back.  Each worker applies them in that
        # order on its one update thread, so the update fan-out must
        # not start — and its small report must not reach the mirror —
        # before the reload's whole-state report has.
        paths, expected, _ = static_paths
        path = str(paths["a"])
        router = _router_with_live_workers(path, ServeConfig(cache_size=0))
        pair = (3, 140)

        def replies(report):
            body = json.dumps(report).encode()
            return [(None, (200, {}, body)), (None, (200, {}, body))]

        async def scenario():
            router._index = await router._open_index(path)
            router._index_path = path
            whole = {"path": path, "epoch": 1, "seqno": 0, "min_dirty": []}
            router._mirror_full([whole, whole])
            assert _wire(*router._local_answers([pair])[0]) == (
                expected[pair]
            )
            reload_gate = asyncio.Event()
            fanned = []

            async def held_fanout(method, url, body=None, *, resend=False):
                fanned.append(url)
                if url == "/admin/reload/commit":
                    await reload_gate.wait()
                    return replies(dict(whole, epoch=2))
                return replies(
                    {
                        "path": path, "epoch": 2, "seqno": 1,
                        "min_dirty": [[pair[0], 0]],
                        "changed_vertices": [pair[0]],
                    }
                )

            router._fanout = held_fanout
            generation = router._generation
            reload = asyncio.ensure_future(
                router._commit("/admin/reload/commit")
            )
            await asyncio.sleep(0)
            update = asyncio.ensure_future(
                router._commit("/admin/update/commit")
            )
            for _ in range(5):
                await asyncio.sleep(0)
            assert fanned == ["/admin/reload/commit"]
            assert router._generation == generation + 1
            assert router._local_answers([pair]) == [None]
            reload_gate.set()
            await asyncio.gather(reload, update)
            assert fanned == ["/admin/reload/commit", "/admin/update/commit"]
            assert router._generation == generation + 4
            assert router._agreed, router._disagreement
            mirror = router._overlay
            assert (mirror.epoch, mirror.seqno) == (2, 1)
            assert mirror.min_dirty == {pair[0]: 0}
            # The batch poisoned the pair: a worker answers it now.
            assert router._local_answers([pair]) == [None]

        asyncio.run(scenario())

    def test_a_large_batch_is_scanned_locally_only_up_to_the_high_water(
        self, static_paths
    ):
        # The local scan runs on the router's loop: one request scans
        # at most ``queue_high_water`` pairs there, and forwards the
        # rest to the workers, whose admission control bounds them.
        paths, expected, _ = static_paths
        path = str(paths["a"])
        router = _router_with_live_workers(
            path, ServeConfig(cache_size=0, queue_high_water=4)
        )
        pairs = sorted(expected)[:10]

        async def scenario():
            router._index = await router._open_index(path)
            router._index_path = path
            router._mirror_full([{"path": path}, {"path": path}])
            return router._local_answers(pairs)

        answers = asyncio.run(scenario())
        assert answers[4:] == [None] * 6
        assert [_wire(*answer) for answer in answers[:4]] == [
            expected[pair] for pair in pairs[:4]
        ]

    def test_errors_stay_the_workers_own(self, static_paths):
        paths, _, _ = static_paths
        with FleetThread(paths["a"], 2, ServeConfig(port=0)) as (host, port):
            status, body = _http(
                host, port, "GET", "/query?source=0&target=999999"
            )
            assert status == 400 and b"not indexed" in body
            status, body = _http(
                host, port, "POST", "/query",
                {"pairs": [[0, 1], [999999, 999999], [2, 3]]},
            )
            rows = json.loads(body)["results"]
            assert status == 400, body
            assert "error" in rows[1] and "count" in rows[0] and (
                "count" in rows[2]
            )

    def test_reload_moves_the_router_with_the_workers(
        self, static_paths, monkeypatch
    ):
        paths, expected_a, expected_b = static_paths
        pairs = sorted(expected_a)
        rng = random.Random(9)
        workload = rng.sample(pairs, 200) * 2
        thread = FleetThread(
            paths["a"], 2, ServeConfig(port=0, probe_interval_s=0)
        )
        host, port = thread.start()
        try:
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
                {"path": str(paths["b"])},
            )
            load.join()
            assert status == 200, body
            report = outcome["report"]
            assert report.availability == 1.0, "reload dropped requests"
            for source, target, _status, distance, count in report.results:
                assert (distance, count) in (
                    expected_a[(source, target)],
                    expected_b[(source, target)],
                ), (source, target)
            before = _counters(host, port)
            _assert_fleet_matches(host, port, expected_b, seed=1)
            after = _counters(host, port)
            assert after["fleet.answers.local"] > before.get(
                "fleet.answers.local", 0
            )

            # A file every worker opens but the router cannot verify is
            # refused fleet-wide: the workers' staged copies are dropped
            # and the whole fleet keeps serving the old index.
            from repro.core import serialize

            real_load = serialize.load_index

            def refuse_copy(path, *args, **kwargs):
                if str(path) == str(paths["a_copy"]):
                    raise ReproError("checksum mismatch (injected)")
                return real_load(path, *args, **kwargs)

            monkeypatch.setattr(serialize, "load_index", refuse_copy)
            status, body = _http(
                host, port, "POST", "/admin/reload",
                {"path": str(paths["a_copy"])},
            )
            assert status == 409, body
            payload = json.loads(body)
            assert payload["reloaded"] is False
            assert any(e.startswith("router:") for e in payload["errors"])
            _assert_fleet_matches(host, port, expected_b, seed=2)
            # Explain always takes the hop: the workers still serve b.
            for source, target in pairs[:: len(pairs) // 20]:
                row = _json(
                    host, port, "GET",
                    f"/query?source={source}&target={target}&explain=1",
                )
                assert (row["distance"], row["count"]) == expected_b[
                    (source, target)
                ]
                assert "queue_wait_us" in row["explain"]
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# live fleet
# ----------------------------------------------------------------------
def _live_files(tmp, graph):
    index_path = tmp / "index.bin"
    graph_path = tmp / "graph.json"
    save_index(CTLIndex.build(graph), index_path, format="binary")
    write_json(graph, graph_path)
    return index_path, graph_path


@pytest.fixture(scope="module")
def live_fleet(tmp_path_factory):
    graph = road_network(60, seed=4)
    index_path, graph_path = _live_files(
        tmp_path_factory.mktemp("live_local"), graph
    )
    # No router cache: every query of every check is a miss, answered
    # locally or forwarded.  A low threshold lets coordinated rebuilds
    # (reload commits) land between batches as well.
    config = ServeConfig(
        port=0, live_updates=True, cache_size=0, overlay_threshold=150,
        probe_interval_s=0,
    )
    thread = FleetThread(
        index_path, 2, config, live_graph_path=str(graph_path)
    )
    host, port = thread.start()
    yield graph, graph.copy(), host, port
    thread.stop()


_OPS = ("increase", "decrease", "restore")


class TestLiveFleet:
    def test_every_pair_is_exact_after_every_batch(self, live_fleet):
        graph, mirror, host, port = live_fleet
        edges = sorted(
            (a, b, weight) for a, b, weight, _ in graph.edges() if a < b
        )
        before = _counters(host, port)
        checks = []

        @settings(
            max_examples=8, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            st.lists(
                st.lists(
                    st.tuples(
                        st.integers(0, len(edges) - 1), st.sampled_from(_OPS)
                    ),
                    min_size=1, max_size=4,
                ),
                min_size=1, max_size=3,
            )
        )
        def batches_then_check(batches):
            for batch in batches:
                updates = []
                for slot, op in batch:
                    a, b, original = edges[slot]
                    current = mirror.weight(a, b)
                    # Integer weights: halving, adding the original
                    # weight and restoring all make equal-length paths.
                    weight = {
                        "increase": current + original,
                        "decrease": max(1, current // 2),
                        "restore": original,
                    }[op]
                    updates.append([a, b, weight])
                    mirror.add_edge(a, b, weight, mirror.count(a, b))
                status, body = _http(
                    host, port, "POST", "/admin/update",
                    {"updates": updates},
                )
                assert status == 200, body
                _assert_fleet_matches(
                    host, port, _all_pairs(mirror), gets=10,
                    seed=len(checks),
                )
                checks.append(json.loads(body)["seqno"])

        batches_then_check()
        after = _counters(host, port)
        assert checks
        for name in ("fleet.answers.local", "fleet.answers.forwarded"):
            assert after.get(name, 0) > before.get(name, 0), name

    def test_router_mirror_follows_the_workers(self, live_fleet):
        _graph, _mirror, host, port = live_fleet
        stats = _json(host, port, "GET", "/stats")
        answers = stats["fleet"]["answers"]
        assert answers["agreed"] is True, answers
        assert answers["mirror"]["seqno"] == stats["live"]["seqno"]
        assert answers["mirror"]["epoch"] == stats["live"]["epoch"]
        assert answers["mirror"]["poisoned_vertices"] == (
            stats["live"]["poisoned_vertices"]
        )


# ----------------------------------------------------------------------
# whole-fleet kill -9 and restart on the same WAL
# ----------------------------------------------------------------------
def _start_cli_fleet(args, log_path):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    log = open(log_path, "w")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args, "--port", "0"],
        stdout=log, stderr=subprocess.STDOUT, env=env,
        start_new_session=True,
    )
    deadline = time.time() + 90
    while time.time() < deadline:
        text = Path(log_path).read_text()
        if "serving" in text:
            address = text.split("http://", 1)[1].split(" ", 1)[0]
            host, port = address.rsplit(":", 1)
            return process, host, int(port)
        if process.poll() is not None:
            break
        time.sleep(0.1)
    _kill_group(process)
    raise AssertionError(f"fleet did not start:\n{Path(log_path).read_text()}")


def _kill_group(process):
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group is gone already
    process.wait(30)


def _pinned_base(worker_wal):
    """The base path the newest epoch file of a worker's WAL pins."""
    _epoch, newest = WriteAheadLog.epoch_files(worker_wal)[-1]
    return scan_wal(newest).records[0].payload.get("base_path")


class TestWholeFleetRestart:
    def test_kill_nine_after_a_rebuild_then_restart_on_the_wal(
        self, tmp_path
    ):
        graph = road_network(120, seed=9)
        index_path, graph_path = _live_files(tmp_path, graph)
        wal = tmp_path / "wal"
        threshold = 400
        args = [
            str(index_path), "--workers", "2", "--live-updates",
            "--graph", str(graph_path), "--wal-dir", str(wal),
            "--overlay-threshold", str(threshold),
            "--probe-interval-s", "0",
        ]
        mirror = graph.copy()
        batches = iter(synthesize_deltas(
            graph, batches=12, edges_per_batch=4, seed=17
        ))

        def push(host, port):
            batch = next(batches)
            payload = _json(
                host, port, "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            assert payload["applied"]
            for a, b, w in batch.updates:
                mirror.add_edge(a, b, w, mirror.count(a, b))
            return payload

        process, host, port = _start_cli_fleet(args, tmp_path / "one.log")
        try:
            # Batches until the overlay passes the threshold: that
            # commit starts one coordinated rebuild.
            while push(host, port)["overlay_entries"] < threshold:
                pass
            deadline = time.time() + 60
            while time.time() < deadline:
                live = _json(host, port, "GET", "/stats")["live"]
                if live["epoch"] >= 2:
                    break
                time.sleep(0.2)
            assert live["epoch"] == 2, "no coordinated rebuild landed"
            # Further batches on top of the rebuilt base live only in
            # the rotated WAL; they stay under the threshold, so no
            # second rebuild is in flight when the fleet dies.
            for _ in range(2):
                assert push(host, port)["overlay_entries"] < threshold
        finally:
            _kill_group(process)
        pinned = _pinned_base(wal / "worker-0")
        assert pinned and pinned == _pinned_base(wal / "worker-1")
        assert pinned != str(index_path)

        process, host, port = _start_cli_fleet(args, tmp_path / "two.log")
        try:
            answers = _json(host, port, "GET", "/stats")["fleet"]["answers"]
            assert answers["agreed"] is True, answers
            assert answers["index_path"] == pinned
            expected = _all_pairs(mirror)
            before = _counters(host, port)
            _assert_fleet_matches(host, port, expected, gets=40, seed=3)
            after = _counters(host, port)
            assert after["fleet.answers.local"] > before.get(
                "fleet.answers.local", 0
            )
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(30)
            finally:
                _kill_group(process)
