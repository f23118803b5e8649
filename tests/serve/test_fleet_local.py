"""Fleet misses answered by the router from the index it maps itself.

The router opens the same v4 file its workers serve and answers every
cache miss from it.  On a live fleet it owns the live tier: it repairs
each batch once, logs it in the one WAL and installs the diff on every
worker, so its own overlay is the one they all serve.  The contract
pinned here:

* a local answer is byte-identical to every worker's, and a fleet
  answers hot GETs and batches without a worker moving;
* nothing is cached across a commit, and commits reach the workers in
  the order the router made them;
* after every acknowledged update batch, every pair equals counting
  Dijkstra, and every worker serves the router's ``(epoch, seqno)``;
* a worker that does not take a batch is ejected and rejoins; a router
  that dies between its WAL append and the install, or a whole fleet
  hit with ``kill -9`` mid-stream, restarts on the same WAL with every
  acknowledged batch on every worker;
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
from repro.core.serialize import load_index, save_index
from repro.exceptions import ReproError
from repro.graph.generators import road_network
from repro.graph.io import write_json
from repro.live import UpdateCoordinator, synthesize_deltas
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

    def test_nothing_is_cached_across_a_commit(self, static_paths):
        paths, expected, _ = static_paths
        path = str(paths["a"])
        router = _router_with_live_workers(path, ServeConfig(cache_size=8))
        pair = (3, 140)

        async def scenario():
            router._index = await router._open_index(path)
            router._index_path = path
            gate = asyncio.Event()

            async def held_fanout(method, url, body=None, *, resend=False):
                await gate.wait()
                return []

            router._fanout = held_fanout
            commit = asyncio.ensure_future(
                router._commit("/admin/reload/commit")
            )
            await asyncio.sleep(0)
            # Mid-commit the router still answers from the index it
            # serves, but caches nothing.
            answer = router._local_answers([pair])[0]
            assert _wire(*answer) == expected[pair]
            assert router.cache.get(*pair) is None
            gate.set()
            await commit
            assert len(router.cache) == 0
            # The next answer is cached.
            assert router._local_answers([pair])[0] == answer
            assert router.cache.get(*pair) == answer

        asyncio.run(scenario())

    def test_commits_reach_the_mirror_in_commit_order(self, tmp_path):
        # The workers mirror the router's overlay.  A rebuilt base's
        # join and an update's diff are both commits: the update must
        # not apply — nor its diff go out — before the join's fan-out
        # has ended, so every worker takes the joined state and then
        # the diff at the next seqno, and no answer computed across
        # either is cached.
        graph = road_network(60, seed=4)
        index_path, _ = _live_files(tmp_path, graph)
        router = _router_with_live_workers(
            str(index_path), ServeConfig(cache_size=8)
        )
        updates = UpdateCoordinator(graph, load_index(index_path))
        router._init_live(updates)
        router._index = updates.live_index
        router._index_path = str(index_path)
        batch = synthesize_deltas(graph, batches=1, seed=3)[0]
        bodies = []
        join_gate = asyncio.Event()
        pair = (3, 40)

        async def held_fanout(method, url, body=None, *, resend=False):
            payload = json.loads(body)
            bodies.append(payload)
            if "base" in payload:
                await join_gate.wait()
            return [(w, (200, {}, b"{}")) for w in router.workers]

        router._fanout = held_fanout

        async def scenario():
            rebuilt, base_seqno = updates.rebuild()
            generation = router._generation
            adopt = asyncio.ensure_future(
                router._adopt_rebuilt(rebuilt, base_seqno)
            )
            while not bodies:  # the save runs off the loop
                await asyncio.sleep(0.01)
            update = asyncio.ensure_future(
                router._apply_update(updates.validate_batch(batch.updates))
            )
            for _ in range(20):
                await asyncio.sleep(0.01)
            assert len(bodies) == 1
            assert updates.live_index.state.seqno == 0
            assert router._generation == generation + 1
            assert router._local_answers([pair])[0] is not None
            assert len(router.cache) == 0
            join_gate.set()
            await asyncio.gather(adopt, update)
            join, diff = bodies
            assert join["base"] == f"{index_path}.epoch-2"
            assert (join["epoch"], join["seqno"]) == (2, 0)
            assert (diff["epoch"], diff["seqno"]) == (2, 1)
            assert router._generation == generation + 4
            state = updates.live_index.state
            assert (state.epoch, state.seqno) == (2, 1)

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
                assert "scan_us" in row["explain"]
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
    # No router cache: every query of every check is a miss.  A low
    # threshold lets rebuilds (base swaps joined by every worker) land
    # between batches as well.
    config = ServeConfig(
        port=0, live_updates=True, cache_size=0, overlay_threshold=150,
        probe_interval_s=0,
    )
    thread = FleetThread(
        index_path, 2, config, live_graph_path=str(graph_path)
    )
    host, port = thread.start()
    yield graph, graph.copy(), host, port, thread.router
    thread.stop()


_OPS = ("increase", "decrease", "restore")


class TestLiveFleet:
    def test_every_pair_is_exact_after_every_batch(self, live_fleet):
        graph, mirror, host, port, _router = live_fleet
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
        # The router answered every plain query from its own overlay.
        assert after["fleet.answers.local"] > before.get(
            "fleet.answers.local", 0
        )
        assert after.get("fleet.answers.forwarded", 0) == before.get(
            "fleet.answers.forwarded", 0
        )
        # One repair and one log append per batch, all in the router.
        assert after["live.updates.batches"] - before.get(
            "live.updates.batches", 0
        ) == len(checks)

    def test_router_mirror_follows_the_workers(self, live_fleet):
        # The workers mirror the router: each serves the router's
        # (epoch, seqno) and overlay, and none repairs a batch itself.
        _graph, _mirror, host, port, router = live_fleet
        stats = _json(host, port, "GET", "/stats")
        version = (stats["live"]["epoch"], stats["live"]["seqno"])
        assert version[1] > 0
        for worker in router.workers:
            live = _json("127.0.0.1", worker.port, "GET", "/stats")["live"]
            assert (live["epoch"], live["seqno"]) == version, worker
            assert live["overlay_entries"] == stats["live"]["overlay_entries"]
            counters = _counters("127.0.0.1", worker.port)
            assert "live.updates.batches" not in counters
            assert "live.repair.entries" not in counters


# ----------------------------------------------------------------------
# whole-fleet kill -9 and restart on the same WAL
# ----------------------------------------------------------------------
def _start_cli_fleet(args, log_path):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "w") as log:
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


def _pinned_base(wal):
    """The base path the newest epoch file of the fleet's WAL pins."""
    _epoch, newest = WriteAheadLog.epoch_files(wal)[-1]
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
        # One log, at the top of the WAL directory.
        assert not list(wal.glob("worker-*"))
        pinned = _pinned_base(wal)
        assert pinned and pinned != str(index_path)

        process, host, port = _start_cli_fleet(args, tmp_path / "two.log")
        try:
            answers = _json(host, port, "GET", "/stats")["fleet"]["answers"]
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


# ----------------------------------------------------------------------
# chaos: every worker ends at the router's version, every pair exact
# ----------------------------------------------------------------------
def _push(host, port, mirror, batch):
    """One batch through the router; the mirror follows once it is
    acknowledged."""
    payload = _json(
        host, port, "POST", "/admin/update",
        {"updates": [list(u) for u in batch.updates]},
    )
    assert payload["applied"], payload
    for a, b, w in batch.updates:
        mirror.add_edge(a, b, w, mirror.count(a, b))
    return payload


def _assert_converged(host, port, mirror, worker_ports=()):
    """Every worker is up at the router's ``(epoch, seqno)``, and every
    pair — at the router and, when given, at each worker — equals
    counting Dijkstra on ``mirror``."""
    deadline = time.time() + 60
    while True:
        stats = _json(host, port, "GET", "/stats")
        rows = stats["fleet"]["per_worker"]
        if (
            stats["fleet"]["supervisor"]["workers_down"] == 0
            and len(rows) == 2
            and all(
                row["epoch_lag"] == 0 and row["seqno_lag"] == 0
                for row in rows
            )
        ):
            break
        assert time.time() < deadline, (stats["fleet"], stats["live"])
        time.sleep(0.2)
    expected = _all_pairs(mirror)
    _assert_fleet_matches(host, port, expected, gets=20)
    for worker_port in worker_ports:
        _assert_fleet_matches("127.0.0.1", worker_port, expected, gets=5)
    return stats


def _batches_applied(graph, batches, seqno):
    """``graph`` with the first ``seqno`` batches applied."""
    mirror = graph.copy()
    for batch in batches[:seqno]:
        for a, b, w in batch.updates:
            mirror.add_edge(a, b, w, mirror.count(a, b))
    return mirror


#: Runs the CLI with the router's install fan-out replaced by SIGKILL:
#: the router dies after its WAL append and before any worker hears of
#: the batch.
_DIE_BEFORE_INSTALL = """
import os, signal, sys
from repro.serve import fleet

async def _die(self, report):
    os.kill(os.getpid(), signal.SIGKILL)

fleet.FleetRouter._publish_batch = _die
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestLiveFleetChaos:
    def test_a_worker_that_misses_an_install_is_ejected_and_rejoins(
        self, tmp_path
    ):
        graph = road_network(80, seed=6)
        index_path, graph_path = _live_files(tmp_path, graph)
        config = ServeConfig(
            port=0, live_updates=True, cache_size=0, probe_interval_s=0,
            wal_dir=str(tmp_path / "wal"),
        )
        thread = FleetThread(
            index_path, 2, config, live_graph_path=str(graph_path)
        )
        host, port = thread.start()
        try:
            router = thread.router
            victim = router.workers[1]
            mirror = graph.copy()
            batches = synthesize_deltas(graph, batches=3, seed=8)
            _push(host, port, mirror, batches[0])
            # Move the victim off the router's version behind its back:
            # it stays alive, but the next diff does not follow.
            status, body = _http(
                "127.0.0.1", victim.port, "POST", "/admin/install",
                {"base": str(index_path), "epoch": 1, "seqno": 7,
                 "patches": []},
            )
            assert status == 200, body
            payload = _push(host, port, mirror, batches[1])
            assert payload["workers"] == 1, payload
            assert victim.process.is_alive()
            stats = _assert_converged(
                host, port, mirror, [w.port for w in router.workers]
            )
            assert stats["live"]["seqno"] == 2
            counters = _counters(host, port)
            assert counters["fleet.worker.rejoins"] == 1
            assert counters.get("fleet.worker.deaths", 0) == 0
            # The rejoined worker takes the next diff like any other.
            assert _push(host, port, mirror, batches[2])["workers"] == 2
            _assert_converged(
                host, port, mirror, [w.port for w in router.workers]
            )
        finally:
            thread.stop()

    def test_router_killed_between_wal_append_and_install(self, tmp_path):
        graph = road_network(80, seed=12)
        index_path, graph_path = _live_files(tmp_path, graph)
        wal = tmp_path / "wal"
        args = [
            str(index_path), "--workers", "2", "--live-updates",
            "--graph", str(graph_path), "--wal-dir", str(wal),
            "--probe-interval-s", "0",
        ]
        batches = synthesize_deltas(graph, batches=2, seed=13)
        mirror = graph.copy()
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        log_path = tmp_path / "one.log"
        with open(log_path, "w") as log:
            process = subprocess.Popen(
                [sys.executable, "-c", _DIE_BEFORE_INSTALL, "serve", *args,
                 "--port", "0"],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True,
            )
        try:
            deadline = time.time() + 90
            while "serving" not in log_path.read_text():
                assert process.poll() is None, log_path.read_text()
                assert time.time() < deadline, log_path.read_text()
                time.sleep(0.1)
            text = log_path.read_text()
            host, port = text.split("http://", 1)[1].split(" ", 1)[0].rsplit(
                ":", 1
            )
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                _http(
                    host, int(port), "POST", "/admin/update",
                    {"updates": [list(u) for u in batches[0].updates]},
                )
            assert process.wait(30) == -signal.SIGKILL
        finally:
            _kill_group(process)
        # The batch was never acknowledged, but it is in the log: the
        # restarted fleet recovers it and every worker joins it.
        process, host, port = _start_cli_fleet(args, tmp_path / "two.log")
        try:
            mirror = _batches_applied(graph, batches, 1)
            stats = _assert_converged(host, port, mirror)
            assert (stats["live"]["epoch"], stats["live"]["seqno"]) == (1, 1)
            _push(host, port, mirror, batches[1])
            _assert_converged(host, port, mirror)
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(30)
            finally:
                _kill_group(process)

    def test_kill_nine_mid_stream_after_a_rebuild(self, tmp_path):
        graph = road_network(120, seed=9)
        index_path, graph_path = _live_files(tmp_path, graph)
        wal = tmp_path / "wal"
        args = [
            str(index_path), "--workers", "2", "--live-updates",
            "--graph", str(graph_path), "--wal-dir", str(wal),
            "--overlay-threshold", "300", "--probe-interval-s", "0",
        ]
        batches = synthesize_deltas(
            graph, batches=400, edges_per_batch=3, seed=19
        )
        acked = []
        process, host, port = _start_cli_fleet(args, tmp_path / "one.log")
        try:
            for batch in batches:
                _json(
                    host, port, "POST", "/admin/update",
                    {"updates": [list(u) for u in batch.updates]},
                )
                acked.append(batch)
                if _json(host, port, "GET", "/stats")["live"]["epoch"] >= 2:
                    break
            assert len(acked) < len(batches), "no rebuild landed"
            stop = threading.Event()

            def stream():
                for batch in batches[len(acked):]:
                    if stop.is_set():
                        return
                    try:
                        _json(
                            host, port, "POST", "/admin/update",
                            {"updates": [list(u) for u in batch.updates]},
                        )
                    except (OSError, http.client.HTTPException):
                        return
                    acked.append(batch)

            streamer = threading.Thread(target=stream)
            rebuilt = len(acked)
            streamer.start()
            time.sleep(0.5)
        finally:
            _kill_group(process)
        stop.set()
        streamer.join(30)
        # The kill landed mid-stream, after batches on the rebuilt base.
        assert rebuilt < len(acked) < len(batches), (rebuilt, len(acked))
        assert not list(wal.glob("worker-*"))
        process, host, port = _start_cli_fleet(args, tmp_path / "two.log")
        try:
            seqno = _json(host, port, "GET", "/stats")["live"]["seqno"]
            # Every acknowledged batch is there; at most the one in
            # flight at the kill is too.
            assert len(acked) <= seqno <= len(acked) + 1, (seqno, len(acked))
            stats = _assert_converged(
                host, port, _batches_applied(graph, batches, seqno)
            )
            assert stats["live"]["epoch"] >= 2
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(30)
            finally:
                _kill_group(process)
