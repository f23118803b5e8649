"""``serve --workers N`` end to end: one process answers and repairs.

The supervised server maps the index, answers every query from it and,
when live, owns the one coordinator and write-ahead log.  The contract
pinned here:

* every hot GET and every batch is answered by that one process, byte
  for byte what the index answers, within its admission bound;
* a reload under load drops nothing, no answer of the old file is
  served after the reload's 200, and a respawn after it opens the new
  file;
* after every acknowledged update batch every pair equals counting
  Dijkstra, and the one process both repaired the batch and serves it;
* the answering process killed between its WAL append and the ack, or
  the whole process group hit with ``kill -9`` mid-stream after a
  rebuild, comes back (respawned, or restarted on the same WAL) with
  every acknowledged batch, on the rebuilt base the WAL pins.
"""

import json
import os
import random
import shutil
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ctl import CTLIndex
from repro.core.ctls import CTLSIndex
from repro.core.serialize import save_index
from repro.graph.generators import road_network
from repro.graph.io import write_json
from repro.live import synthesize_deltas
from repro.live.wal import WriteAheadLog, scan_wal
from repro.search.dijkstra import ssspc
from repro.serve import ServeConfig, ServerThread, replay
from repro.serve.server import encode_result_bytes
from repro.types import INF
from tests.serve.supervised import Served


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


def _assert_fleet_matches(server, expected, *, gets=25, seed=0):
    """POST batches of every pair, plus hot GETs of a sample, equal
    ``expected``.  Batches stay below the queue high-water mark, so
    none is shed."""
    pairs = sorted(expected)
    rows = []
    for start in range(0, len(pairs), 250):
        rows += server.json(
            "POST", "/query",
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
        row = server.json("GET", f"/query?source={target}&target={source}")
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
        self, static_graph, static_paths, tmp_path
    ):
        # ...by the one answering process, each body byte for byte the
        # index's encoded answer, every query counted once there.
        paths, expected, _ = static_paths
        rng = random.Random(5)
        vertices = sorted(static_graph.vertices())
        workload = [
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(300)
        ]
        args = [paths["a"], "--workers", "2", "--probe-interval-s", "0"]
        with Served(args, tmp_path / "serve.log") as server:
            before = server.counters()
            report = replay(
                *server.address, workload, concurrency=4,
                collect_results=True,
            )
            after = server.counters()
            assert report.availability == 1.0
            for source, target, _status, distance, count in report.results:
                key = (min(source, target), max(source, target))
                assert (distance, count) == expected[key], (source, target)
            assert after["serve.requests"] - before.get(
                "serve.requests", 0
            ) == len(workload)
            misses = after["serve.cache.misses"] - before.get(
                "serve.cache.misses", 0
            )
            hits = after["serve.cache.hits"] - before.get(
                "serve.cache.hits", 0
            )
            assert misses > 0 and misses + hits == len(workload)
            index = CTLSIndex.build(static_graph)
            for source, target in workload[:40] + [(7, 7), (90, 3)]:
                status, _, body = server.request(
                    "GET", f"/query?source={source}&target={target}"
                )
                assert (status, body) == (
                    200,
                    encode_result_bytes(
                        source, target, index.query(source, target)
                    ),
                ), (source, target)

    def test_a_large_batch_is_forwarded_in_admitted_chunks(
        self, static_paths, tmp_path
    ):
        # A large batch within the admission bound is answered whole,
        # in one process: every member is a 200 equal to the index.
        paths, expected, _ = static_paths
        pairs = sorted(expected)[:2000]
        args = [paths["a"], "--workers", "2", "--cache-size", "0",
                "--high-water", "2000"]
        with Served(args, tmp_path / "serve.log") as server:
            status, _, body = server.request(
                "POST", "/query", {"pairs": [list(pair) for pair in pairs]}
            )
        assert status == 200, body[:300]
        rows = json.loads(body)["results"]
        assert [(row["distance"], row["count"]) for row in rows] == [
            expected[pair] for pair in pairs
        ]

    def test_nothing_is_cached_across_a_commit(self, static_paths, tmp_path):
        # Queries stream on while a reload commits: each answer is the
        # old file's or the new file's, and none read after the
        # reload's 200 is the old file's — no cached answer outlives it.
        paths, expected_a, expected_b = static_paths
        pairs = sorted(
            pair for pair in expected_a
            if expected_a[pair] != expected_b[pair]
        )[:100]
        assert pairs
        args = [paths["a"], "--workers", "2", "--probe-interval-s", "0"]
        with Served(args, tmp_path / "serve.log") as server:
            replay(*server.address, pairs, concurrency=2)  # warm cache
            committed = threading.Event()
            stop = threading.Event()
            late = []

            def stream():
                while not stop.is_set():
                    after = committed.is_set()
                    report = replay(
                        *server.address, pairs, concurrency=2,
                        collect_results=True,
                    )
                    for s, t, status, distance, count in report.results:
                        assert status == 200
                        assert (distance, count) in (
                            expected_a[(s, t)], expected_b[(s, t)]
                        )
                        if after:
                            late.append(((s, t), (distance, count)))

            load = threading.Thread(target=stream)
            load.start()
            time.sleep(0.2)
            server.json("POST", "/admin/reload", {"path": str(paths["b"])})
            committed.set()
            time.sleep(0.3)
            stop.set()
            load.join()
        assert late
        assert all(answer == expected_b[pair] for pair, answer in late)

    def test_a_large_batch_is_scanned_locally_only_up_to_the_high_water(
        self, static_paths
    ):
        # One request scans at most queue_high_water pairs on the loop,
        # in one query_batch call; a larger batch is shed whole (503)
        # before any scan.
        from repro.core.serialize import load_index

        paths, expected, _ = static_paths
        calls = []

        class Counting:
            def __init__(self, inner):
                self.inner = inner

            def query_batch(self, pairs):
                calls.append(len(pairs))
                return self.inner.query_batch(pairs)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        pairs = sorted(expected)[:5]
        thread = ServerThread(
            Counting(load_index(paths["a"], verify=True)),
            ServeConfig(port=0, cache_size=0, queue_high_water=4),
        )
        with thread as (host, port):
            from tests.serve.supervised import request

            status, _, body = request(
                host, port, "POST", "/query",
                {"pairs": [list(p) for p in pairs]},
            )
            assert status == 503, body
            assert calls == []
            status, _, body = request(
                host, port, "POST", "/query",
                {"pairs": [list(p) for p in pairs[:4]]},
            )
        assert status == 200
        assert calls == [4]
        rows = json.loads(body)["results"]
        assert [(r["distance"], r["count"]) for r in rows] == [
            expected[pair] for pair in pairs[:4]
        ]

    def test_errors_stay_the_workers_own(self, static_paths, tmp_path):
        # Errors are the answering server's own 400s, a batch member's
        # failing alone.
        paths, _, _ = static_paths
        with Served([paths["a"], "--workers", "2"],
                    tmp_path / "serve.log") as server:
            status, _, body = server.request(
                "GET", "/query?source=0&target=999999"
            )
            assert status == 400 and b"not indexed" in body
            status, _, body = server.request(
                "POST", "/query",
                {"pairs": [[0, 1], [999999, 999999], [2, 3]]},
            )
            rows = json.loads(body)["results"]
            assert status == 400, body
            assert "error" in rows[1] and "count" in rows[0] and (
                "count" in rows[2]
            )

    def test_reload_moves_the_router_with_the_workers(
        self, static_paths, tmp_path
    ):
        # A reload under load drops nothing; a file that fails its
        # checksums is refused and the reloaded one keeps serving; and
        # kill -9 of the child after the reload: the respawn answers
        # from the reloaded file.
        paths, expected_a, expected_b = static_paths
        pairs = sorted(expected_a)
        rng = random.Random(9)
        workload = rng.sample(pairs, 200) * 2
        corrupt = tmp_path / "corrupt.bin"
        data = paths["a_copy"].read_bytes()
        corrupt.write_bytes(data[: len(data) // 2])
        args = [paths["a"], "--workers", "2", "--probe-interval-s", "0"]
        with Served(args, tmp_path / "serve.log") as server:
            outcome = {}

            def hammer():
                outcome["report"] = replay(
                    *server.address, workload, concurrency=4,
                    collect_results=True,
                )

            load = threading.Thread(target=hammer)
            load.start()
            status, _, body = server.request(
                "POST", "/admin/reload", {"path": str(paths["b"])}
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
            _assert_fleet_matches(server, expected_b, seed=1)

            status, _, body = server.request(
                "POST", "/admin/reload", {"path": str(corrupt)}
            )
            assert status == 409, body
            assert json.loads(body)["reloaded"] is False
            _assert_fleet_matches(server, expected_b, seed=2)

            os.kill(server.child_pid(), signal.SIGKILL)
            server.wait_generation(1)
            _assert_fleet_matches(server, expected_b, seed=3)


# ----------------------------------------------------------------------
# live fleet
# ----------------------------------------------------------------------
def _live_files(tmp, graph):
    index_path = tmp / "index.bin"
    graph_path = tmp / "graph.json"
    save_index(CTLIndex.build(graph), index_path, format="binary")
    write_json(graph, graph_path)
    return index_path, graph_path


def _live_args(index_path, graph_path, wal, *extra):
    return [
        index_path, "--workers", "2", "--live-updates",
        "--graph", graph_path, "--wal-dir", wal,
        "--probe-interval-s", "0", *extra,
    ]


@pytest.fixture(scope="module")
def live_fleet(tmp_path_factory):
    graph = road_network(60, seed=4)
    tmp = tmp_path_factory.mktemp("live_local")
    index_path, graph_path = _live_files(tmp, graph)
    # No result cache: every query of every check is a scan.  A low
    # threshold lets rebuilds (base swaps) land between batches too.
    args = _live_args(
        index_path, graph_path, tmp / "wal",
        "--cache-size", "0", "--overlay-threshold", "150",
    )
    server = Served(args, tmp / "serve.log")
    yield graph, graph.copy(), server
    server.stop()


_OPS = ("increase", "decrease", "restore")


class TestLiveFleet:
    def test_every_pair_is_exact_after_every_batch(self, live_fleet):
        graph, mirror, server = live_fleet
        edges = sorted(
            (a, b, weight) for a, b, weight, _ in graph.edges() if a < b
        )
        before = server.counters()
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
                payload = server.json(
                    "POST", "/admin/update", {"updates": updates}
                )
                _assert_fleet_matches(
                    server, _all_pairs(mirror), gets=10, seed=len(checks),
                )
                checks.append(payload["seqno"])

        batches_then_check()
        after = server.counters()
        assert checks
        # One repair and one log append per batch, in the one process.
        assert after["live.updates.batches"] - before.get(
            "live.updates.batches", 0
        ) == len(checks)
        assert after["live.wal.appends"] - before.get(
            "live.wal.appends", 0
        ) == len(checks)

    def test_router_mirror_follows_the_workers(self, live_fleet):
        # Nothing mirrors anything: the process that repaired every
        # batch serves them, and explain answers at its (epoch, seqno).
        _graph, _mirror, server = live_fleet
        stats = server.stats()
        live = stats["live"]
        assert live["seqno"] > 0
        assert live["applied_batches"] == server.counters()[
            "live.updates.batches"
        ]
        row = server.json("GET", "/query?source=0&target=9&explain=1")
        assert (row["explain"]["epoch"], row["explain"]["seqno"]) == (
            live["epoch"], live["seqno"],
        )


# ----------------------------------------------------------------------
# kill -9 of the whole process group, and restart on the same WAL
# ----------------------------------------------------------------------
def _pinned_base(wal):
    """The base path the newest epoch file of the WAL pins."""
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
        args = _live_args(
            index_path, graph_path, wal,
            "--overlay-threshold", str(threshold),
        )
        mirror = graph.copy()
        batches = iter(synthesize_deltas(
            graph, batches=12, edges_per_batch=4, seed=17
        ))

        def push(server):
            batch = next(batches)
            payload = server.json(
                "POST", "/admin/update",
                {"updates": [list(u) for u in batch.updates]},
            )
            assert payload["applied"]
            for a, b, w in batch.updates:
                mirror.add_edge(a, b, w, mirror.count(a, b))
            return payload

        server = Served(args, tmp_path / "one.log")
        try:
            # Batches until the overlay passes the threshold: that
            # commit starts one rebuild.
            while push(server)["overlay_entries"] < threshold:
                pass
            live = server.wait_for(
                lambda: (lambda l: l if l["epoch"] >= 2 else None)(
                    server.stats()["live"]
                )
            )
            assert live is not None, "no rebuild landed"
            # Further batches on top of the rebuilt base live only in
            # the rotated WAL; they stay under the threshold, so no
            # second rebuild is in flight when the group dies.
            for _ in range(2):
                assert push(server)["overlay_entries"] < threshold
        finally:
            server.kill()
        # One log, at the top of the WAL directory, pinning the base.
        assert not list(wal.glob("worker-*"))
        pinned = _pinned_base(wal)
        assert pinned == f"{index_path}.epoch-2"

        with Served(args, tmp_path / "two.log") as server:
            assert server.stats()["live"]["base_path"] == pinned
            _assert_fleet_matches(server, _all_pairs(mirror), gets=40,
                                  seed=3)


# ----------------------------------------------------------------------
# chaos: every acknowledged batch survives the answering process
# ----------------------------------------------------------------------
def _push(server, mirror, batch):
    """One batch; the mirror follows once it is acknowledged."""
    payload = server.json(
        "POST", "/admin/update",
        {"updates": [list(u) for u in batch.updates]},
    )
    assert payload["applied"], payload
    for a, b, w in batch.updates:
        mirror.add_edge(a, b, w, mirror.count(a, b))
    return payload


def _batches_applied(graph, batches, seqno):
    """``graph`` with the first ``seqno`` batches applied."""
    mirror = graph.copy()
    for batch in batches[:seqno]:
        for a, b, w in batch.updates:
            mirror.add_edge(a, b, w, mirror.count(a, b))
    return mirror


#: ``repro-spc`` whose first child SIGKILLs itself right after a
#: batch's WAL append and repair, before the acknowledgement.  The
#: spawned child re-imports this script, so the patch reaches it.
_DIE_BEFORE_ACK = """
import os, signal, sys
from repro.serve import server

async def _die(self, normalized, *args, **kwargs):
    if self.supervised.generation == 0:
        self.updates.apply_batch(normalized)
        os.kill(os.getpid(), signal.SIGKILL)
    return await _apply(self, normalized, *args, **kwargs)

_apply = server.SPCServer._apply_update
server.SPCServer._apply_update = _die

if __name__ == "__main__":
    from repro.cli import main
    sys.exit(main(sys.argv[1:]))
"""


class TestLiveFleetChaos:
    def test_router_killed_between_wal_append_and_install(self, tmp_path):
        # The answering process dies after its WAL append and before
        # the 200.  The batch was never acknowledged, but it is in the
        # log: the respawned child recovers it, and serves it.
        graph = road_network(80, seed=12)
        index_path, graph_path = _live_files(tmp_path, graph)
        script = tmp_path / "die_before_ack.py"
        script.write_text(_DIE_BEFORE_ACK)
        args = _live_args(index_path, graph_path, tmp_path / "wal")
        batches = synthesize_deltas(graph, batches=2, seed=13)
        with Served(args, tmp_path / "serve.log",
                    launcher=[str(script)]) as server:
            import http.client

            with pytest.raises((ConnectionError, http.client.HTTPException)):
                server.request(
                    "POST", "/admin/update",
                    {"updates": [list(u) for u in batches[0].updates]},
                )
            stats = server.wait_generation(1)
            assert (stats["live"]["epoch"], stats["live"]["seqno"]) == (1, 1)
            mirror = _batches_applied(graph, batches, 1)
            _assert_fleet_matches(server, _all_pairs(mirror), gets=20)
            _push(server, mirror, batches[1])
            _assert_fleet_matches(server, _all_pairs(mirror), gets=20)
        assert "exited with code -9" in server.log

    def test_kill_nine_mid_stream_after_a_rebuild(self, tmp_path):
        graph = road_network(120, seed=9)
        index_path, graph_path = _live_files(tmp_path, graph)
        wal = tmp_path / "wal"
        args = _live_args(
            index_path, graph_path, wal, "--overlay-threshold", "300"
        )
        batches = synthesize_deltas(
            graph, batches=400, edges_per_batch=3, seed=19
        )
        acked = []
        server = Served(args, tmp_path / "one.log")
        stop = threading.Event()
        try:
            for batch in batches:
                server.json(
                    "POST", "/admin/update",
                    {"updates": [list(u) for u in batch.updates]},
                )
                acked.append(batch)
                if server.stats()["live"]["epoch"] >= 2:
                    break
            assert len(acked) < len(batches), "no rebuild landed"

            def stream():
                import http.client

                for batch in batches[len(acked):]:
                    if stop.is_set():
                        return
                    try:
                        server.json(
                            "POST", "/admin/update",
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
            server.kill()
        stop.set()
        streamer.join(30)
        # The kill landed mid-stream, after batches on the rebuilt base.
        assert rebuilt < len(acked) < len(batches), (rebuilt, len(acked))
        assert not list(wal.glob("worker-*"))
        with Served(args, tmp_path / "two.log") as server:
            live = server.stats()["live"]
            # Every acknowledged batch is there; at most the one in
            # flight at the kill is too.
            seqno = live["seqno"]
            assert len(acked) <= seqno <= len(acked) + 1, (seqno, len(acked))
            assert live["epoch"] >= 2
            assert live["base_path"] == _pinned_base(wal)
            _assert_fleet_matches(
                server, _all_pairs(_batches_applied(graph, batches, seqno)),
                gets=20,
            )
