"""Delta files and the update-replay streaming client."""

import json

import pytest

from repro.core.ctl import CTLIndex
from repro.exceptions import LiveUpdateError, ParseError
from repro.graph.generators import road_network
from repro.graph.graph import Graph
from repro.live import (
    DeltaBatch,
    UpdateCoordinator,
    read_delta_file,
    stream_deltas,
    synthesize_deltas,
    write_delta_file,
)
from repro.serve import ServeConfig, ServerThread


class TestDeltaFiles:
    def test_round_trip(self, tmp_path):
        batches = [
            DeltaBatch(0.0, ((1, 2, 3),)),
            DeltaBatch(1.5, ((4, 5, 6), (1, 2, 9))),
        ]
        path = tmp_path / "deltas.jsonl"
        write_delta_file(path, batches)
        assert read_delta_file(path) == batches

    def test_sorted_by_offset(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        path.write_text(
            '{"at": 5.0, "updates": [[1, 2, 3]]}\n'
            '{"at": 0.5, "updates": [[4, 5, 6]]}\n'
        )
        batches = read_delta_file(path)
        assert [b.at for b in batches] == [0.5, 5.0]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "deltas.jsonl"
        path.write_text(
            "# recorded 2026-08-09\n"
            "\n"
            '{"at": 0, "updates": [[1, 2, 3]]}\n'
        )
        assert len(read_delta_file(path)) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2, 3]",
            '{"at": "soon", "updates": [[1, 2, 3]]}',
            '{"at": 0, "updates": []}',
            '{"at": 0, "updates": [[1, 2]]}',
            '{"at": 0}',
        ],
    )
    def test_malformed_lines_raise(self, tmp_path, line):
        path = tmp_path / "deltas.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ParseError):
            read_delta_file(path)


class TestCliErrors:
    """``repro-spc update-replay`` on a bad file: exit 1, one ``error:``
    line on stderr, no traceback."""

    @pytest.mark.parametrize(
        "content",
        [
            "not json\n",
            # A torn final line, as left by a crashed recorder.
            '{"at": 0, "updates": [[1, 2, 3]]}\n{"at": 1, "upd',
            '{"at": 0, "updates": [[1, 2]]}\n',
        ],
    )
    def test_update_replay_bad_file_exits_one(
        self, tmp_path, capsys, content
    ):
        from repro.cli import main

        path = tmp_path / "deltas.jsonl"
        path.write_text(content)
        assert main(["update-replay", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error:")
        assert "Traceback" not in err[0]

    def test_update_replay_missing_file_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["update-replay", str(tmp_path / "absent.jsonl")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")


class TestSynthesize:
    def test_deterministic(self):
        graph = road_network(60, seed=1)
        a = synthesize_deltas(graph, batches=5, seed=9)
        b = synthesize_deltas(graph, batches=5, seed=9)
        assert a == b
        assert len(a) == 5
        for batch in a:
            for u, v, w in batch.updates:
                assert graph.has_edge(u, v)
                assert w >= 1

    def test_empty_graph_rejected(self):
        with pytest.raises(LiveUpdateError):
            synthesize_deltas(Graph(), batches=1)


class TestStreamDeltas:
    @pytest.fixture(scope="class")
    def live_server(self):
        graph = road_network(80, seed=2)
        index = CTLIndex.build(graph)
        coordinator = UpdateCoordinator(graph, index)
        thread = ServerThread(
            index, ServeConfig(port=0, live_updates=True), updates=coordinator
        )
        host, port = thread.start()
        yield graph, host, port
        thread.stop()

    def test_streams_and_reports_epochs(self, live_server):
        graph, host, port = live_server
        batches = synthesize_deltas(
            graph, batches=4, edges_per_batch=3, interval_s=0.01, seed=3
        )
        report = stream_deltas(host, port, batches, speed=0)
        assert report.ok
        assert report.batches_sent == 4
        assert report.updates_sent == 12
        assert report.last_seqno >= 4
        assert len(report.apply_latencies) == 4

    def test_failed_batches_recorded_not_fatal(self, live_server):
        graph, host, port = live_server
        bad = [DeltaBatch(0.0, ((10**9, 0, 5),))]
        good = synthesize_deltas(graph, batches=1, seed=4)
        report = stream_deltas(host, port, bad + good, speed=0)
        assert not report.ok
        assert report.batches_failed == 1
        assert report.batches_sent == 1
        assert "HTTP" in report.errors[0]

    def test_empty_stream(self):
        assert stream_deltas("127.0.0.1", 1, []).ok

    def test_a_broken_connection_resends_the_batch(self):
        # The first response is cut mid-write (a server restart looks
        # the same to the client): the batch is resent on a fresh
        # connection and lands again as a no-op, so no batch is lost.
        from repro.faults import FaultPlan

        graph = road_network(80, seed=2)
        index = CTLIndex.build(graph)
        thread = ServerThread(
            index, ServeConfig(port=0, live_updates=True),
            updates=UpdateCoordinator(graph, index),
            fault_plan=FaultPlan.parse("conn.reset:1.0x1"),
        )
        batches = synthesize_deltas(graph, batches=3, seed=5)
        with thread as (host, port):
            report = stream_deltas(host, port, batches, speed=0)
            state = thread.server.live.state
        assert report.ok and report.batches_sent == 3, report.errors
        # The cut batch was applied twice: once before the reset.
        assert state.seqno == 4
