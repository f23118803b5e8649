"""Tests for the repro-spc command line interface."""

import pytest

from repro.cli import main
from repro.graph.generators import grid_graph
from repro.graph.io import write_dimacs


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "net.gr"
    write_dimacs(grid_graph(4, 4), path)
    return path


class TestGenerate:
    def test_generate_road(self, tmp_path, capsys):
        out = tmp_path / "road.gr"
        assert main(["generate", "road", "200", str(out), "--seed", "3"]) == 0
        assert out.exists()
        assert "wrote Graph" in capsys.readouterr().out

    def test_generate_power(self, tmp_path):
        out = tmp_path / "power.gr"
        assert main(["generate", "power", "100", str(out)]) == 0
        assert out.exists()


class TestBuildQueryStats:
    @pytest.mark.parametrize("algorithm", ["tl", "ctl", "ctls"])
    def test_full_cycle(self, tmp_path, graph_file, capsys, algorithm):
        index_path = tmp_path / "index.json"
        assert main(
            ["build", str(graph_file), str(index_path), "--algorithm", algorithm]
        ) == 0
        assert index_path.exists()

        assert main(["query", str(index_path), "0", "15"]) == 0
        out = capsys.readouterr().out
        assert "distance=6" in out
        assert "shortest_paths=20" in out

        assert main(["stats", str(index_path)]) == 0
        out = capsys.readouterr().out
        assert "vertices:           16" in out

    def test_build_with_strategy(self, tmp_path, graph_file):
        index_path = tmp_path / "index.json"
        assert main(
            [
                "build", str(graph_file), str(index_path),
                "--algorithm", "ctls", "--strategy", "pruned",
            ]
        ) == 0

    def test_query_disconnected_exit_code(self, tmp_path, capsys):
        # A disconnected pair is an answer, not an error: exit 0.
        from repro.graph.graph import Graph
        from repro.graph.io import write_json

        g = Graph.from_edges([(0, 1, 1), (2, 3, 1)])
        graph_path = tmp_path / "g.json"
        write_json(g, graph_path)
        index_path = tmp_path / "i.json"
        assert main(["build", str(graph_path), str(index_path)]) == 0
        assert main(["query", str(index_path), "0", "3"]) == 0
        assert "disconnected" in capsys.readouterr().out

    def test_missing_index_exits_nonzero(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope.json"), "0", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_vertex_exits_nonzero(self, tmp_path, graph_file, capsys):
        index_path = tmp_path / "index.json"
        assert main(["build", str(graph_file), str(index_path)]) == 0
        assert main(["query", str(index_path), "0", "9999"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_edge_list_input(self, tmp_path):
        edge_path = tmp_path / "edges.txt"
        edge_path.write_text("0 1 2\n1 2 2\n")
        index_path = tmp_path / "i.json"
        assert main(["build", str(edge_path), str(index_path)]) == 0
        assert main(["query", str(index_path), "0", "2"]) == 0


class TestObservabilityFlags:
    def test_build_trace_is_valid_chrome_trace(self, tmp_path, graph_file,
                                               capsys):
        import json

        from repro.obs import validate_chrome_trace

        index_path = tmp_path / "index.json"
        trace_path = tmp_path / "build-trace.json"
        assert main(
            ["build", str(graph_file), str(index_path),
             "--trace", str(trace_path)]
        ) == 0
        assert f"trace written to {trace_path}" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        names = {event["name"] for event in payload["traceEvents"]}
        assert "cli.build" in names
        assert "ctls.build" in names
        assert "partition.balanced_cut" in names

    def test_build_metrics_snapshot(self, tmp_path, graph_file, capsys):
        import json

        index_path = tmp_path / "index.json"
        assert main(
            ["build", str(graph_file), str(index_path), "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out[out.index("{"):])
        assert snapshot["counters"]["build.ssspc_runs"] > 0
        assert snapshot["counters"]["build.label_entries"] > 0

    def test_obs_disabled_after_run(self, tmp_path, graph_file):
        import repro.obs as obs

        index_path = tmp_path / "index.json"
        assert main(
            ["build", str(graph_file), str(index_path), "--metrics"]
        ) == 0
        assert not obs.ENABLED


class TestProfile:
    @pytest.fixture
    def built_index(self, tmp_path, graph_file):
        index_path = tmp_path / "index.json"
        assert main(["build", str(graph_file), str(index_path)]) == 0
        return index_path

    def test_profile_prints_percentiles(self, tmp_path, built_index, capsys):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 15\n1 14\n# comment line\n2 13\n")
        assert main(
            ["profile", str(built_index), str(pairs_path), "--repeats", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "replayed 3 queries x2 repeats" in out
        assert "p50=" in out and "p95=" in out and "p99=" in out

    def test_profile_with_trace(self, tmp_path, built_index, capsys):
        import json

        from repro.obs import validate_chrome_trace

        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 15\n")
        trace_path = tmp_path / "profile-trace.json"
        assert main(
            ["profile", str(built_index), str(pairs_path),
             "--trace", str(trace_path)]
        ) == 0
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        names = {event["name"] for event in payload["traceEvents"]}
        assert "profile.replay" in names

    def test_profile_malformed_pairs_exits_nonzero(self, tmp_path,
                                                   built_index, capsys):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 15 3\n")
        assert main(["profile", str(built_index), str(pairs_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_profile_empty_pairs_exits_nonzero(self, tmp_path, built_index):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("# only comments\n")
        assert main(["profile", str(built_index), str(pairs_path)]) == 1


class TestBatchQuery:
    @pytest.fixture
    def built_index(self, tmp_path, graph_file):
        index_path = tmp_path / "index.json"
        assert main(["build", str(graph_file), str(index_path)]) == 0
        return index_path

    def test_pairs_file_one_line_per_result(self, tmp_path, built_index,
                                            capsys):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 15\n3 3\n# comment\n1 14\n")
        assert main(
            ["query", str(built_index), "--pairs", str(pairs_path)]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("Q(0, 15): distance=6")
        assert lines[1] == "Q(3, 3): distance=0 shortest_paths=1"

    def test_pairs_with_disconnected_exit_zero(self, tmp_path, capsys):
        from repro.graph.graph import Graph
        from repro.graph.io import write_json

        g = Graph.from_edges([(0, 1, 1), (2, 3, 1)])
        graph_path = tmp_path / "g.json"
        write_json(g, graph_path)
        index_path = tmp_path / "i.json"
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 3\n0 1\n")
        assert main(["build", str(graph_path), str(index_path)]) == 0
        assert main(
            ["query", str(index_path), "--pairs", str(pairs_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Q(0, 3): disconnected" in out
        assert "Q(0, 1): distance=1" in out

    def test_query_without_pair_or_file_errors(self, built_index, capsys):
        assert main(["query", str(built_index)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_query_with_both_modes_errors(self, tmp_path, built_index,
                                          capsys):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 15\n")
        assert main(
            ["query", str(built_index), "0", "15",
             "--pairs", str(pairs_path)]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_vertex_in_pairs_exits_nonzero(self, tmp_path,
                                                   built_index, capsys):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 9999\n")
        assert main(
            ["query", str(built_index), "--pairs", str(pairs_path)]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestBinaryFormat:
    def test_build_binary_then_query_and_stats(self, tmp_path, graph_file,
                                               capsys):
        index_path = tmp_path / "index.bin"
        assert main(
            ["build", str(graph_file), str(index_path), "--format", "binary"]
        ) == 0
        assert "saved to" in capsys.readouterr().out
        assert index_path.read_bytes()[:8] == b"RSPCIDX4"
        assert main(["query", str(index_path), "0", "15"]) == 0
        assert "shortest_paths=20" in capsys.readouterr().out
        assert main(["stats", str(index_path)]) == 0
        assert "vertices:           16" in capsys.readouterr().out

    def test_stats_prints_label_widths(self, tmp_path, graph_file, capsys):
        index_path = tmp_path / "index.bin"
        assert main(
            ["build", str(graph_file), str(index_path), "--format", "binary"]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(index_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(
            i for i, line in enumerate(lines)
            if line.startswith("size (32-bit model)")
        )
        assert lines[at + 1] == "label widths:       dist uint16, count uint16"


class TestVerifyIndex:
    @pytest.fixture
    def binary_index(self, tmp_path, graph_file):
        index_path = tmp_path / "index.bin"
        assert main(
            ["build", str(graph_file), str(index_path), "--format", "binary"]
        ) == 0
        return index_path

    def test_clean_index_passes(self, binary_index, capsys):
        assert main(["verify-index", str(binary_index)]) == 0
        out = capsys.readouterr().out
        assert "checksums ok" in out
        for section in ("header", "vertices", "offsets", "dist", "count"):
            assert section in out

    def test_cross_check_against_baseline(self, binary_index, graph_file,
                                          capsys):
        assert main(
            ["verify-index", str(binary_index), "--graph", str(graph_file),
             "--samples", "10"]
        ) == 0
        assert "match the online baseline" in capsys.readouterr().out

    def test_corrupt_index_fails_with_section_report(self, binary_index,
                                                     capsys):
        data = bytearray(binary_index.read_bytes())
        data[len(data) // 2] ^= 0xFF
        binary_index.write_bytes(bytes(data))
        assert main(["verify-index", str(binary_index)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "corrupt sections" in captured.err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["verify-index", str(tmp_path / "nope.bin")]) == 1


class TestRetiredContainers:
    @pytest.mark.parametrize("magic", ["RSPCIDX2", "RSPCIDX3"])
    @pytest.mark.parametrize("command", [
        ["stats"], ["query", "{path}", "0", "1"], ["verify-index"],
    ], ids=["stats", "query", "verify-index"])
    def test_one_line_error(self, tmp_path, capsys, magic, command):
        path = tmp_path / "old.bin"
        path.write_bytes(magic.encode() + bytes(64))
        argv = [part.format(path=path) for part in command]
        if "{path}" not in command:
            argv.append(str(path))
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ")
        assert "retired container" in lines[0]
        assert "repro-spc build --format binary" in lines[0]
        assert "Traceback" not in captured.out + captured.err


class TestServeFlags:
    def test_fault_and_breaker_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "index.bin",
             "--fault-plan", "scan.fail:0.1,conn.reset:0.05",
             "--fault-seed", "7",
             "--fallback", "online", "--graph", "net.gr",
             "--breaker-threshold", "5", "--breaker-cooldown", "0.5"]
        )
        assert args.fault_plan == "scan.fail:0.1,conn.reset:0.05"
        assert args.fault_seed == 7
        assert args.fallback == "online" and args.graph == "net.gr"
        assert args.breaker_threshold == 5
        assert args.breaker_cooldown == 0.5

    def test_bad_fault_plan_exits_nonzero(self, tmp_path, graph_file,
                                          capsys):
        index_path = tmp_path / "index.json"
        assert main(["build", str(graph_file), str(index_path)]) == 0
        assert main(
            ["serve", str(index_path), "--fault-plan", "bogus.site:0.5"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_fallback_online_requires_graph(self, tmp_path, graph_file,
                                            capsys):
        index_path = tmp_path / "index.json"
        assert main(["build", str(graph_file), str(index_path)]) == 0
        assert main(
            ["serve", str(index_path), "--fallback", "online"]
        ) == 1
        assert "--graph" in capsys.readouterr().err

    def test_update_freshness_flag_is_gone(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["serve", "index.bin", "--update-freshness-s", "0.5"]
            )
        assert exit_info.value.code == 2
        assert "--update-freshness-s" in capsys.readouterr().err

    @staticmethod
    def _serve_exits(*args, timeout=120):
        """``repro-spc serve ARGS --port 0`` in a subprocess that must
        exit by itself: ``(exit code, stdout, stderr)``."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             *map(str, args), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stdout, stderr = "", "still serving"
        finally:
            # A server that started after all must not outlive the test.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(30)
        return process.returncode, stdout, stderr

    @staticmethod
    def _per_worker_wal(tmp_path, graph_file):
        """A CTL index and a WAL directory in the per-worker layout an
        older fleet kept: one log per worker under DIR/worker-<id>/."""
        from repro.live.wal import WriteAheadLog

        index_path = tmp_path / "index.bin"
        assert main(["build", str(graph_file), str(index_path),
                     "--format", "binary", "--algorithm", "ctl"]) == 0
        wal_dir = tmp_path / "wal"
        for worker in ("worker-0", "worker-1"):
            log = WriteAheadLog(wal_dir / worker)
            log.start(epoch=1)
            log.append_batch(1, 1, [(0, 1, 2.0)])
            log.close()
        return index_path, wal_dir

    @staticmethod
    def _assert_one_error_line(code, stdout, stderr, *needles):
        assert code == 1, (stdout, stderr)
        lines = stderr.strip().splitlines()
        assert len(lines) == 1, stderr
        assert lines[0].startswith("error:")
        for needle in needles:
            assert needle in lines[0], lines[0]
        assert "Traceback" not in stderr
        assert "serving" not in stdout

    def test_fleet_refuses_the_per_worker_wal_layout(self, tmp_path,
                                                     graph_file):
        # Starting from such a directory would begin at the original
        # base and drop every batch those logs hold: refused, one
        # error line naming the directory, no traceback, exit 1.
        index_path, wal_dir = self._per_worker_wal(tmp_path, graph_file)
        self._assert_one_error_line(
            *self._serve_exits(
                index_path, "--workers", "2", "--live-updates",
                "--graph", graph_file, "--wal-dir", wal_dir,
            ),
            str(wal_dir),
        )

    def test_single_server_refuses_the_per_worker_wal_layout(
        self, tmp_path, graph_file
    ):
        # The refusal lives in WAL recovery, which a server alone runs
        # too: it used to start fresh and drop the logged batches.
        index_path, wal_dir = self._per_worker_wal(tmp_path, graph_file)
        self._assert_one_error_line(
            *self._serve_exits(
                index_path, "--live-updates", "--graph", graph_file,
                "--wal-dir", wal_dir,
            ),
            str(wal_dir),
        )

    def test_serve_refuses_a_flipped_label_byte(self, tmp_path):
        # One byte flipped in the dist section loads unchecked (and
        # changes answers); serve checksums every section first.
        import os

        from repro.core import serialize
        from repro.core.ctls import CTLSIndex
        from repro.graph.generators import road_network

        path = tmp_path / "index.bin"
        serialize.save_index(
            CTLSIndex.build(road_network(200, seed=3)), path,
            format="binary",
        )
        with open(path, "rb") as handle:
            header, entries, _, _, _ = serialize._read_v4_layout(
                handle, path, os.path.getsize(path)
            )
        names = [name for name, _, _ in serialize._section_layout(header)]
        offset, length = entries[names.index("dist")]
        data = bytearray(path.read_bytes())
        data[offset + length // 2] ^= 0x01
        path.write_bytes(bytes(data))
        serialize.load_index(path)  # unchecked: loads
        self._assert_one_error_line(
            *self._serve_exits(path), "corrupt index (dist)"
        )
        self._assert_one_error_line(
            *self._serve_exits(path, "--workers", "2"),
            "corrupt index (dist)",
        )

    def test_workers_live_updates_need_a_wal_dir(self, tmp_path,
                                                 graph_file, capsys):
        # A respawned server recovers acknowledged batches only from
        # the WAL, so a supervised live server must have one.
        index_path = tmp_path / "index.bin"
        assert main(["build", str(graph_file), str(index_path),
                     "--format", "binary", "--algorithm", "ctl"]) == 0
        capsys.readouterr()
        assert main(["serve", str(index_path), "--workers", "2",
                     "--live-updates", "--graph", str(graph_file)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "--wal-dir" in err[0]


class TestProfileBatch:
    def test_profile_batched_replay(self, tmp_path, graph_file, capsys):
        index_path = tmp_path / "index.json"
        assert main(["build", str(graph_file), str(index_path)]) == 0
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("0 15\n1 14\n2 13\n3 12\n")
        assert main(
            ["profile", str(index_path), str(pairs_path), "--batch", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "replayed 4 queries" in out
        assert "p50=" in out
