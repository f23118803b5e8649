"""`/admin/profile` and `/stats` index-provenance over a live server."""

import http.client
import json
import threading

import pytest

from repro.baselines.tl import TLIndex
from repro.core.ctls import CTLSIndex
from repro.core.serialize import load_index, save_index
from repro.graph.generators import grid_graph
from repro.serve import ServeConfig, ServerThread, replay


@pytest.fixture(scope="module")
def index():
    return TLIndex.build(grid_graph(8, 8))


def _http(host, port, method, path, timeout=30.0):
    """One exchange; returns ``(status, content_type, body_bytes)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            dict(response.headers),
            response.read(),
        )
    finally:
        conn.close()


class TestProfileEndpoint:
    def test_collapsed_capture_under_load(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            results = {}

            def capture():
                results["response"] = _http(
                    host, port,
                    "POST", "/admin/profile?seconds=0.3&interval_ms=2",
                )

            worker = threading.Thread(target=capture)
            worker.start()
            # keep the server busy while the capture runs
            pairs = [(s, t) for s in range(8) for t in range(40, 48)]
            replay(host, port, pairs * 10, concurrency=4, pipeline=4)
            worker.join()
        status, ctype, headers, body = results["response"]
        assert status == 200
        assert ctype.startswith("text/plain")
        # self-accounted cost headers: samples taken, CPU burned
        assert int(headers["X-Profile-Samples"]) > 0
        assert 0.0 < float(headers["X-Profile-Cpu-Seconds"]) < 0.3
        text = body.decode("utf-8")
        assert text.strip(), "capture must not be empty"
        for line in text.strip().splitlines():
            frames, count = line.rsplit(" ", 1)
            assert int(count) >= 1 and frames

    def test_chrome_format_validates(self, index):
        from repro.obs.tracing import validate_chrome_trace

        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            status, ctype, _, body = _http(
                host, port,
                "POST",
                "/admin/profile?seconds=0.1&interval_ms=2&format=chrome",
            )
        assert status == 200
        payload = json.loads(body)
        assert validate_chrome_trace(payload) == []

    def test_get_rejected_with_405(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            status, _, headers, _ = _http(host, port, "GET", "/admin/profile")
        assert status == 405
        assert headers.get("Allow") == "POST"

    @pytest.mark.parametrize(
        "query",
        [
            "seconds=abc",
            "seconds=0",
            "seconds=61",
            "interval_ms=0.1",
            "interval_ms=2000",
            "format=svg",
        ],
    )
    def test_bad_parameters_rejected_with_400(self, index, query):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            status, _, _, body = _http(
                host, port, "POST", f"/admin/profile?{query}"
            )
        assert status == 400, body

    def test_concurrent_capture_rejected_with_409(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            first = {}

            def long_capture():
                first["response"] = _http(
                    host, port, "POST", "/admin/profile?seconds=1.0"
                )

            worker = threading.Thread(target=long_capture)
            worker.start()
            # Wait until the first capture is registered, then collide.
            import time

            status = None
            for _ in range(50):
                time.sleep(0.02)
                status, _, _, _ = _http(
                    host, port, "POST", "/admin/profile?seconds=0.1"
                )
                if status == 409:
                    break
            worker.join()
        assert status == 409
        assert first["response"][0] == 200

    def test_capture_counter_increments(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            _http(host, port, "POST", "/admin/profile?seconds=0.05")
            _, _, _, body = _http(host, port, "GET", "/metrics")
        metrics = json.loads(body)
        assert metrics["counters"].get("serve.profile.captures") == 1


class TestStatsProvenance:
    def test_stats_reports_loaded_index_provenance(self, tmp_path):
        built = CTLSIndex.build(grid_graph(6, 6))
        path = tmp_path / "idx.bin"
        save_index(
            built, path, format="binary",
            build_info={"algorithm": "ctls", "git_sha": "abc123",
                        "build_seconds": 1.0},
        )
        loaded = load_index(path)
        with ServerThread(loaded, ServeConfig(port=0)) as (host, port):
            _, _, _, body = _http(host, port, "GET", "/stats")
        stats = json.loads(body)
        prov = stats["index"]["provenance"]
        assert prov["format_version"] == 4
        assert prov["build_info"]["git_sha"] == "abc123"
        assert prov["sections"]

    def test_stats_reports_label_widths(self, tmp_path):
        path = tmp_path / "idx.bin"
        save_index(CTLSIndex.build(grid_graph(6, 6)), path, format="binary")
        with ServerThread(load_index(path), ServeConfig(port=0)) as (
            host, port,
        ):
            _, _, _, body = _http(host, port, "GET", "/stats")
        prov = json.loads(body)["index"]["provenance"]
        assert (prov["dist_typecode"], prov["count_typecode"]) == ("H", "H")

    def test_stats_without_provenance_still_serves(self, index):
        # An index built in-process has no file provenance; /stats
        # must simply omit the key rather than fail.
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            status, _, _, body = _http(host, port, "GET", "/stats")
        assert status == 200
        assert "provenance" not in json.loads(body)["index"]


class TestFleetProfile:
    def test_fleet_forwards_the_cost_headers(self, tmp_path):
        # Under the supervisor the one child captures its own profile,
        # with the self-accounting headers.
        from tests.serve.supervised import Served

        path = tmp_path / "idx.bin"
        save_index(CTLSIndex.build(grid_graph(6, 6)), path, format="binary")
        with Served([path, "--workers", "2"], tmp_path / "s.log") as server:
            status, ctype, headers, body = _http(
                *server.address, "POST",
                "/admin/profile?seconds=0.1&interval_ms=2",
            )
        assert status == 200, body
        assert ctype.startswith("text/plain")
        assert int(headers["X-Profile-Samples"]) > 0
        assert float(headers["X-Profile-Cpu-Seconds"]) >= 0.0
        assert headers["X-Request-Id"]
