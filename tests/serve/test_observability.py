"""End-to-end request-observability tests against a live server.

The correlation contract under test: a client-sent ``X-Request-Id``
comes back in the response header on *every* path (fast GET, full
parser, cache hit, POST batch) and stamps the matching access and
slow-query log records; explain counters agree exactly with the
offline :meth:`SPCIndex.query_with_stats`; ``/metrics`` speaks both
JSON and validator-clean Prometheus text; ``/stats`` serves the
rolling window with ``null`` (never a made-up number) for empty
statistics; and ``/health`` flips to 503 when the SLO window is
breached.
"""

import asyncio
import io
import json
import random
import time

import pytest

from repro.core.ctls import CTLSIndex
from repro.graph.generators import road_network
from repro.obs import RequestLog, validate_prometheus_text
from repro.serve import ServeConfig, ServerThread, replay
from repro.serve.http import read_response
from repro.serve.top import render_dashboard


@pytest.fixture(scope="module")
def graph():
    return road_network(220, seed=11)


@pytest.fixture(scope="module")
def index(graph):
    return CTLSIndex.build(graph)


@pytest.fixture(scope="module")
def workload(graph):
    vertices = list(graph.vertices())
    rng = random.Random(23)
    return [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(200)
    ]


class SlowIndex:
    """Delays every scan; for SLO-degradation tests."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s

    def query(self, source, target):
        time.sleep(self._delay_s)
        return self._inner.query(source, target)

    def query_batch(self, pairs):
        time.sleep(self._delay_s)
        return self._inner.query_batch(pairs)

    def query_with_stats(self, source, target):
        return self._inner.query_with_stats(source, target)


def _request(host, port, raw: bytes):
    """One raw HTTP exchange; returns ``(status, headers, payload)``."""

    async def scenario():
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw)
        await writer.drain()
        response = await read_response(reader)
        writer.close()
        return response

    return asyncio.run(scenario())


def _get(host, port, path, headers=()):
    extra = "".join(f"{k}: {v}\r\n" for k, v in headers)
    return _request(
        host,
        port,
        f"GET {path} HTTP/1.1\r\nHost: x\r\n{extra}\r\n".encode(),
    )


def _post(host, port, path, payload, headers=()):
    body = json.dumps(payload).encode()
    extra = "".join(f"{k}: {v}\r\n" for k, v in headers)
    head = (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n{extra}"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return _request(host, port, head.encode() + body)


def _server(index, log_stream=None, **overrides):
    """A ServerThread whose server logs into ``log_stream``."""
    overrides.setdefault("port", 0)
    config = ServeConfig(**overrides)
    thread = ServerThread(index, config)
    if log_stream is not None:
        # Replace the thread's main coroutine so the server is built
        # with an injected RequestLog writing into our StringIO.
        async def _main():
            from repro.serve.server import SPCServer

            thread.server = SPCServer(
                index,
                config,
                request_log=RequestLog(
                    log_stream,
                    slow_ms=config.slow_query_ms,
                    sample_every=config.log_sample_every,
                    seed=config.log_seed,
                ),
            )
            await thread.server.start()
            thread._loop = asyncio.get_running_loop()
            thread._ready.set()
            await thread.server.wait_stopped()

        thread._main = _main
    return thread


def _log_records(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestRequestIds:
    def test_client_id_echoed_on_fast_path(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            _, headers, _ = _get(
                host, port, "/query?source=1&target=2",
                headers=[("X-Request-Id", "my-id-123")],
            )
            assert headers["x-request-id"] == "my-id-123"

    def test_client_id_echoed_case_insensitively(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            _, headers, _ = _get(
                host, port, "/query?source=1&target=2",
                headers=[("x-request-id", "lower-case-id")],
            )
            assert headers["x-request-id"] == "lower-case-id"

    def test_server_generates_id_when_absent(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            _, h1, _ = _get(host, port, "/query?source=1&target=2")
            _, h2, _ = _get(host, port, "/query?source=1&target=3")
            assert h1["x-request-id"] != h2["x-request-id"]
            prefix = h1["x-request-id"].rsplit("-", 1)[0]
            assert h2["x-request-id"].startswith(prefix)

    def test_every_endpoint_carries_an_id(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            for path in ("/health", "/metrics", "/stats", "/nope"):
                _, headers, _ = _get(host, port, path)
                assert "x-request-id" in headers, path

    def test_cache_hit_echoes_id(self, index):
        config = ServeConfig(port=0, cache_size=64)
        with ServerThread(index, config) as (host, port):
            _get(host, port, "/query?source=1&target=2")
            _, headers, _ = _get(
                host, port, "/query?source=1&target=2",
                headers=[("X-Request-Id", "cached-req")],
            )
            assert headers["x-request-id"] == "cached-req"

    def test_replay_reports_no_id_errors(self, index, workload):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            report = replay(
                host, port, workload[:100],
                concurrency=4, pipeline=4,
                collect_results=True, send_request_ids=True,
            )
            assert report.ok == 100
            assert report.id_errors == 0
            assert all(
                rid == f"load-{slot:06x}"
                for slot, rid in enumerate(report.request_ids)
            )


class TestRequestLogging:
    def test_client_id_lands_in_access_and_slow_logs(self, index):
        stream = io.StringIO()
        # slow_ms tiny but positive: everything is a slow query.
        thread = _server(index, stream, slow_query_ms=1e-6)
        with thread as (host, port):
            _get(
                host, port, "/query?source=1&target=2",
                headers=[("X-Request-Id", "corr-42")],
            )
        records = _log_records(stream)
        access = [r for r in records if r["event"] == "access"]
        slow = [r for r in records if r["event"] == "slow_query"]
        assert any(r["request_id"] == "corr-42" for r in access)
        assert any(r["request_id"] == "corr-42" for r in slow)
        mine = next(r for r in access if r["request_id"] == "corr-42")
        assert mine["source"] == 1 and mine["target"] == 2
        assert mine["status"] == 200
        assert mine["path"] == "/query"

    def test_scan_time_reaches_the_log(self, index, workload):
        stream = io.StringIO()
        thread = _server(index, stream, cache_size=0)
        with thread as (host, port):
            replay(host, port, workload[:50], concurrency=4, pipeline=4)
        access = [
            r for r in _log_records(stream) if r["event"] == "access"
        ]
        assert len(access) == 50, "every query is logged"
        assert all(r["scan_ms"] >= 0 for r in access)
        assert not any(
            "batch_size" in r or "queue_wait_ms" in r for r in access
        )

    def test_sampling_applies_to_server_log(self, index, workload):
        def run(seed):
            stream = io.StringIO()
            thread = _server(
                index, stream,
                log_sample_every=4, log_seed=seed, cache_size=0,
            )
            with thread as (host, port):
                # Single connection, strict request/response: the
                # server sees requests in a deterministic order.
                for source, target in workload[:40]:
                    _get(
                        host, port,
                        f"/query?source={source}&target={target}",
                    )
            return [
                r["request_id"]
                for r in _log_records(stream)
                if r["event"] == "access"
            ]

        kept = run(5)
        assert 0 < len(kept) < 40  # sampled, not everything/nothing

    def test_errors_are_always_logged(self, index):
        stream = io.StringIO()
        thread = _server(index, stream, log_sample_every=10**9)
        with thread as (host, port):
            _get(host, port, "/query?source=abc&target=2")
        records = _log_records(stream)
        assert any(
            r["event"] == "access" and r["status"] == 400
            for r in records
        )


class TestExplain:
    def test_explain_counters_match_query_with_stats(self, index, workload):
        config = ServeConfig(port=0, cache_size=0)
        with ServerThread(index, config) as (host, port):
            for source, target in workload[:20]:
                _, _, payload = _post(
                    host, port, "/query",
                    {"source": source, "target": target, "explain": True},
                )
                expected = index.query_with_stats(source, target)
                explain = payload["explain"]
                assert (
                    explain["labels_scanned"]
                    == expected.visited_labels
                ), (source, target)
                node = index.tree.lca_node(source, target)
                assert explain["lca_depth"] == node.depth
                assert explain["lca_width"] == node.size

    def test_explain_includes_timing_fields(self, index):
        config = ServeConfig(port=0, cache_size=0)
        with ServerThread(index, config) as (host, port):
            _, _, payload = _post(
                host, port, "/query",
                {"source": 1, "target": 2, "explain": True},
            )
        explain = payload["explain"]
        assert explain["cache_hit"] is False
        assert explain["scan_us"] > 0
        assert "request_id" in explain

    def test_explain_on_cache_hit(self, index):
        config = ServeConfig(port=0, cache_size=64)
        with ServerThread(index, config) as (host, port):
            _get(host, port, "/query?source=1&target=2")
            _, _, payload = _post(
                host, port, "/query",
                {"source": 1, "target": 2, "explain": True},
            )
        assert payload["explain"]["cache_hit"] is True
        assert payload["explain"]["labels_scanned"] >= 0

    def test_get_explain_param(self, index):
        config = ServeConfig(port=0)
        with ServerThread(index, config) as (host, port):
            _, _, payload = _get(
                host, port, "/query?source=1&target=2&explain=true"
            )
        assert "explain" in payload

    def test_plain_answers_carry_no_explain(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            _, _, payload = _get(host, port, "/query?source=1&target=2")
        assert "explain" not in payload


class TestMetricsNegotiation:
    def test_default_is_json(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            _get(host, port, "/query?source=1&target=2")
            _, headers, payload = _get(host, port, "/metrics")
            assert headers["content-type"] == "application/json"
            assert "counters" in payload

    def test_prometheus_via_accept_header(self, index, workload):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            replay(host, port, workload[:50], concurrency=4)

            async def scrape():
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                    b"Accept: text/plain\r\n\r\n"
                )
                await writer.drain()
                from repro.serve.http import read_raw_response

                status, headers, body = await read_raw_response(reader)
                writer.close()
                return status, headers, body

            status, headers, body = asyncio.run(scrape())
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
        assert validate_prometheus_text(text) == []
        assert "repro_serve_requests_total" in text

    def test_prometheus_matches_json_snapshot(self, index, workload):
        from repro.serve.http import read_raw_response

        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            replay(host, port, workload[:50], concurrency=4)

            async def both():
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                await writer.drain()
                _, _, json_body = await read_raw_response(reader)
                writer.write(
                    b"GET /metrics?format=prometheus HTTP/1.1\r\n"
                    b"Host: x\r\n\r\n"
                )
                await writer.drain()
                _, _, text_body = await read_raw_response(reader)
                writer.close()
                return json.loads(json_body), text_body.decode()

            snapshot, text = asyncio.run(both())
        # The text form is rendered from the same snapshot family, so
        # stable counters must agree.  serve.requests itself moves
        # between the two scrapes (each scrape is a request), so
        # compare a counter the scrapes don't touch.
        ok = snapshot["counters"]["serve.responses.ok"]
        assert f"repro_serve_responses_ok_total {ok}" in text
        hist = snapshot["histograms"]["serve.latency_seconds"]
        assert f"repro_serve_latency_seconds_count {hist['count']}" in text

    def test_format_param_forces_prometheus(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            async def scrape():
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"GET /metrics?format=prometheus HTTP/1.1\r\n"
                    b"Host: x\r\n\r\n"
                )
                await writer.drain()
                from repro.serve.http import read_raw_response

                response = await read_raw_response(reader)
                writer.close()
                return response

            status, headers, body = asyncio.run(scrape())
        assert status == 200
        assert validate_prometheus_text(body.decode()) == []


class TestStatsEndpoint:
    def test_idle_window_serves_nulls(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            _, _, payload = _get(host, port, "/stats")
        window = payload["window"]
        assert window["requests"] == 0
        assert window["error_rate"] is None
        assert window["latency_ms"]["p99"] is None
        assert payload["slo"]["status"] == "ok"

    def test_window_tracks_traffic(self, index, workload):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            replay(host, port, workload[:80], concurrency=4)
            _, _, payload = _get(host, port, "/stats")
        window = payload["window"]
        assert window["requests"] == 80
        assert window["latency_ms"]["p50"] is not None
        assert window["qps"] > 0
        assert payload["cache"]["capacity"] > 0
        assert payload["breaker"]["state"] == "closed"

    def test_disabled_window(self, index):
        config = ServeConfig(port=0, slo_window_s=0)
        with ServerThread(index, config) as (host, port):
            _get(host, port, "/query?source=1&target=2")
            _, _, payload = _get(host, port, "/stats")
        assert payload["window"] is None
        assert payload["slo"]["status"] == "ok"

    def test_dashboard_renders_live_payloads(self, index, workload):
        # The repro-spc top renderer must handle real server payloads.
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            replay(host, port, workload[:50], concurrency=4)
            _, _, stats = _get(host, port, "/stats")
            _, _, metrics = _get(host, port, "/metrics")
        text = render_dashboard(
            stats, metrics, target="x:1", health_status="ok"
        )
        assert "qps" in text
        assert "p99" in text
        assert "lifetime:" in text


class TestHealthReadiness:
    def test_health_payload_shape(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            status, _, payload = _get(host, port, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["index"]["type"] == "CTLSIndex"
        assert payload["index"]["vertices"] > 0
        assert payload["index"]["label_entries"] > 0
        assert payload["uptime_seconds"] >= 0
        assert payload["slo"]["status"] == "ok"

    def test_slo_breach_degrades_health(self, index, workload):
        slow = SlowIndex(index, delay_s=0.02)
        config = ServeConfig(
            port=0,
            cache_size=0,
            slo_p99_ms=1.0,  # 20 ms scans cannot meet a 1 ms p99
        )
        with ServerThread(slow, config) as (host, port):
            for source, target in workload[:12]:
                _get(
                    host, port,
                    f"/query?source={source}&target={target}",
                )
            status, _, payload = _get(host, port, "/health")
            assert status == 503
            assert payload["status"] == "degraded"
            assert payload["slo"]["breaches"]
            # /stats reports the same verdict.
            _, _, stats = _get(host, port, "/stats")
            assert stats["slo"]["status"] == "degraded"

    def test_healthy_server_meets_generous_slo(self, index, workload):
        config = ServeConfig(port=0, slo_p99_ms=60_000.0)
        with ServerThread(index, config) as (host, port):
            replay(host, port, workload[:40], concurrency=4)
            status, _, payload = _get(host, port, "/health")
        assert status == 200
        assert payload["status"] == "ok"


class TestDistributedTracing:
    def test_capture_validates_and_links_scan_spans(self, index, workload):
        from repro.obs import validate_chrome_trace

        config = dict(trace_sample_every=1)  # trace every request
        with ServerThread(
            index, ServeConfig(port=0, **config)
        ) as (host, port):
            replay(host, port, workload[:30], concurrency=4)
            status, _, payload = _post(host, port, "/admin/trace", {})
        assert status == 200
        assert validate_chrome_trace(payload) == []
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        requests = [s for s in spans if s["name"] == "serve.request"]
        scans = [s for s in spans if s["name"] == "serve.scan_batch"]
        assert len(requests) == 30
        assert scans, "scans must be traced"
        # Every scan span is parented to a traced request span of the
        # same trace (explicit ids, not just time containment).
        by_id = {
            (s["args"]["trace_id"], s["args"]["span_id"]): s
            for s in requests
        }
        for scan in scans:
            parent = by_id.get(
                (scan["args"]["trace_id"], scan["args"]["parent_id"])
            )
            assert parent is not None
            assert scan["args"]["batch_size"] >= 1

    def test_inbound_sampled_traceparent_is_honoured(self, index):
        from repro.obs import TraceContext

        ctx = TraceContext.generate()
        # Local sampling off: only propagated contexts are traced.
        with ServerThread(
            index, ServeConfig(port=0, trace_sample_every=0)
        ) as (host, port):
            _get(host, port, "/query?source=1&target=2",
                 headers=[("traceparent", ctx.to_header())])
            _get(host, port, "/query?source=3&target=4")  # untraced
            status, _, fragment = _post(
                host, port, "/admin/trace?format=fragment", {}
            )
        assert status == 200
        assert fragment["pid"] > 0
        spans = [
            s for s in fragment["spans"]
            if s["name"] == "serve.request"
        ]
        assert len(spans) == 1
        (span,) = spans
        assert span["trace_id"] == ctx.trace_id
        assert span["parent_id"] == ctx.span_id  # child of the client
        assert span["span_id"] != ctx.span_id

    def test_unsampled_traceparent_suppresses_tracing(self, index):
        from repro.obs import TraceContext

        ctx = TraceContext.generate(sampled=False)
        with ServerThread(
            index, ServeConfig(port=0, trace_sample_every=1)
        ) as (host, port):
            _get(host, port, "/query?source=1&target=2",
                 headers=[("traceparent", ctx.to_header())])
            _, _, fragment = _post(
                host, port, "/admin/trace?format=fragment", {}
            )
        assert all(
            s["trace_id"] != ctx.trace_id for s in fragment["spans"]
        )

    def test_disabled_tracing_rejects_capture(self, index):
        with ServerThread(
            index, ServeConfig(port=0, trace_buffer=0)
        ) as (host, port):
            status, _, payload = _post(host, port, "/admin/trace", {})
        assert status == 409
        assert "disabled" in payload["error"]

    def test_capture_requires_post_and_known_format(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            status, headers, _ = _get(host, port, "/admin/trace")
            assert status == 405
            assert headers.get("allow") == "POST"
            status, _, payload = _post(
                host, port, "/admin/trace?format=nonsense", {}
            )
            assert status == 400

    def test_trace_id_stamps_access_log_records(self, index):
        from repro.obs import TraceContext

        ctx = TraceContext.generate()
        stream = io.StringIO()
        thread = _server(index, stream, trace_sample_every=0)
        with thread as (host, port):
            _get(host, port, "/query?source=1&target=2",
                 headers=[("traceparent", ctx.to_header())])
            _get(host, port, "/query?source=3&target=4")
        records = [
            r for r in _log_records(stream) if r["event"] == "access"
        ]
        assert len(records) == 2
        traced = [r for r in records if r.get("trace_id")]
        assert len(traced) == 1
        assert traced[0]["trace_id"] == ctx.trace_id

    def test_stats_reports_ring_occupancy(self, index):
        with ServerThread(
            index, ServeConfig(port=0, trace_sample_every=1)
        ) as (host, port):
            _get(host, port, "/query?source=1&target=2")
            _, _, stats = _get(host, port, "/stats")
        trace = stats["trace"]
        assert trace["capacity"] == 4096
        assert trace["recorded"] >= 1
        assert trace["buffered"] >= 1

    def test_clear_drains_the_ring(self, index):
        with ServerThread(
            index, ServeConfig(port=0, trace_sample_every=1)
        ) as (host, port):
            _get(host, port, "/query?source=1&target=2")
            _post(host, port, "/admin/trace?clear=1", {})
            _, _, fragment = _post(
                host, port, "/admin/trace?format=fragment", {}
            )
        assert fragment["spans"] == []

    @pytest.mark.parametrize("value", ["on", "True"])
    def test_clear_accepts_any_truthy_spelling(self, index, value):
        with ServerThread(
            index, ServeConfig(port=0, trace_sample_every=1)
        ) as (host, port):
            _get(host, port, "/query?source=1&target=2")
            _post(host, port, f"/admin/trace?clear={value}", {})
            _, _, fragment = _post(
                host, port, "/admin/trace?format=fragment", {}
            )
        assert fragment["spans"] == []


class TestTopPairs:
    def test_heavy_pair_surfaces_with_cache_attribution(self, index):
        hot = (1, 2)
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            for _ in range(40):
                _get(
                    host, port,
                    f"/query?source={hot[0]}&target={hot[1]}",
                )
            for s in range(3, 23):
                _get(host, port, f"/query?source={s}&target={s + 1}")
            _, _, stats = _get(host, port, "/stats")
        block = stats["top_pairs"]
        assert block["sketch"]["total"] == 60
        top_pairs = [tuple(entry["pair"]) for entry in block["top"]]
        assert top_pairs[0] == hot
        attribution = block["cache_attribution"]
        # The hot pair was cached after its first miss: heavy hitters
        # must show near-perfect cache efficiency, the tail none.
        assert attribution["hot"]["hits"] >= 38
        assert attribution["hot"]["hit_rate"] > 0.9
        assert attribution["tail"]["hits"] == 0

    def test_symmetric_pairs_share_one_slot(self, index):
        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            _get(host, port, "/query?source=5&target=9")
            _get(host, port, "/query?source=9&target=5")
            _, _, stats = _get(host, port, "/stats")
        (entry,) = stats["top_pairs"]["top"]
        assert entry["pair"] == [5, 9]
        assert entry["count"] == 2

    def test_disabled_sketch_omits_the_block(self, index):
        with ServerThread(
            index, ServeConfig(port=0, top_pairs_capacity=0)
        ) as (host, port):
            _get(host, port, "/query?source=1&target=2")
            _, _, stats = _get(host, port, "/stats")
        assert "top_pairs" not in stats

    def test_analyze_renders_live_payload(self, index):
        from repro.serve.analyze import render_analysis

        with ServerThread(index, ServeConfig(port=0)) as (host, port):
            for _ in range(5):
                _get(host, port, "/query?source=1&target=2")
            _, _, stats = _get(host, port, "/stats")
        text = render_analysis(stats)
        assert "top" in text
        assert "(1, 2)" in text
        assert "cache efficiency" in text
