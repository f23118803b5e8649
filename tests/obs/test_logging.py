"""Tests for structured request logging and deterministic sampling."""

import io
import json

import pytest

from repro.obs.logging import (
    JsonLinesWriter,
    RequestIdGenerator,
    RequestLog,
    Sampler,
)


def _records(stream: io.StringIO):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestRequestIdGenerator:
    def test_ids_are_prefixed_and_monotonic(self):
        gen = RequestIdGenerator(prefix="abcd")
        first, second = gen.next_id(), gen.next_id()
        assert first == "abcd-000001"
        assert second == "abcd-000002"

    def test_random_prefixes_differ(self):
        # 4 bytes of urandom: a collision here means the generator is
        # not actually randomising its prefix.
        prefixes = {RequestIdGenerator().prefix for _ in range(16)}
        assert len(prefixes) > 1
        assert all(len(p) == 8 for p in prefixes)


class TestSampler:
    def test_every_one_keeps_everything(self):
        sampler = Sampler(1)
        assert all(sampler.keep() for _ in range(100))

    def test_deterministic_under_seed(self):
        # The exact keep/drop sequence is a function of the seed alone
        # — replaying a workload replays the sampling decisions.
        first = Sampler(4, seed=42)
        second = Sampler(4, seed=42)
        seq_a = [first.keep() for _ in range(200)]
        seq_b = [second.keep() for _ in range(200)]
        assert seq_a == seq_b
        other_seed = [Sampler(4, seed=43).keep() for _ in range(200)]
        assert seq_a != other_seed

    def test_sampling_rate_is_roughly_one_in_n(self):
        sampler = Sampler(10, seed=0)
        kept = sum(sampler.keep() for _ in range(5000))
        assert 300 < kept < 700  # ~500 expected

    def test_matches_randrange_stream(self):
        # The inlined getrandbits rejection loop must reproduce
        # ``Random(seed).randrange(every) == 0`` bit for bit — logs
        # sampled by older builds replay identically under new ones.
        import random

        for every in (2, 3, 10, 16, 100):
            for seed in (0, 7):
                reference = random.Random(seed)
                sampler = Sampler(every, seed)
                assert [sampler.keep() for _ in range(2000)] == [
                    reference.randrange(every) == 0 for _ in range(2000)
                ], (every, seed)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Sampler(-1)


class TestJsonLinesWriter:
    def test_one_compact_line_per_record(self):
        stream = io.StringIO()
        writer = JsonLinesWriter(stream)
        writer.write({"b": 2, "a": 1})
        writer.write({"x": "y"})
        lines = stream.getvalue().splitlines()
        assert lines == ['{"a":1,"b":2}', '{"x":"y"}']
        assert writer.records_written == 2

    def test_batched_block_flushes_once(self):
        flushes = []

        class CountingStream(io.StringIO):
            def flush(self):
                flushes.append(self.getvalue())
                super().flush()

        stream = CountingStream()
        writer = JsonLinesWriter(stream)
        with writer.batched():
            writer.write({"a": 1})
            writer.write({"b": 2})
            assert stream.getvalue() == ""  # nothing on the wire yet
        assert len(flushes) == 1
        assert stream.getvalue().splitlines() == ['{"a":1}', '{"b":2}']
        assert writer.records_written == 2

    def test_batched_is_reentrant(self):
        stream = io.StringIO()
        writer = JsonLinesWriter(stream)
        with writer.batched():
            writer.write({"outer": 1})
            with writer.batched():  # inner block must not flush
                writer.write({"inner": 2})
            assert stream.getvalue() == ""
        assert len(stream.getvalue().splitlines()) == 2

    def test_empty_batched_block_writes_nothing(self):
        stream = io.StringIO()
        writer = JsonLinesWriter(stream)
        with writer.batched():
            pass
        assert stream.getvalue() == ""


class TestRequestLog:
    def _log(self, stream, **kwargs):
        kwargs.setdefault("clock", lambda: 1000.0)
        return RequestLog(stream, **kwargs)

    def test_access_record_fields(self):
        stream = io.StringIO()
        log = self._log(stream, slow_ms=100.0)
        log.log_request(
            request_id="abcd-000001",
            method="GET",
            path="/query",
            status=200,
            latency_s=0.002,
            source=7,
            target=9,
            cache_hit=False,
            scan_s=0.001,
        )
        (record,) = _records(stream)
        assert record["event"] == "access"
        assert record["request_id"] == "abcd-000001"
        assert record["status"] == 200
        assert record["latency_ms"] == 2.0
        assert record["scan_ms"] == 1.0
        assert record["ts"] == 1000.0
        assert "error" not in record  # absent fields are omitted

    def test_slow_query_gets_second_record(self):
        stream = io.StringIO()
        log = self._log(stream, slow_ms=10.0)
        log.log_request(
            request_id="r1", method="GET", path="/query",
            status=200, latency_s=0.5,
        )
        records = _records(stream)
        assert [r["event"] for r in records] == ["access", "slow_query"]
        assert records[1]["request_id"] == "r1"
        assert records[1]["slow_ms_threshold"] == 10.0
        assert log.slow_records == 1

    def test_zero_threshold_disables_slow_log(self):
        stream = io.StringIO()
        log = self._log(stream, slow_ms=0.0)
        log.log_request(
            request_id="r1", method="GET", path="/query",
            status=200, latency_s=9.9,
        )
        assert [r["event"] for r in _records(stream)] == ["access"]

    def test_sampling_skips_only_fast_successes(self):
        # sample_every=high: fast 200s are dropped, but slow requests
        # and errors always land in the log.
        stream = io.StringIO()
        log = self._log(stream, slow_ms=10.0, sample_every=10**9, seed=1)
        log.log_request(
            request_id="fast", method="GET", path="/query",
            status=200, latency_s=0.001,
        )
        log.log_request(
            request_id="slow", method="GET", path="/query",
            status=200, latency_s=0.5,
        )
        log.log_request(
            request_id="failed", method="GET", path="/query",
            status=504, latency_s=0.001, error="deadline exceeded",
        )
        ids = [r["request_id"] for r in _records(stream)]
        assert "fast" not in ids
        assert "slow" in ids and "failed" in ids
        assert log.sampled_out == 1

    def test_sampled_stream_is_deterministic(self):
        def run(seed):
            stream = io.StringIO()
            log = self._log(stream, sample_every=3, seed=seed)
            for i in range(60):
                log.log_request(
                    request_id=f"r{i}", method="GET", path="/query",
                    status=200, latency_s=0.001,
                )
            return [r["request_id"] for r in _records(stream)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_log_batch_matches_per_record_calls(self):
        # One log_batch call must produce the same records — same
        # sampling decisions, same slow/error handling — as the
        # equivalent sequence of log_request calls.
        def records(batched):
            stream = io.StringIO()
            log = self._log(stream, slow_ms=10.0, sample_every=3, seed=5)
            rows = [
                (f"r{i}", "GET", "/query", 200, 0.001, 1, 2, None,
                 0.0015, None, None, None)
                for i in range(30)
            ]
            rows.append(
                ("slow", "GET", "/query", 200, 0.5, 3, 4, None, 0.0015,
                 17, None, None)
            )
            rows.append(
                ("failed", "GET", "/query", 504, 0.001, 5, 6, None,
                 None, None, "deadline exceeded", None)
            )
            if batched:
                log.log_batch(rows)
            else:
                for (rid, method, path, status, latency_s, source,
                     target, cache_hit, scan_s, labels, error, tid) in rows:
                    log.log_request(
                        request_id=rid, method=method, path=path,
                        status=status, latency_s=latency_s,
                        source=source, target=target,
                        cache_hit=cache_hit, scan_s=scan_s,
                        labels_scanned=labels, error=error,
                        trace_id=tid,
                    )
            return _records(stream), log.sampled_out

        batched, batched_dropped = records(batched=True)
        per_call, per_call_dropped = records(batched=False)
        assert batched == per_call
        assert batched_dropped == per_call_dropped > 0
        events = [r["event"] for r in batched]
        assert "slow_query" in events

    def test_log_batch_presampled_skips_sampling(self):
        # presampled=True: the caller already consulted the sampler —
        # every record passed in is written and the sampler's stream
        # is not consumed again.
        stream = io.StringIO()
        log = self._log(stream, sample_every=2, seed=0)
        rows = [
            (f"r{i}", "GET", "/query", 200, 0.001, 1, 2, None, None,
             None, None, None)
            for i in range(10)
        ]
        log.log_batch(rows, presampled=True)
        assert len(_records(stream)) == 10
        assert log.sampled_out == 0

    def test_server_lifecycle_records(self):
        stream = io.StringIO()
        log = self._log(stream)
        log.log_server("start", port=8355)
        (record,) = _records(stream)
        assert record["event"] == "server"
        assert record["what"] == "start"
        assert record["port"] == 8355
