"""What the deleted micro-batcher guaranteed, pinned on the path that
replaced it.

The server no longer gathers queries into windows: a primary-index
query is scanned on the event loop in the step that reads it, and the
only queries that still wait on an executor are the breaker's fallback
queries.  These tests keep the batcher's old test ids and check the
property each one guarded: a lone query is answered at once, scans run
on the loop thread from the first query on, and queries waiting on the
executor all time out under one deadline.
"""

import asyncio
import threading
import time

import pytest

from repro.baselines.tl import TLIndex
from repro.graph.generators import road_network
from repro.serve import ServeConfig, SPCServer, ServerThread
from repro.serve.http import read_response


@pytest.fixture(scope="module")
def index():
    return TLIndex.build(road_network(120, seed=5))


class RecordingIndex:
    """Delegates to a real index; records each batch scan and the name
    of the thread that ran it."""

    def __init__(self, inner):
        self._inner = inner
        self.batch_calls = []
        self.threads = []

    def query_batch(self, pairs):
        self.batch_calls.append(list(pairs))
        self.threads.append(threading.current_thread().name)
        return self._inner.query_batch(pairs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class BlockedFallback:
    """A fallback whose every query waits until ``release`` is set."""

    def __init__(self, inner):
        self._inner = inner
        self.release = threading.Event()

    def query(self, source, target):
        self.release.wait(10.0)
        return self._inner.query(source, target)


async def _get(host, port, source, target):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET /query?source={source}&target={target} HTTP/1.1\r\n"
        "Host: x\r\n\r\n".encode()
    )
    await writer.drain()
    response = await read_response(reader)
    writer.close()
    return response


def test_lone_submission_resolves_quickly(index):
    # Nothing waits for company: with a deadline far out of reach, a
    # lone query is still answered at once, by a one-pair scan.
    recording = RecordingIndex(index)
    config = ServeConfig(port=0, cache_size=0, request_timeout_ms=10_000_000)
    with ServerThread(recording, config) as (host, port):
        status, _, payload = asyncio.run(
            asyncio.wait_for(_get(host, port, 2, 3), timeout=1.0)
        )
    assert status == 200
    assert payload["distance"] == index.query(2, 3).distance
    assert recording.batch_calls == [[(2, 3)]]


def test_first_window_goes_to_executor_then_lone_windows_inline(index):
    # No executor hop on the primary index: the first scan and every
    # later one run on the server's own loop thread.
    recording = RecordingIndex(index)
    with ServerThread(recording, ServeConfig(port=0, cache_size=0)) as (
        host, port,
    ):

        async def queries():
            return [await _get(host, port, i, i + 7) for i in range(10)]

        responses = asyncio.run(queries())
    assert [status for status, _, _ in responses] == [200] * 10
    assert len(recording.threads) == 10
    assert set(recording.threads) == {ServerThread.thread_name}


def test_executor_window_times_out_under_one_deadline(index):
    # The fallback's executor has two workers; three queries wait on
    # it, one of them queued behind the other two.  All three are
    # answered 504 when the deadline passes; none waits out the
    # blocked fallback.
    fallback = BlockedFallback(index)
    spc = SPCServer(
        index, ServeConfig(port=0, request_timeout_ms=30), fallback=fallback
    )

    async def scenario():
        started = time.perf_counter()
        answers = await asyncio.gather(*(
            spc._fallback_answer(i, i + 1, f"rid-{i}", started, False)
            for i in range(3)
        ))
        return answers, time.perf_counter() - started

    try:
        answers, elapsed = asyncio.run(scenario())
    finally:
        fallback.release.set()
        spc._fallback_executor.shutdown(wait=True)
        spc._log_executor.shutdown(wait=True)
    assert [status for status, _, _ in answers] == [504] * 3
    assert all(
        payload["error"] == "deadline exceeded" for _, payload, _ in answers
    )
    assert elapsed < 5.0  # well before the blocked fallback lets go
    counters = spc.recorder.metrics_snapshot()["counters"]
    assert counters["serve.timeouts"] == 3
    assert counters["serve.fallback.queries"] == 3
    assert spc._admitted == 0
