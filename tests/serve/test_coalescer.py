"""MicroBatcher semantics: windows, flush triggers, error isolation."""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import IndexQueryError
from repro.faults import FaultPlan
from repro.obs import Recorder
from repro.serve import coalescer
from repro.serve.coalescer import MicroBatcher
from repro.types import QueryResult


class FakeIndex:
    """Counts batch calls; vertex ids < 0 are 'unindexed'."""

    def __init__(self):
        self.batch_calls = []
        self.threads = []
        self.scalar_calls = 0

    def query(self, source, target):
        self.scalar_calls += 1
        if source < 0 or target < 0:
            raise IndexQueryError(f"vertex {min(source, target)}")
        return QueryResult(source + target, 1)

    def query_batch(self, pairs):
        self.batch_calls.append(list(pairs))
        self.threads.append(threading.get_ident())
        results = []
        for source, target in pairs:
            if source < 0 or target < 0:
                raise IndexQueryError(f"vertex {min(source, target)}")
            results.append(QueryResult(source + target, 1))
        return results


def test_concurrent_submissions_form_one_batch():
    index = FakeIndex()

    async def scenario():
        batcher = MicroBatcher(index, max_batch=64)
        futures = [batcher.submit(i, i + 1) for i in range(10)]
        results = await asyncio.gather(*futures)
        await batcher.drain()
        return results

    results = asyncio.run(scenario())
    assert results == [QueryResult(2 * i + 1, 1) for i in range(10)]
    # all ten landed in a single batch scan
    assert len(index.batch_calls) == 1
    assert len(index.batch_calls[0]) == 10


def test_full_window_flushes_immediately():
    index = FakeIndex()

    async def scenario():
        batcher = MicroBatcher(index, max_batch=4)
        futures = [batcher.submit(i, i) for i in range(10)]
        await asyncio.gather(*futures)
        await batcher.drain()
        return batcher

    batcher = asyncio.run(scenario())
    assert batcher.queries_batched == 10
    # 4 + 4 + 2 under max_batch=4
    sizes = sorted(len(call) for call in index.batch_calls)
    assert sizes == [2, 4, 4]


def test_lone_submission_resolves_quickly():
    index = FakeIndex()

    async def scenario():
        batcher = MicroBatcher(index, max_batch=64, max_wait_us=10_000_000)
        # must resolve via the idle flush, far before the backstop timer
        result = await asyncio.wait_for(batcher.submit(2, 3), timeout=1.0)
        await batcher.drain()
        return result

    assert asyncio.run(scenario()) == QueryResult(5, 1)


def test_bad_pair_fails_only_its_future():
    index = FakeIndex()

    async def scenario():
        batcher = MicroBatcher(index, max_batch=64)
        good = batcher.submit(1, 2)
        bad = batcher.submit(-7, 2)
        also_good = batcher.submit(3, 4)
        results = await asyncio.gather(
            good, bad, also_good, return_exceptions=True
        )
        await batcher.drain()
        return results

    first, second, third = asyncio.run(scenario())
    assert first == QueryResult(3, 1)
    assert isinstance(second, IndexQueryError)
    assert third == QueryResult(7, 1)


def test_cancelled_waiter_does_not_break_batch_mates():
    index = FakeIndex()

    async def scenario():
        batcher = MicroBatcher(index, max_batch=64)
        doomed = batcher.submit(1, 1)
        survivor = batcher.submit(2, 2)
        doomed.cancel()
        result = await survivor
        await batcher.drain()
        return result

    assert asyncio.run(scenario()) == QueryResult(4, 1)


def test_drain_flushes_pending_window():
    index = FakeIndex()

    async def scenario():
        # huge backstop: only drain (or idle) can flush
        batcher = MicroBatcher(index, max_batch=64, max_wait_us=10_000_000)
        future = batcher.submit(5, 6)
        await batcher.drain()
        assert batcher.pending_count == 0
        return await future

    assert asyncio.run(scenario()) == QueryResult(11, 1)


def test_rejects_bad_max_batch():
    with pytest.raises(ValueError):
        MicroBatcher(FakeIndex(), max_batch=0)


class SlowFakeIndex(FakeIndex):
    def query_batch(self, pairs):
        time.sleep(0.02)
        return super().query_batch(pairs)


def _with_executor(index, scenario, **kwargs):
    """Run ``scenario(batcher, recorder)`` against a batcher whose
    windows may go to a real one-worker executor."""
    recorder = Recorder()
    executor = ThreadPoolExecutor(max_workers=1)

    async def main():
        batcher = MicroBatcher(
            index, recorder=recorder, executor=executor, **kwargs
        )
        try:
            return await scenario(batcher, recorder)
        finally:
            await batcher.drain()

    try:
        return asyncio.run(main()), recorder
    finally:
        executor.shutdown(wait=True)


def _inline_windows(recorder):
    return recorder.metrics_snapshot()["counters"].get(
        "serve.batch.inline", 0
    )


async def _warm(batcher, count=40):
    """Lone windows: enough for the averages to settle even when the
    first, cold scan was slow."""
    for i in range(count):
        await batcher.submit(i, i)


def test_first_window_goes_to_executor_then_lone_windows_inline():
    index = FakeIndex()

    async def scenario(batcher, recorder):
        await batcher.submit(1, 2)
        first = _inline_windows(recorder)
        await _warm(batcher)
        return first

    first, recorder = _with_executor(index, scenario)
    assert first == 0
    assert index.threads[0] != threading.get_ident()
    # a one-pair scan is far cheaper than a thread round trip
    assert _inline_windows(recorder) >= 1
    assert index.threads[-1] == threading.get_ident()


def test_slow_index_stays_on_executor():
    index = SlowFakeIndex()

    async def scenario(batcher, recorder):
        await _warm(batcher, count=5)

    _, recorder = _with_executor(index, scenario)
    assert _inline_windows(recorder) == 0
    assert threading.get_ident() not in index.threads


def test_swapped_index_is_measured_on_executor_again():
    index, slow = FakeIndex(), SlowFakeIndex()

    async def scenario(batcher, recorder):
        await _warm(batcher)
        before = _inline_windows(recorder)
        batcher.swap_index(slow)
        await _warm(batcher, count=3)
        return _inline_windows(recorder) - before

    inline_after_swap, _ = _with_executor(index, scenario)
    assert inline_after_swap == 0
    assert threading.get_ident() not in slow.threads


def test_flush_fault_on_inline_window_isolates_and_answers():
    index = FakeIndex()
    recorder = Recorder()

    async def scenario():
        batcher = MicroBatcher(
            index,
            recorder=recorder,
            fault_plan=FaultPlan.parse("flush.fail:1.0"),
        )
        futures = [batcher.submit(i, i + 1) for i in range(5)]
        return await asyncio.gather(*futures)

    results = asyncio.run(scenario())
    assert results == [QueryResult(2 * i + 1, 1) for i in range(5)]
    counters = recorder.metrics_snapshot()["counters"]
    assert counters["serve.batch.inline"] == 1
    assert counters["serve.batch.isolated"] == 1
    assert counters["serve.batch.retry_ok"] == 5
    assert index.batch_calls == []  # the fault fired before the scan


def test_bad_pair_in_measured_inline_window_fails_only_its_future():
    index = FakeIndex()

    async def scenario(batcher, recorder):
        await _warm(batcher)
        before = _inline_windows(recorder)
        futures = [
            batcher.submit(1, 2), batcher.submit(-3, 2), batcher.submit(3, 4)
        ]
        results = await asyncio.gather(*futures, return_exceptions=True)
        return results, _inline_windows(recorder) - before

    (results, inline), _ = _with_executor(index, scenario)
    assert inline == 1
    first, bad, third = results
    assert first == QueryResult(3, 1)
    assert isinstance(bad, IndexQueryError)
    assert third == QueryResult(7, 1)


def test_executor_window_times_out_under_one_deadline(monkeypatch):
    fired = []
    expire = coalescer.expire

    def counting_expire(futures):
        fired.append(len(futures))
        expire(futures)

    monkeypatch.setattr(coalescer, "expire", counting_expire)
    index = SlowFakeIndex()

    async def scenario(batcher, recorder):
        futures = [batcher.submit(i, i) for i in range(3)]
        return await asyncio.gather(*futures, return_exceptions=True)

    results, recorder = _with_executor(index, scenario, timeout_s=0.005)
    assert all(isinstance(r, asyncio.TimeoutError) for r in results)
    assert fired == [3]  # one timer for the whole window
    assert recorder.metrics_snapshot()["counters"]["serve.batch.count"] == 1
