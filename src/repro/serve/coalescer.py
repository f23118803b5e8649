"""The micro-batching coalescer: awaitable submissions, batched scans.

:class:`MicroBatcher` is the core of the serving layer.  Request
handlers call :meth:`MicroBatcher.submit` and await the future it
returns; the batcher gathers submissions into windows and answers each
window with one :meth:`SPCIndex.query_batch` call, so throughput under
load rides the vectorised batch kernel instead of the per-pair path.

A window closes on the *earliest* of three signals:

* **full** — ``max_batch`` submissions are pending;
* **idle** — the event loop finished its current tick (scheduled with
  ``call_soon``), i.e. every request that was already readable has been
  parsed and submitted.  This is what makes batching *adaptive*: a lone
  request flushes immediately, while a burst of concurrent requests —
  woken by the same selector poll — lands in one window with no added
  latency;
* **timer** — ``max_wait_us`` elapsed since the window opened.  Only
  armed while a scan is in flight, because the idle flush is then
  suppressed: the next window keeps filling for the scan's whole
  duration, so batch size tracks the arrival rate (the serving
  analogue of the pipelining in the batch-processing literature).

Where a window is scanned is measured, not configured.  The batcher
keeps moving averages of the scan cost per pair and of the executor
hop (the worker-thread round trip minus its scan).  While no scan is
in flight, a window predicted to scan faster than one hop is scanned
on the loop, answered in the tick that flushed it with no thread hop,
task or timer.  Other windows — and all before the first measurement,
so a slow index stays off the loop — go to the worker thread under
one timer at their oldest member's deadline.

The index must be read-only while served (every built index is); the
worker thread never mutates it, and ``tests/core/
test_concurrent_readers.py`` pins the lock-free read guarantee.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional, Tuple

from repro.exceptions import ReproError
from repro.obs import NULL_RECORDER, new_span_id
from repro.types import Vertex

#: One queued submission: source, target, the future to resolve, and an
#: optional caller-owned metadata dict (``None`` on the fastest path).
_Pending = Tuple[Vertex, Vertex, "asyncio.Future", Optional[dict]]

#: Weight of the newest sample in the scan-cost and hop averages.
_EWMA_ALPHA = 0.125


def _ewma(average: float, sample: float) -> float:
    return average + _EWMA_ALPHA * (sample - average) if average else sample


def expire(futures) -> None:
    """A deadline firing: fail each still-pending future with a timeout."""
    for future in futures:
        if not future.done():
            future.set_exception(asyncio.TimeoutError())


def offload(executor, timeout_s: float, fn, *args) -> "asyncio.Future":
    """``fn(*args)`` on ``executor`` as a loop future that fails with
    :class:`asyncio.TimeoutError` after ``timeout_s`` — one timer per
    call, set up like the batcher's window deadline."""
    loop = asyncio.get_running_loop()
    future = loop.create_future()
    deadline = loop.call_later(timeout_s, expire, (future,))

    def settle(call) -> None:
        deadline.cancel()
        exc = call.exception()
        if future.done():
            return  # the deadline fired first: drop the late answer
        if exc is None:
            future.set_result(call.result())
        else:
            future.set_exception(exc)

    executor.submit(fn, *args).add_done_callback(
        lambda call: loop.call_soon_threadsafe(settle, call)
    )
    return future


class MicroBatcher:
    """Coalesces concurrent ``Q(s, t)`` submissions into batch scans.

    Must be used from a single event loop.  ``executor`` (typically a
    one-worker ``ThreadPoolExecutor``) takes the windows too costly to
    scan on the loop; pass ``None`` to scan every window inline (used
    by unit tests for determinism).  ``timeout_s`` is the request
    deadline for executor windows (``None``: no deadline).
    """

    def __init__(
        self,
        index,
        *,
        max_batch: int = 64,
        max_wait_us: int = 1000,
        recorder=NULL_RECORDER,
        executor=None,
        fault_plan=None,
        tracer=None,
        timeout_s: Optional[float] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._index = index
        self._fault_plan = fault_plan
        self.max_batch = max_batch
        self.max_wait_s = max(0, max_wait_us) / 1e6
        self.timeout_s = timeout_s
        self._recorder = recorder
        #: Optional :class:`~repro.obs.tracing.SpanCollector`; when a
        #: submission's ``meta`` carries a ``"trace"`` tuple
        #: ``(trace_id, parent span id)``, the batch scan is recorded
        #: as a ``serve.scan_batch`` span under that request's span.
        self._tracer = tracer
        self._executor = executor
        self._pending: List[_Pending] = []
        #: Loop time the open window's oldest submission arrived.
        self._opened = 0.0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._idle: Optional[asyncio.Handle] = None
        self._scans_inflight = 0
        #: Moving averages behind the inline gate (0.0 = unmeasured).
        self._pair_s = 0.0
        self._hop_s = 0.0
        self.batches_flushed = 0
        self.queries_batched = 0

    @property
    def pending_count(self) -> int:
        """Submissions waiting for the current window to flush."""
        return len(self._pending)

    def swap_index(self, index) -> None:
        """Atomically serve subsequent batches from ``index``.

        Hot reload: in-flight scans keep the old object alive until
        their batch resolves, so no submission is ever dropped.  The
        averages restart, so the new index is measured on the executor
        before any of its windows run inline.
        """
        self._index = index
        self._pair_s = self._hop_s = 0.0

    def submit(
        self,
        source: Vertex,
        target: Vertex,
        meta: Optional[dict] = None,
    ) -> "asyncio.Future":
        """Enqueue one query; the returned future yields a QueryResult.

        The future fails with the underlying :class:`ReproError` when
        the pair cannot be answered (e.g. an unindexed vertex) — other
        submissions in the same window are unaffected — and with
        :class:`asyncio.TimeoutError` when its window misses the
        deadline.

        When ``meta`` is a dict, the batcher fills it as the
        submission moves through: ``queue_wait_s`` (submit → scan
        start), ``batch_size``, ``flush_reason``, and ``scan_s`` — the
        per-request correlation data behind access logs and ``/query``
        explain responses.  ``None`` (the default) skips all metadata
        bookkeeping.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if meta is not None:
            meta["submitted_at"] = time.perf_counter()
        if not self._pending:
            self._opened = loop.time()
        self._pending.append((source, target, future, meta))
        if len(self._pending) >= self.max_batch:
            self._flush("full")
        elif self._scans_inflight:
            if self._timer is None:
                self._timer = loop.call_later(
                    self.max_wait_s, self._flush, "timer"
                )
        elif self._idle is None:
            self._idle = loop.call_soon(self._flush, "idle")
        return future

    def _flush(self, reason: str) -> None:
        """Close the pending window and scan it, inline when the
        measured scan is cheaper than an executor hop."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._idle is not None:
            self._idle.cancel()
            self._idle = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        pairs = [(source, target) for source, target, _, _ in batch]
        rec = self._recorder
        rec.incr("serve.batch.count")
        rec.incr(f"serve.batch.flush_{reason}")
        rec.observe("serve.batch.size", len(pairs))
        self.batches_flushed += 1
        self.queries_batched += len(pairs)
        started = time.perf_counter()
        for _, _, _, meta in batch:
            if meta is not None:
                meta["queue_wait_s"] = started - meta.pop("submitted_at")
                meta["batch_size"] = len(pairs)
                meta["flush_reason"] = reason
        if self._executor is None or (
            not self._scans_inflight
            and len(pairs) * self._pair_s < self._hop_s
        ):
            rec.incr("serve.batch.inline")
            self._deliver(
                batch, reason, started, self._scan(self._index, pairs)
            )
            return
        loop = asyncio.get_running_loop()
        deadline = self.timeout_s and loop.call_at(
            self._opened + self.timeout_s,
            expire,
            [future for _, _, future, _ in batch],
        )
        self._scans_inflight += 1
        call = self._executor.submit(self._scan, self._index, pairs)
        call.add_done_callback(
            lambda call: loop.call_soon_threadsafe(
                self._scanned, batch, reason, started, deadline, call
            )
        )

    def _scan(self, index, pairs) -> Tuple[List[object], bool, float]:
        """One window's answers, errors in place: ``(results, isolated,
        scan seconds)``.  Runs on the loop or, whole, on the worker
        thread — including the isolation retry, so a failed executor
        window costs one hop, not one per pair."""
        started = time.perf_counter()
        try:
            if self._fault_plan is not None:
                self._fault_plan.check("flush.fail")
            results = index.query_batch(pairs)
            isolated = False
        except Exception as exc:
            # A ReproError is one bad pair failing the whole batch
            # call; anything else is an infrastructure crash (injected
            # fault, corrupt read) and counts as an isolation.  Either
            # way each pair is retried singly, so one bad pair or scan
            # never fails the window's other requests.
            isolated = not isinstance(exc, ReproError)
            results = self._retry_singly(index, pairs)
        return results, isolated, time.perf_counter() - started

    @staticmethod
    def _retry_singly(index, pairs) -> List[object]:
        """One ``query`` per pair, errors kept in place so only the
        still-failing submissions error out."""
        results: List[object] = []
        for source, target in pairs:
            try:
                results.append(index.query(source, target))
            except Exception as exc:
                results.append(exc)
        return results

    def _scanned(self, batch, reason, started, deadline, call) -> None:
        """Back on the loop from an executor window: measure the hop,
        deliver, and flush what arrived during the scan."""
        try:
            if deadline:
                deadline.cancel()
            outcome = call.result()
            self._hop_s = _ewma(
                self._hop_s, time.perf_counter() - started - outcome[2]
            )
            self._deliver(batch, reason, started, outcome)
        finally:
            self._scans_inflight -= 1
        if self._pending and self._scans_inflight == 0:
            self._flush("afterscan")

    def _deliver(self, batch, reason, started, outcome) -> None:
        """Stamp a scanned window and resolve its futures — the one
        delivery shared by the inline and executor paths."""
        results, isolated, seconds = outcome
        rec = self._recorder
        self._pair_s = _ewma(self._pair_s, seconds / len(batch))
        if isolated:
            failed = sum(isinstance(r, BaseException) for r in results)
            rec.incr("serve.batch.isolated")
            rec.incr("serve.batch.retry_ok", len(results) - failed)
            rec.incr("serve.batch.retry_failed", failed)
        scan_s = time.perf_counter() - started
        rec.observe("serve.batch.seconds", scan_s)
        tracer = self._tracer
        for (_, _, future, meta), result in zip(batch, results):
            if meta is not None:
                meta["scan_s"] = scan_s
                if tracer is not None:
                    trace = meta.get("trace")
                    if trace is not None:
                        # One span per traced request, parented to its
                        # request span, all sharing start and duration.
                        tracer.record(
                            "serve.scan_batch",
                            trace_id=trace[0],
                            span_id=new_span_id(),
                            parent_id=trace[1],
                            start=started,
                            duration=scan_s,
                            attrs={
                                "batch_size": len(batch),
                                "flush_reason": reason,
                            },
                        )
            if future.done():
                continue  # deadline fired or waiter gave up — drop it
            if isinstance(result, BaseException):
                future.set_exception(result)
            else:
                future.set_result(result)

    async def drain(self) -> None:
        """Flush the open window and wait for every in-flight scan.

        Executor windows report back through loop callbacks, not
        tasks, so there is nothing to gather: poll until none is left.
        """
        while self._pending or self._scans_inflight:
            self._flush("drain")
            if self._scans_inflight:
                await asyncio.sleep(0.001)
