"""The asyncio SPC query server: routing, shedding, deadlines, drain.

:class:`SPCServer` owns one read-only index and answers ``Q(s, t)``
over a small JSON/HTTP surface:

* ``GET /query?source=S&target=T`` — one query.
* ``POST /query`` with ``{"source": S, "target": T}`` or
  ``{"pairs": [[S, T], ...]}`` — one query or an explicit batch; add
  ``"explain": true`` for the algorithmic counters behind the answer
  (labels scanned, LCA node, batch/queue/scan timings).
* ``GET /health`` — liveness + readiness: 503 once draining **or**
  when the rolling SLO window is degraded.
* ``GET /metrics`` — the server recorder's metrics, content-negotiated:
  JSON snapshot by default, Prometheus text exposition for
  ``Accept: text/plain`` / ``?format=prometheus``.
* ``GET /stats`` — the rolling SLO window (p50/p95/p99, error/shed/
  cache-hit rates, queue depth) plus cache and batcher state.

Client HTTP — the pipelined connection loop, the drain, ``traceparent``
sampling and ``/metrics`` negotiation — is the
:class:`~repro.serve.frontend.FrontEnd` it shares with the fleet router.
So is the live-update tier, :class:`LiveTier`: ``POST /admin/update``
and the threshold rebuild-and-swap run the same code in a live server
and in a live fleet's router.  A fleet worker on a live fleet is a
replica: it serves a :class:`~repro.live.overlay.LiveIndex` whose
overlay the router installs over ``POST /admin/install``.

Answers are ``{"source", "target", "distance", "count"}`` with
``distance: null`` for a disconnected pair — exactly the values
:meth:`SPCIndex.query` returns, just JSON-framed.

**Request correlation:** every request carries a request id — the
inbound ``X-Request-Id`` header when the client sent one, a generated
``<instance>-<counter>`` id otherwise.  The id rides through the
coalescer and cache, is echoed in the ``X-Request-Id`` response
header, and stamps every structured log record
(:class:`repro.obs.logging.RequestLog`: JSON-lines access log plus a
slow-query log past ``slow_query_ms``), so one grep connects a user
report to the exact batch scan that served it.

Three protections keep the server honest under load:

* **Admission control** — once ``queue_high_water`` admitted requests
  are waiting, new ones are shed with 503 + ``Retry-After`` instead of
  growing the queue without bound.
* **Deadlines** — every admitted request races
  ``request_timeout_ms``; losers get 504 and their slot back.
* **Graceful drain** — SIGTERM (or :meth:`SPCServer.shutdown`) stops
  accepting, answers every request already read within ``drain_grace_s``,
  flushes the coalescer, and only then lets the process exit.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import LiveUpdateError, ReproError
from repro.faults import FaultyIndex
from repro.obs import (
    NULL_RECORDER,
    Recorder,
    RequestLog,
    SloPolicy,
    SloWindow,
    TraceContext,
    merge_trace_fragments,
    new_span_id,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ResultCache, TopPairs
from repro.serve.coalescer import MicroBatcher, offload
from repro.serve.config import ServeConfig
from repro.serve.frontend import FrontEnd, Response
from repro.serve.http import HTTPProtocolError, Request, parse_query_head
from repro.types import INF, QueryResult, Vertex

_RETRY_AFTER = (("Retry-After", "1"),)

_ALLOW_POST = (("Allow", "POST"),)

#: Deferred log records to accumulate before handing a drain to the
#: executor thread — amortizes the submit overhead over a batch of
#: records.  Connection close and shutdown flush regardless.
_LOG_DRAIN_MIN_RECORDS = 24


class _Waiter:
    """An admitted query waiting on its batcher future.

    To the connection loop it is a future-like answer: the loop hooks
    its flush onto ``future``, so a resolved window's answers are
    finished and written with their batch-mates in one socket write.
    Awaiting the waiter (the POST batch path) awaits the bare future.
    Its deadline is armed where the scan was handed off, so no
    per-request timer or task exists.
    """

    __slots__ = (
        "server", "future", "source", "target", "rid", "started",
        "meta", "explain", "fallback", "trace",
    )

    def __init__(
        self, server, future, source, target, rid, started, meta,
        explain, fallback=False, trace=None,
    ):
        self.server = server
        self.future = future
        self.source = source
        self.target = target
        self.rid = rid
        self.started = started
        self.meta = meta
        self.explain = explain
        self.fallback = fallback
        self.trace = trace

    def __await__(self):
        try:
            yield from self.future.__await__()
        except Exception:
            pass  # _finish reads the failure off the future
        return self.server._finish(self)

    def done(self) -> bool:
        return self.future.done()

    def add_done_callback(self, callback) -> None:
        self.future.add_done_callback(callback)

    def result(self) -> Response:
        """The response, once :meth:`done` (call it once)."""
        return self.server._finish(self)


def encode_result(
    source: Vertex, target: Vertex, result: QueryResult
) -> dict:
    """The wire form of one answer (``distance: null`` = disconnected)."""
    return {
        "source": source,
        "target": target,
        "distance": None if result.distance == INF else result.distance,
        "count": result.count,
    }


def encode_result_bytes(
    source: Vertex, target: Vertex, result: QueryResult
) -> bytes:
    """:func:`encode_result` pre-serialized — the hot path skips
    ``json.dumps`` (the bytes are byte-identical to dumping the dict
    with ``separators=(",", ":")``)."""
    distance = result.distance
    return b'{"source":%d,"target":%d,"distance":%s,"count":%d}' % (
        source,
        target,
        b"null" if distance == INF else repr(distance).encode(),
        result.count,
    )


class LiveTier:
    """The live-update tier of a process that owns an
    :class:`~repro.live.coordinator.UpdateCoordinator`.

    ``POST /admin/update`` and the threshold rebuild-and-swap, shared by
    :class:`SPCServer` and :class:`~repro.serve.fleet.FleetRouter`: a
    batch is validated, applied off the event loop (one WAL append and
    one ``repair_labels``), the cache drops every pair touching a vertex
    whose labels moved, and a rebuild starts once the overlay passes its
    threshold.  A subclass may hook three steps: :meth:`_commit_window`
    brackets every apply and base swap, :meth:`_publish_batch` ships a
    batch's diff on, and :meth:`_adopt_rebuilt` swaps a rebuilt base in.
    """

    updates = None
    request_log = None
    _index_meta = None
    _update_executor: Optional[ThreadPoolExecutor] = None
    #: Lazy executor for full index rebuilds, so a long build never
    #: queues behind (or blocks) streaming update batches.
    _rebuild_executor: Optional[ThreadPoolExecutor] = None
    _rebuild_task: Optional[asyncio.Task] = None
    #: perf_counter of the most recent update batch becoming visible
    #: (drives the ``live.staleness_s`` gauge).
    _last_update_visible: Optional[float] = None

    def _init_live(self, updates) -> None:
        """Run ``updates`` (a coordinator, or ``None``) in this process;
        repairs are serialised on one executor thread."""
        self.updates = updates
        if updates is not None:
            if updates.recorder is NULL_RECORDER:
                updates.recorder = self.recorder
            self._update_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="spc-update"
            )

    async def _stop_live(self) -> None:
        """Cancel a running rebuild, stop the live executors and close
        the write-ahead log."""
        if self._rebuild_task is not None:
            self._rebuild_task.cancel()
            await asyncio.gather(self._rebuild_task, return_exceptions=True)
        for executor in (self._update_executor, self._rebuild_executor):
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)
        if self.updates is not None and self.updates.wal is not None:
            self.updates.wal.close()

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _commit_window(self):
        """The context every apply and base swap runs in."""
        return contextlib.nullcontext()

    async def _publish_batch(self, report) -> dict:
        """Ship an applied batch on; extra fields for the update's 200."""
        return {}

    async def _adopt_rebuilt(self, new_index, base_seqno: int) -> dict:
        """Swap a rebuilt base in; :meth:`UpdateCoordinator.adopt_base`'s
        report."""
        return await asyncio.get_running_loop().run_in_executor(
            self._update_executor,
            self.updates.adopt_base,
            new_index,
            base_seqno,
        )

    def _admin_answer(
        self, request: Request, rid: str, started: float, status: int,
        payload, extra=(), error: Optional[str] = None,
    ) -> Response:
        """The response of an admin request."""
        return status, payload, tuple(extra)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    async def _handle_update(self, request: Request, rid: str) -> Response:
        """``POST /admin/update``: apply one JSON delta batch.

        Body: ``{"updates": [[a, b, new_weight], ...]}``.  The 200 is
        sent only after the overlay reflecting the batch is published
        (in a fleet, installed on every live worker), so a caller that
        got the response is guaranteed every subsequent query answers
        on the new weights.  Bad batches (not JSON, unknown edge,
        non-positive weight, malformed item) are rejected 400 before
        any weight is written.
        """
        started = time.perf_counter()
        if request.method != "POST":
            status, error, extra = 405, "update requires POST", _ALLOW_POST
        elif self.updates is None:
            status, extra = 409, ()
            error = (
                "live updates are not enabled (start the server with "
                "--live-updates and --graph)"
            )
        else:
            status, error, extra = 200, None, ()
            try:
                body = request.json()
                raw = body.get("updates") if isinstance(body, dict) else None
                if not isinstance(raw, list):
                    raise LiveUpdateError(
                        'update body must be {"updates": [[a, b, weight], '
                        "...]}"
                    )
                validate_started = time.perf_counter()
                normalized = self.updates.validate_batch(raw)
                payload = await self._apply_update(
                    normalized,
                    started,
                    (validate_started, time.perf_counter() - validate_started),
                )
            except Exception as exc:
                status, error = 400, str(exc) or type(exc).__name__
        if error is not None:
            payload = {"applied": False, "error": error}
        return self._admin_answer(
            request, rid, started, status, payload, extra, error
        )

    async def _apply_update(
        self,
        normalized: list,
        ingest_started: Optional[float] = None,
        validate_span: Optional[Tuple[float, float]] = None,
    ) -> dict:
        """Apply a validated batch off-loop; invalidate poisoned keys.

        ``ingest_started`` is when the delta batch hit the socket —
        the whole ingest → validation → overlay-apply → visible-epoch
        path is measured from it into the ``live.freshness_ms``
        histogram and, when tracing is on, recorded as a ``live.update``
        span tree (``validate_span`` carries the validation phase's
        ``(start, duration)`` when it ran in this request).
        """
        loop = asyncio.get_running_loop()
        async with self._commit_window():
            apply_started = time.perf_counter()
            report = await loop.run_in_executor(
                self._update_executor, self.updates.apply_batch, normalized
            )
            # Targeted invalidation: an answer can only have moved if
            # one of its endpoints had a label entry patched (or
            # unpatched) by this batch.
            dropped = self.cache.invalidate(report.changed_vertices)
            published = await self._publish_batch(report)
        visible = time.perf_counter()
        self._last_update_visible = visible
        if ingest_started is not None:
            self.recorder.observe(
                "live.freshness_ms", (visible - ingest_started) * 1000.0
            )
            if self.tracer is not None:
                self._trace_update(
                    report, ingest_started, validate_span, apply_started,
                    visible,
                )
        rec = self.recorder
        rec.incr("serve.update.batches")
        rec.incr("serve.update.edges", report.updated_edges)
        rec.observe("serve.update.apply_seconds", report.seconds)
        if self.request_log is not None:
            self.request_log.log_server(
                "update",
                epoch=report.epoch,
                seqno=report.seqno,
                edges=report.updated_edges,
                repaired_nodes=report.repaired_nodes,
                repaired_entries=report.repaired_entries,
                overlay_entries=report.overlay_entries,
                cache_dropped=dropped,
                seconds=round(report.seconds, 6),
            )
        rebuild_due = self.updates.should_rebuild()
        if rebuild_due and self._rebuild_task is None and not self._draining:
            # Single-flight: one background rebuild per burst, no
            # matter how many batches land while it runs.
            self._rebuild_task = loop.create_task(self._run_rebuild())
        return {
            "applied": True,
            "epoch": report.epoch,
            "seqno": report.seqno,
            "updated_edges": report.updated_edges,
            "submitted_edges": report.submitted_edges,
            "repaired_nodes": report.repaired_nodes,
            "repaired_entries": report.repaired_entries,
            "overlay_entries": report.overlay_entries,
            "cache_dropped": dropped,
            "rebuild_due": rebuild_due,
            **published,
        }

    def _trace_update(
        self, report, ingest_started, validate_span, apply_started, visible
    ) -> None:
        """The ``live.update`` span tree of one batch."""
        tracer = self.tracer
        ctx = TraceContext.generate()
        tracer.record(
            "live.update",
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            start=ingest_started,
            duration=visible - ingest_started,
            attrs={
                "epoch": report.epoch,
                "seqno": report.seqno,
                "edges": report.updated_edges,
            },
        )
        if validate_span is not None:
            tracer.record(
                "live.ingest",
                trace_id=ctx.trace_id,
                span_id=new_span_id(),
                parent_id=ctx.span_id,
                start=ingest_started,
                duration=validate_span[0] - ingest_started,
            )
            tracer.record(
                "live.validate",
                trace_id=ctx.trace_id,
                span_id=new_span_id(),
                parent_id=ctx.span_id,
                start=validate_span[0],
                duration=validate_span[1],
            )
        tracer.record(
            "live.overlay_apply",
            trace_id=ctx.trace_id,
            span_id=new_span_id(),
            parent_id=ctx.span_id,
            start=apply_started,
            duration=visible - apply_started,
            attrs={
                "repaired_nodes": report.repaired_nodes,
                "repaired_entries": report.repaired_entries,
            },
        )

    async def _run_rebuild(self) -> None:
        """Background rebuild-and-swap after the overlay threshold.

        The full CTL construction runs on its own executor thread so
        streaming batches keep applying; the swap itself (adopting the
        new base and replaying post-snapshot batches) is the only
        pause, reported as ``serve.rebuild.swap_seconds``.
        """
        started = time.perf_counter()
        try:
            if self._rebuild_executor is None:
                self._rebuild_executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="spc-rebuild"
                )
            new_index, base_seqno = await asyncio.get_running_loop(
            ).run_in_executor(self._rebuild_executor, self.updates.rebuild)
            swap_started = time.perf_counter()
            info = await self._adopt_rebuilt(new_index, base_seqno)
            pause = time.perf_counter() - swap_started
            self._index_meta = None
            rec = self.recorder
            rec.incr("serve.rebuild.count")
            rec.observe(
                "serve.rebuild.seconds", time.perf_counter() - started
            )
            rec.observe("serve.rebuild.swap_seconds", pause)
            if self.request_log is not None:
                self.request_log.log_server(
                    "rebuild",
                    epoch=info["epoch"],
                    base_seqno=base_seqno,
                    replayed_edges=info["replayed_edges"],
                    overlay_entries=info["overlay_entries"],
                    seconds=round(time.perf_counter() - started, 6),
                    swap_ms=round(pause * 1000, 3),
                )
        except Exception as exc:
            self.recorder.incr("serve.rebuild.failed")
            if self.request_log is not None:
                self.request_log.log_server(
                    "rebuild_failed", error=str(exc) or type(exc).__name__
                )
        finally:
            self._rebuild_task = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _live_stats(self) -> dict:
        """The ``/stats`` ``live`` block."""
        live = self.updates.stats()
        if self._last_update_visible is not None:
            live["staleness_s"] = (
                time.perf_counter() - self._last_update_visible
            )
        freshness = self.recorder.histograms.get("live.freshness_ms")
        if freshness is not None:
            live["freshness_ms"] = freshness.snapshot()
        return live

    def _live_gauges(self) -> None:
        """Refresh the ``live.*`` gauges ``/metrics`` reports."""
        rec = self.recorder
        state = self.updates.live_index.state
        rec.gauge("live.overlay.entries", state.entries)
        rec.gauge("live.overlay.poisoned_vertices", state.poisoned_vertices)
        rec.gauge("live.epoch", state.epoch)
        rec.gauge("live.seqno", state.seqno)
        if self._last_update_visible is not None:
            rec.gauge(
                "live.staleness_s",
                time.perf_counter() - self._last_update_visible,
            )


class SPCServer(LiveTier, FrontEnd):
    """Serves one built SPC index over HTTP with micro-batching.

    The server records into its own :class:`repro.obs.Recorder` (not
    the process-global one), so the indexes' zero-overhead-when-off
    query instrumentation stays off while ``/metrics`` still exposes
    full serving metrics.  Request-level observability (the SLO window
    and, when configured, the structured request log) lives next to
    the recorder and costs one clock read plus one histogram observe
    per request.
    """

    def __init__(
        self,
        index,
        config: Optional[ServeConfig] = None,
        *,
        recorder: Optional[Recorder] = None,
        request_log: Optional[RequestLog] = None,
        fallback=None,
        fault_plan=None,
        index_path: Optional[str] = None,
        updates=None,
    ) -> None:
        super().__init__(
            config or ServeConfig(),
            recorder if recorder is not None else Recorder(),
            "server",
        )
        self.fault_plan = fault_plan
        if fault_plan is not None and fault_plan.targets("conn.reset"):
            self._reset_faults = fault_plan
        if fault_plan is not None and fault_plan.recorder is NULL_RECORDER:
            fault_plan.recorder = self.recorder
        #: Live-update coordinator (``None`` = no live tier of its
        #: own).  When set, the server serves its :class:`LiveIndex`
        #: view and accepts ``POST /admin/update`` delta batches.
        from repro.live.overlay import LiveIndex

        self._init_live(updates)
        if updates is not None:
            index = updates.live_index
        #: The served :class:`LiveIndex`: the coordinator's, or — when
        #: a fleet worker was handed one without a coordinator — a
        #: replica whose overlay the router installs
        #: (``POST /admin/install``).  ``None`` for a static index.
        self.live: Optional["LiveIndex"] = (
            index if isinstance(index, LiveIndex) else None
        )
        if fault_plan is not None and fault_plan.targets(
            "scan.fail", "scan.slow"
        ):
            index = FaultyIndex(index, fault_plan)
        self.index = index
        #: Optional degraded-mode index (typically
        #: :class:`repro.baselines.online.OnlineSPC`): correct but slow
        #: answers while the circuit breaker holds the scan path open.
        self.fallback = fallback
        #: Where the served index was loaded from; ``SIGHUP`` and
        #: ``POST /admin/reload`` re-load and hot-swap from here.
        self.index_path = str(index_path) if index_path is not None else None
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        self.cache = ResultCache(
            self.config.cache_size, recorder=self.recorder
        )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="spc-scan"
        )
        self._fallback_executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="spc-fallback"
            )
            if fallback is not None
            else None
        )
        self.batcher: Optional[MicroBatcher] = None
        if self.config.coalesce:
            self.batcher = MicroBatcher(
                self.index,
                max_batch=self.config.max_batch,
                max_wait_us=self.config.max_wait_us,
                recorder=self.recorder,
                executor=self._executor,
                fault_plan=fault_plan,
                tracer=self.tracer,
                timeout_s=self.config.request_timeout_ms / 1000.0,
            )
        #: Space-Saving sketch over symmetric query pairs with cache
        #: attribution — the ``top_pairs`` workload analytics in /stats.
        self.top_pairs: Optional[TopPairs] = (
            TopPairs(self.config.top_pairs_capacity)
            if self.config.top_pairs_capacity > 0
            else None
        )
        self.request_log = request_log
        self._log_pending: list = []
        self._log_drain = self._drain_request_log
        self._log_handle = None
        self.slo: Optional[SloWindow] = (
            SloWindow(self.config.slo_window_s)
            if self.config.slo_window_s > 0
            else None
        )
        self.slo_policy = SloPolicy(
            p99_ms=self.config.slo_p99_ms,
            max_error_rate=self.config.slo_error_rate,
        )
        self._index_meta: Optional[dict] = None
        #: Index staged by ``/admin/reload/prepare`` awaiting commit —
        #: ``(index, path)``; the fleet router drives the two phases.
        self._staged_reload: Optional[tuple] = None
        #: Guards /admin/rebuild (one build-and-save at a time).
        self._rebuilding = False
        self._prev_switch_interval: Optional[float] = None
        #: Active sampling-profiler capture, if any — one at a time.
        self._profiler = None
        self._profile_seq = 0
        #: Admitted queries not yet answered (the shedding signal).
        self._admitted = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SPCServer":
        """Bind and start accepting; resolves the actual port for port 0."""
        if self.request_log is None and self.config.access_log:
            if self.config.access_log == "-":
                stream = sys.stderr
            else:
                stream = self._log_handle = open(
                    self.config.access_log, "a", encoding="utf-8"
                )
            self.request_log = RequestLog(
                stream,
                slow_ms=self.config.slow_query_ms,
                sample_every=self.config.log_sample_every,
                seed=self.config.log_seed,
            )
        if self.config.switch_interval_s > 0:
            self._prev_switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(self.config.switch_interval_s)
        await self._listen()
        if self.request_log is not None:
            self.request_log.log_server(
                "start",
                host=self.host,
                port=self.port,
                index=type(self.index).__name__,
                request_id_prefix=self._ids.prefix,
            )
        return self

    def install_signal_handlers(
        self, signals: Sequence[int] = (signal.SIGTERM, signal.SIGINT)
    ) -> None:
        """Trigger a graceful drain when the process is asked to stop.

        Also installs a ``SIGHUP`` handler (where the platform has one)
        that hot-reloads the index from :attr:`index_path` — the
        operational idiom for swapping in a freshly built index with
        zero downtime.
        """
        loop = asyncio.get_running_loop()
        for signum in signals:
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: loop.create_task(self.shutdown()),
                )
            except NotImplementedError:  # non-unix event loops
                return
        if hasattr(signal, "SIGHUP") and self.index_path is not None:
            try:
                loop.add_signal_handler(
                    signal.SIGHUP,
                    lambda: loop.create_task(self._reload_quietly()),
                )
            except NotImplementedError:
                return
        # SIGUSR2: capture a 10 s sampling profile and write collapsed
        # flamegraph stacks next to the process — the zero-downtime way
        # to ask "what is this server doing right now?".
        if hasattr(signal, "SIGUSR2"):
            try:
                loop.add_signal_handler(
                    signal.SIGUSR2,
                    lambda: loop.create_task(self._profile_to_file()),
                )
            except NotImplementedError:
                return

    async def _reload_quietly(self) -> None:
        """SIGHUP reload: failures are logged, never fatal."""
        try:
            await self.reload_index()
        except Exception as exc:
            if self.request_log is not None:
                self.request_log.log_server("reload_failed", error=str(exc))

    async def reload_index(self, path: Optional[str] = None) -> dict:
        """Hot-swap a freshly validated index loaded from ``path``.

        The load (and its full checksum validation) runs on a side
        thread; the swap itself happens on the event loop in one step,
        so in-flight batches finish against the old index object while
        new submissions see the new one — zero requests dropped.  The
        result cache is cleared (answers may differ) and the circuit
        breaker resets.  Raises on any load/validation failure, leaving
        the previous index serving untouched.
        """
        started = time.perf_counter()
        new_index, path = await self._load_for_reload(path)
        return self._swap_index(new_index, path, started)

    async def _load_for_reload(self, path: Optional[str] = None):
        """Load and validate a reload candidate without swapping it in.

        Runs the load on a side thread with full checksum verification
        (``verify=True`` covers the mmap'd v4 sections too — a staged
        index must never be trusted on structure alone).  Returns
        ``(index, path)`` with fault wrapping already applied; raises
        on any failure, counting it against ``serve.reload.failed``.
        """
        from repro.core.serialize import load_index

        if self.live is not None:
            raise ReproError(
                "live-update server: a direct reload would desynchronize "
                "the delta overlay from the served labels; the overlay "
                "threshold's rebuild-and-swap replaces the base instead"
            )
        path = path or self.index_path
        if path is None:
            raise ReproError(
                "no index path to reload from (server was started with "
                "an in-memory index)"
            )

        def _load():
            if self.fault_plan is not None:
                self.fault_plan.check("index.load")
            index = load_index(path, verify=True)
            index.stats()  # structural sanity before it may serve
            return index

        try:
            new_index = await asyncio.get_running_loop().run_in_executor(
                None, _load
            )
        except Exception:
            self.recorder.incr("serve.reload.failed")
            raise
        if self.fault_plan is not None and self.fault_plan.targets(
            "scan.fail", "scan.slow"
        ):
            new_index = FaultyIndex(new_index, self.fault_plan)
        return new_index, str(path)

    def _swap_index(
        self, new_index, path: str, started: Optional[float] = None
    ) -> dict:
        """Point the serving path at ``new_index`` — one event-loop step.

        In-flight batches finish against the old index object; new
        submissions see the new one.  Never fails: everything that can
        go wrong happened in :meth:`_load_for_reload`.
        """
        self.index = new_index
        if self.batcher is not None:
            self.batcher.swap_index(new_index)
        self.cache.clear()
        self._index_meta = None
        self.breaker.record_success()
        self.index_path = path
        self.recorder.incr("serve.reload.count")
        info = {
            "path": path,
            "index": type(new_index).__name__
            if not isinstance(new_index, FaultyIndex)
            else type(new_index.inner).__name__,
        }
        if started is not None:
            info["seconds"] = time.perf_counter() - started
        if self.request_log is not None:
            self.request_log.log_server("reload", **info)
        return info

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, flush, stop."""
        if self._draining:
            return
        self._draining = True
        self.recorder.incr("serve.drain.count")
        await self._drain_connections()
        if self.batcher is not None:
            await self.batcher.drain()
        await self._stop_live()
        self._executor.shutdown(wait=True)
        if self._fallback_executor is not None:
            self._fallback_executor.shutdown(wait=True)
        self._drain_request_log(force=True, inline=True)
        if self.request_log is not None:
            self.request_log.log_server("drain")
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None
        if self._prev_switch_interval is not None:
            sys.setswitchinterval(self._prev_switch_interval)
            self._prev_switch_interval = None
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # per-request observability
    # ------------------------------------------------------------------
    def _finish_request(
        self,
        status: int,
        payload,
        extra,
        *,
        rid: str,
        started: float,
        method: str = "GET",
        path: str = "/query",
        source: Optional[int] = None,
        target: Optional[int] = None,
        cache_hit: Optional[bool] = None,
        meta: Optional[dict] = None,
        labels_scanned: Optional[int] = None,
        error: Optional[str] = None,
        track_slo: bool = True,
        trace=None,
    ) -> Response:
        """Stamp one finished request: id header, SLO window, log record.

        Every response funnels through here exactly once, so the
        correlation contract — the id a client sent comes back in the
        header *and* appears in the matching log records — holds on
        every path (cache hit, batch scan, shed, timeout, error).
        ``trace`` is the request's span tuple ``(trace_id, span_id,
        parent_id)`` when it is being traced: the request span is
        recorded here (covering admission to response encoding) and
        the trace id is stamped into the log record.
        """
        latency_s = time.perf_counter() - started
        if trace is not None and self.tracer is not None:
            self.tracer.record(
                "serve.request",
                trace_id=trace[0],
                span_id=trace[1],
                parent_id=trace[2],
                start=started,
                duration=latency_s,
                attrs={"status": status, "path": path},
            )
        if track_slo and self.slo is not None:
            # Positional: error, shed, cache_hit, queue_depth.
            self.slo.record(
                latency_s,
                status >= 500 and status != 503,
                status == 503,
                cache_hit,
                self._admitted,
            )
        log = self.request_log
        if log is not None:
            # Sampling is decided here, in finish order (the same
            # stream a per-record log_request call would consume), so
            # a sampled-out request costs one RNG draw and nothing
            # more — no pending tuple, no drain-time iteration.
            if (
                error is None
                and status == 200
                and not (latency_s * 1000.0 >= log.slow_ms > 0)
                and not log.sampler.keep()
            ):
                log.sampled_out += 1
            else:
                # Defer the record: formatting and writing happen in
                # _drain_request_log after the response bytes are on
                # the wire, so logging never sits between a resolved
                # batch and the client seeing its answers (which would
                # shrink the next coalescing window).
                self._log_pending.append(
                    (rid, method, path, status, latency_s, source,
                     target, cache_hit, meta, labels_scanned, error,
                     trace[0] if trace is not None else None)
                )
        return status, payload, (("X-Request-Id", rid),) + tuple(extra)

    def _admin_answer(
        self, request: Request, rid: str, started: float, status: int,
        payload, extra=(), error: Optional[str] = None,
    ) -> Response:
        return self._finish_request(
            status, payload, extra,
            rid=rid, started=started, method=request.method,
            path=request.path, error=error, track_slo=False,
        )

    def _drain_request_log(
        self, force: bool = False, inline: bool = False
    ) -> None:
        """Hand deferred request records to the scan worker to write.

        Formatting and writing happen on the executor thread, in the
        shadow of the scans it is already running, so the event loop
        never pauses to serialize log lines between sending a burst of
        responses and reading the next requests (a pause there staggers
        arrivals and shrinks coalescing windows).  The executor has one
        worker, so drains run in submission order and record order
        matches finish order — sampling (already decided per record)
        and the log file stay deterministic.

        Burst-end calls are threshold-gated so a drain amortizes the
        executor handoff over many records; ``force`` flushes whatever
        is pending (connection close, shutdown), and ``inline`` writes
        on the calling thread — shutdown uses it after the executor has
        already been joined.
        """
        log, pending = self.request_log, self._log_pending
        if log is None or not pending:
            return
        if not force and len(pending) < _LOG_DRAIN_MIN_RECORDS:
            return
        self._log_pending = []
        if inline:
            log.log_batch(pending, presampled=True)
        else:
            self._executor.submit(log.log_batch, pending, presampled=True)

    def _explain_counters(
        self,
        source: int,
        target: int,
        rid: str,
        *,
        cache_hit: bool,
        meta: Optional[dict],
    ) -> dict:
        """The algorithmic story behind one answer.

        ``labels_scanned`` re-runs the O(h) label scan through
        :meth:`SPCIndex.query_with_stats` — explain is a diagnostic
        path, and the second scan guarantees the reported counter is
        *exactly* what an offline ``query_with_stats`` call measures
        (the parity the tests pin).  Tree-based indexes also report
        the LCA node's depth and width (its cut size — the paper's
        per-node label-count driver).

        The request id ``rid`` is echoed as ``request_id``.
        """
        counters: dict = {"cache_hit": cache_hit}
        try:
            stats = self.index.query_with_stats(source, target)
            counters["labels_scanned"] = stats.visited_labels
        except Exception:  # diagnostic only — a broken index (the
            pass          # reason we fell back) must not fail explain
        tree = getattr(self.index, "tree", None)
        if tree is not None:
            try:
                node = tree.lca_node(source, target)
                counters["lca_depth"] = node.depth
                counters["lca_width"] = node.size
            except (KeyError, AttributeError):
                pass
        live = self.live
        if live is not None:
            state = live.state
            counters["epoch"] = state.epoch
            counters["seqno"] = state.seqno
            if self._last_update_visible is not None:
                counters["update_staleness_s"] = round(
                    time.perf_counter() - self._last_update_visible, 6
                )
            counters["poisoned"] = live.pair_poisoned(source, target)
        if meta:
            if meta.get("fallback"):
                counters["fallback"] = True
            if "batch_size" in meta:
                counters["batch_size"] = meta["batch_size"]
                counters["flush_reason"] = meta.get("flush_reason")
            if "queue_wait_s" in meta:
                counters["queue_wait_us"] = round(
                    meta["queue_wait_s"] * 1e6, 1
                )
            if "scan_s" in meta:
                counters["scan_us"] = round(meta["scan_s"] * 1e6, 1)
        counters["request_id"] = rid
        return counters

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _fast_query(self, head: bytes):
        """The hot ``GET /query?source=S&target=T`` shape, parsed by
        :func:`~repro.serve.http.parse_query_head` — no header dict, no
        :class:`Request`.  ``None`` sends the head to the full parser;
        behaviour is identical either way."""
        query = parse_query_head(head)
        if query is None:
            return None
        source, target, keep_alive, rid, traceparent = query
        self._maybe_die()
        return (
            self._query_entry(
                source,
                target,
                rid or self._ids.next_id(),
                trace=self._trace_for(traceparent),
            ),
            keep_alive and not self._draining,
        )

    def _maybe_die(self) -> None:
        """Chaos site ``worker.kill``: SIGKILL this process mid-request.

        Only query traffic draws the site — admin fan-outs and health
        probes stay deterministic — and SIGKILL (not an exception)
        models the real failure the fleet supervisor must detect: no
        drain, no goodbye, a half-written response on the wire.
        """
        plan = self.fault_plan
        if plan is not None and plan.should_fire("worker.kill"):
            os.kill(os.getpid(), signal.SIGKILL)

    def _dispatch(self, request: Request):
        """Route one request: a ready Response or an awaitable of one.

        Runs synchronously inside the read loop, so a query's
        submission reaches the coalescer *before* the next pipelined
        request is parsed — only the waiting (deadline, cache fill,
        encoding) is deferred to the answer the connection resolves.
        """
        rid = request.headers.get("x-request-id") or self._ids.next_id()
        if request.path == "/query":
            self._maybe_die()
            return self._dispatch_query(
                request, rid, self._trace_for(request.headers.get("traceparent"))
            )
        if request.path == "/admin/reload":
            return self._handle_reload(request, rid)
        if request.path in (
            "/admin/reload/prepare",
            "/admin/reload/commit",
            "/admin/reload/abort",
        ):
            return self._handle_reload_phase(
                request, rid, request.path.rsplit("/", 1)[1]
            )
        if request.path == "/admin/update":
            return self._handle_update(request, rid)
        if request.path == "/admin/install":
            return self._handle_install(request, rid)
        if request.path == "/admin/rebuild":
            return self._handle_rebuild(request, rid)
        if request.path == "/admin/profile":
            return self._handle_profile(request, rid)
        started = time.perf_counter()
        if request.path == "/health":
            status, payload, extra = self._handle_health()
        elif request.path == "/metrics":
            status, payload, extra = self._handle_metrics(request)
        elif request.path == "/stats":
            status, payload, extra = self._handle_stats()
        elif request.path == "/admin/trace":
            status, payload, extra = self._handle_trace(request)
        else:
            self.recorder.incr("serve.errors.route")
            status, payload, extra = (
                404, {"error": f"unknown path {request.path!r}"}, ()
            )
        return self._finish_request(
            status,
            payload,
            extra,
            rid=rid,
            started=started,
            method=request.method,
            path=request.path,
            track_slo=False,  # only query traffic drives the SLO
        )

    def _index_metadata(self) -> dict:
        """Static index identity for ``/health``+``/stats`` (cached).

        Includes the load provenance :func:`repro.core.serialize` left
        on the index (format version, v4 section byte sizes, embedded
        ``build_info``) so perf records taken against this server can
        be correlated with the exact index build that answered them.
        """
        if self._index_meta is None:
            meta = {"type": type(self.index).__name__}
            try:
                stats = self.index.stats()
                meta.update(
                    vertices=stats.num_vertices,
                    edges=stats.num_edges,
                    label_entries=stats.total_label_entries,
                )
            except (AttributeError, ReproError):
                pass  # duck-typed test doubles without stats()
            provenance = getattr(self.index, "provenance", None)
            if provenance:
                meta["provenance"] = provenance
            self._index_meta = meta
        return self._index_meta

    def _slo_state(self) -> Tuple[str, List[str], Optional[dict]]:
        """``(status, breaches, window snapshot)`` of the SLO tracker."""
        if self.slo is None:
            return "ok", [], None
        window = self.slo.snapshot()
        status, breaches = self.slo_policy.evaluate(window)
        return status, breaches, window

    async def _handle_reload(self, request: Request, rid: str) -> Response:
        """``POST /admin/reload``: hot-swap the index from disk.

        With a JSON body ``{"path": "..."}`` the swap loads that file
        (and it becomes the new :attr:`index_path`); without one, the
        path the server was started from is re-read.  A failed load —
        missing file, corrupt checksums, wrong format — returns 409 and
        leaves the previous index serving.
        """
        started = time.perf_counter()
        if request.method != "POST":
            return self._finish_request(
                405,
                {"error": "reload requires POST"},
                (("Allow", "POST"),),
                rid=rid, started=started, method=request.method,
                path="/admin/reload", track_slo=False,
            )
        error = None
        try:
            body = request.json()
            path = (
                body.get("path") if isinstance(body, dict) else None
            )
            info = await self.reload_index(path)
            status, payload = 200, {"reloaded": True, **info}
        except Exception as exc:
            error = str(exc) or type(exc).__name__
            status, payload = 409, {"reloaded": False, "error": error}
        return self._finish_request(
            status, payload, (),
            rid=rid, started=started, method="POST",
            path="/admin/reload", error=error, track_slo=False,
        )

    async def _handle_reload_phase(
        self, request: Request, rid: str, phase: str
    ) -> Response:
        """Two-phase reload, driven worker-by-worker by the fleet router.

        * ``POST /admin/reload/prepare`` — load + fully verify the
          candidate (body ``{"path": ...}`` or the current path) and
          stage it without serving it.  409 on any failure.
        * ``POST /admin/reload/commit`` — atomically swap the staged
          index in.  409 if nothing is staged.
        * ``POST /admin/reload/abort`` — drop the staged index (idempotent).

        A router prepares every worker before committing any, so a
        corrupt file is rejected fleet-wide while the old index keeps
        serving on all workers — no half-upgraded fleet.
        """
        started = time.perf_counter()
        path = f"/admin/reload/{phase}"
        if request.method != "POST":
            return self._finish_request(
                405, {"error": f"reload {phase} requires POST"},
                (("Allow", "POST"),),
                rid=rid, started=started, method=request.method,
                path=path, track_slo=False,
            )
        error = None
        try:
            if phase == "prepare":
                body = request.json()
                target = (
                    body.get("path") if isinstance(body, dict) else None
                )
                self._staged_reload = await self._load_for_reload(target)
                status, payload = 200, {
                    "prepared": True, "path": self._staged_reload[1],
                }
            elif phase == "commit":
                if self._staged_reload is None:
                    raise ReproError("no staged reload to commit")
                new_index, target = self._staged_reload
                self._staged_reload = None
                info = self._swap_index(new_index, target, started)
                status, payload = 200, {"reloaded": True, **info}
            else:  # abort
                dropped = self._staged_reload is not None
                self._staged_reload = None
                status, payload = 200, {"aborted": dropped}
        except Exception as exc:
            error = str(exc) or type(exc).__name__
            status, payload = 409, {phase: False, "error": error}
        return self._finish_request(
            status, payload, (),
            rid=rid, started=started, method="POST",
            path=path, error=error, track_slo=False,
        )

    async def _handle_install(self, request: Request, rid: str) -> Response:
        """``POST /admin/install``: take the fleet router's overlay.

        Only a replica serves it — a fleet worker holding a
        :class:`LiveIndex` and no coordinator of its own.  The body is
        either one batch's diff, ``{"epoch", "seqno", "changed":
        rows}``, which must follow the served state exactly (same
        epoch, ``seqno + 1``), or the router's whole state, ``{"base",
        "epoch", "seqno", "patches": rows}``, which replaces it
        (opening ``base``, checksummed, when it is not the served
        file).  Rows are :func:`~repro.live.overlay.patch_rows`.  A
        diff that does not follow, or rows that do not fit the served
        base, are refused 409 and change nothing.
        """
        from repro.live.overlay import OverlayState, read_patch_rows

        started = time.perf_counter()

        def refuse(status: int, error: str, extra=()) -> Response:
            return self._admin_answer(
                request, rid, started, status,
                {"installed": False, "error": error}, extra, error,
            )

        if request.method != "POST":
            return refuse(405, "install requires POST", _ALLOW_POST)
        live = self.live
        if live is None or self.updates is not None:
            return refuse(
                409,
                "install is a live fleet worker's endpoint; this server "
                "has no overlay to install into, or repairs its own",
            )
        try:
            body = request.json()
            epoch, seqno = int(body["epoch"]), int(body["seqno"])
            whole = "base" in body
            rows = read_patch_rows(body["patches" if whole else "changed"])
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            return refuse(400, f"malformed install body: {exc}")
        try:
            base, state = live.view
            if whole:
                path = body["base"]
                if path != self.index_path:
                    from repro.core.serialize import load_index

                    base = await asyncio.get_running_loop().run_in_executor(
                        None, functools.partial(load_index, path, verify=True)
                    )
                live.swap(base, OverlayState(epoch, seqno, rows))
                self.index_path = path
                self._index_meta = None
                self.cache.clear()
            elif (epoch, seqno) == (state.epoch, state.seqno + 1):
                live.apply(rows)
                self.cache.invalidate(rows)
            else:
                raise LiveUpdateError(
                    f"diff at (epoch {epoch}, seqno {seqno}) does not "
                    f"follow the served (epoch {state.epoch}, seqno "
                    f"{state.seqno})"
                )
        except Exception as exc:
            return refuse(409, str(exc) or type(exc).__name__)
        self._last_update_visible = time.perf_counter()
        return self._admin_answer(
            request, rid, started, 200,
            {"installed": True, "epoch": epoch, "seqno": seqno},
        )

    async def _handle_rebuild(self, request: Request, rid: str) -> Response:
        """``POST /admin/rebuild``: build + save a fresh base index.

        Builds a new index from the coordinator's current graph and
        writes it (atomically, v4 container) to the body's ``path`` or
        ``<index_path>.rebuild``.  Returns the saved path and the
        snapshot's ``base_seqno``.  The served base and overlay do not
        change: the file is a fresh index of the current weights, for
        starting a server from.
        """
        started = time.perf_counter()

        def _reject(status: int, message: str, extra=()):
            return self._finish_request(
                status, {"rebuilt": False, "error": message}, extra,
                rid=rid, started=started, method=request.method,
                path="/admin/rebuild", error=message, track_slo=False,
            )

        if request.method != "POST":
            return _reject(
                405, "rebuild requires POST", (("Allow", "POST"),)
            )
        if self.updates is None:
            return _reject(409, "live updates are not enabled")
        if self._rebuilding:
            return _reject(409, "a rebuild is already running")
        try:
            body = request.json()
            target = body.get("path") if isinstance(body, dict) else None
        except Exception as exc:
            return _reject(400, str(exc))
        if target is None:
            if self.index_path is None:
                return _reject(
                    409,
                    "no path to save the rebuilt index (in-memory index "
                    "and no 'path' in the request body)",
                )
            target = f"{self.index_path}.rebuild"
        if self._rebuild_executor is None:
            self._rebuild_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="spc-rebuild"
            )

        def _build_and_save():
            from repro.core.serialize import save_index

            new_index, base_seqno = self.updates.rebuild()
            save_index(new_index, target, format="binary")
            return base_seqno

        self._rebuilding = True
        error = None
        try:
            base_seqno = await asyncio.get_running_loop().run_in_executor(
                self._rebuild_executor, _build_and_save
            )
            seconds = time.perf_counter() - started
            self.recorder.incr("serve.rebuild.count")
            self.recorder.observe("serve.rebuild.seconds", seconds)
            if self.request_log is not None:
                self.request_log.log_server(
                    "rebuild_saved",
                    path=str(target),
                    base_seqno=base_seqno,
                    seconds=round(seconds, 6),
                )
            status, payload = 200, {
                "rebuilt": True,
                "path": str(target),
                "base_seqno": base_seqno,
                "seconds": seconds,
            }
        except Exception as exc:
            error = str(exc) or type(exc).__name__
            self.recorder.incr("serve.rebuild.failed")
            status, payload = 409, {"rebuilt": False, "error": error}
        finally:
            self._rebuilding = False
        return self._finish_request(
            status, payload, (),
            rid=rid, started=started, method="POST",
            path="/admin/rebuild", error=error, track_slo=False,
        )

    async def _handle_profile(self, request: Request, rid: str) -> Response:
        """``POST /admin/profile?seconds=N``: live sampling profile.

        Attaches the wall-clock sampling profiler
        (:class:`repro.obs.sampling.SamplingProfiler`) to the running
        process for ``seconds`` (default 2, capped at 60) and returns
        the capture — collapsed flamegraph stacks as ``text/plain`` by
        default, or a Chrome trace payload with ``format=chrome``.
        ``interval_ms`` tunes the sampling period (default 10 ms).  One
        capture at a time: a concurrent request gets 409.  Query
        traffic keeps flowing while the capture runs; the measured
        overhead is under 5% of QPS (asserted in ``bench_serve.py``).
        """
        started = time.perf_counter()

        def _reject(status: int, message: str, extra=()):
            return self._finish_request(
                status, {"error": message}, extra,
                rid=rid, started=started, method=request.method,
                path="/admin/profile", error=message, track_slo=False,
            )

        if request.method != "POST":
            return _reject(
                405, "profile requires POST", (("Allow", "POST"),)
            )
        try:
            seconds = float(request.params.get("seconds", "2"))
            interval_ms = float(request.params.get("interval_ms", "10"))
        except ValueError:
            return _reject(400, "seconds/interval_ms must be numbers")
        if not 0 < seconds <= 60:
            return _reject(400, "seconds must be in (0, 60]")
        if not 0.5 <= interval_ms <= 1000:
            return _reject(400, "interval_ms must be in [0.5, 1000]")
        fmt = request.params.get("format", "collapsed")
        if fmt not in ("collapsed", "chrome"):
            return _reject(400, "format must be 'collapsed' or 'chrome'")
        if self._profiler is not None:
            return _reject(409, "a profile capture is already running")
        from repro.obs.sampling import SamplingProfiler

        profiler = SamplingProfiler(interval_s=interval_ms / 1000.0)
        self._profiler = profiler
        try:
            profiler.start()
            await asyncio.sleep(seconds)
            profiler.stop()
        finally:
            self._profiler = None
        self.recorder.incr("serve.profile.captures")
        # Self-accounting: the sampler reports the CPU it burned, so
        # callers (and the perf gate) can judge the capture's true cost
        # without a noisy A/B throughput comparison.
        cost_headers = (
            ("X-Profile-Samples", str(profiler.sample_count)),
            ("X-Profile-Cpu-Seconds", f"{profiler.cpu_seconds:.6f}"),
        )
        if fmt == "chrome":
            payload, extra = profiler.chrome_trace(), cost_headers
        else:
            payload = profiler.collapsed().encode("utf-8")
            extra = cost_headers + (
                ("Content-Type", "text/plain; charset=utf-8"),
            )
        return self._finish_request(
            200, payload, extra,
            rid=rid, started=started, method="POST",
            path="/admin/profile", track_slo=False,
        )

    async def _profile_to_file(self, seconds: float = 10.0) -> Optional[str]:
        """SIGUSR2 capture: sample for ``seconds``, write collapsed stacks.

        The output lands in the working directory as
        ``spc-profile-<pid>-<n>.collapsed``; failures (and the path on
        success) go to the structured server log, never to the request
        path.
        """
        if self._profiler is not None:
            if self.request_log is not None:
                self.request_log.log_server("profile_busy")
            return None
        from repro.obs.sampling import SamplingProfiler

        profiler = SamplingProfiler()
        self._profiler = profiler
        try:
            profiler.start()
            await asyncio.sleep(seconds)
            profiler.stop()
        finally:
            self._profiler = None
        self._profile_seq += 1
        path = f"spc-profile-{os.getpid()}-{self._profile_seq}.collapsed"
        try:
            profiler.write_collapsed(path)
        except OSError as exc:
            if self.request_log is not None:
                self.request_log.log_server(
                    "profile_failed", error=str(exc)
                )
            return None
        self.recorder.incr("serve.profile.captures")
        if self.request_log is not None:
            self.request_log.log_server(
                "profile_written",
                path=path,
                samples=profiler.sample_count,
            )
        return path

    def _handle_health(self) -> Response:
        slo_status, breaches, _ = self._slo_state()
        if self.breaker.open:
            breaches = list(breaches) + ["circuit_open"]
        if self._draining:
            status_text, http_status = "draining", 503
        elif self.breaker.open:
            # Degraded, but still answering: with a fallback configured
            # queries keep flowing (slowly), so readiness — not
            # liveness — is what flips.
            status_text, http_status = "degraded", 503
        elif slo_status == "degraded":
            status_text, http_status = "degraded", 503
        else:
            status_text, http_status = "ok", 200
        payload = {
            "status": status_text,
            "index": self._index_metadata(),
            "inflight": self._admitted,
            "uptime_seconds": time.perf_counter() - self._started_at,
            "slo": {"status": slo_status, "breaches": breaches},
            "breaker": self.breaker.snapshot(),
            "fallback": {
                "configured": self.fallback is not None,
                "active": self.fallback is not None and self.breaker.open,
            },
        }
        return http_status, payload, ()

    def _handle_metrics(self, request: Request) -> Response:
        rec = self.recorder
        rec.gauge("serve.queue.depth", self.queue_depth)
        rec.gauge("serve.connections.active", len(self._connections))
        rec.gauge("serve.cache.size", len(self.cache))
        rec.gauge("serve.cache.hit_rate", self.cache.hit_rate)
        if self.updates is not None:
            self._live_gauges()
        return self._metrics_answer(request, rec.metrics_snapshot())

    def _handle_trace(self, request: Request) -> Response:
        """``POST /admin/trace``: read (and optionally clear) the ring.

        ``format=chrome`` (default) returns a single-fragment merged
        Chrome trace payload, viewable as-is; ``format=fragment``
        returns the raw span fragment (pid, role, wall-clock anchor,
        spans) — the form the fleet router collects from every worker
        and merges into one cross-process trace.  ``clear=1`` drains
        the ring so the next capture starts fresh.
        """
        refusal = self._trace_refusal(request)
        if refusal is not None:
            return refusal
        fragment = self.tracer.fragment(clear=request.flag("clear"))
        if request.params.get("format") == "fragment":
            return 200, fragment, ()
        return 200, merge_trace_fragments([fragment]), ()

    def _handle_stats(self) -> Response:
        slo_status, breaches, window = self._slo_state()
        payload = {
            "index": self._index_metadata(),
            "window": window,
            "slo": {
                "status": slo_status,
                "breaches": breaches,
                "p99_ms": self.slo_policy.p99_ms or None,
                "max_error_rate": self.slo_policy.max_error_rate or None,
            },
            "cache": self.cache.snapshot(),
            "breaker": self.breaker.snapshot(),
            "uptime_seconds": time.perf_counter() - self._started_at,
        }
        if self.fault_plan is not None:
            payload["faults"] = self.fault_plan.snapshot()
        if self.batcher is not None:
            payload["batcher"] = {
                "batches_flushed": self.batcher.batches_flushed,
                "queries_batched": self.batcher.queries_batched,
                "pending": self.batcher.pending_count,
            }
        if self.updates is not None:
            payload["live"] = self._live_stats()
        elif self.live is not None:
            state = self.live.state
            payload["live"] = {
                "epoch": state.epoch,
                "seqno": state.seqno,
                "overlay_entries": state.entries,
                "poisoned_vertices": state.poisoned_vertices,
            }
        if self.top_pairs is not None:
            payload["top_pairs"] = self.top_pairs.block()
        if self.tracer is not None:
            payload["trace"] = {
                "buffered": len(self.tracer),
                "recorded": self.tracer.recorded,
                "capacity": self.tracer.capacity,
            }
        return 200, payload, ()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Admitted-but-unanswered requests (the shedding signal)."""
        return self._admitted

    def _parse_query(
        self, request: Request
    ) -> Tuple[
        Optional[List[Tuple[int, int]]], Optional[Tuple[int, int]], bool
    ]:
        """Returns ``(pairs, single, explain)``; one of the first two set."""
        if request.method == "POST":
            payload = request.json()
            if not isinstance(payload, dict):
                raise HTTPProtocolError("query body must be a JSON object")
            explain = bool(payload.get("explain", False))
            if "pairs" in payload:
                raw = payload["pairs"]
                if not isinstance(raw, list):
                    raise HTTPProtocolError("'pairs' must be a list")
                pairs = []
                for item in raw:
                    if (
                        not isinstance(item, (list, tuple))
                        or len(item) != 2
                    ):
                        raise HTTPProtocolError(
                            "each pair must be [source, target]"
                        )
                    pairs.append((int(item[0]), int(item[1])))
                return pairs, None, explain
            try:
                return (
                    None,
                    (int(payload["source"]), int(payload["target"])),
                    explain,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise HTTPProtocolError(
                    "query body needs integer 'source' and 'target'"
                ) from exc
        explain = request.flag("explain")
        try:
            return (
                None,
                (
                    int(request.params["source"]),
                    int(request.params["target"]),
                ),
                explain,
            )
        except (KeyError, ValueError) as exc:
            raise HTTPProtocolError(
                "query needs integer 'source' and 'target' parameters"
            ) from exc

    def _dispatch_query(self, request: Request, rid: str, trace=None):
        """Admit (or reject) one ``/query`` synchronously.

        Cache hits, malformed requests, and shed responses come back as
        ready tuples; an admitted miss submits its scan *now* and
        returns the awaitable :class:`_Waiter` for its answer.
        """
        started = time.perf_counter()
        try:
            pairs, single, explain = self._parse_query(request)
        except HTTPProtocolError as exc:
            self.recorder.incr("serve.errors.request")
            return self._finish_request(
                400,
                {"error": str(exc)},
                (),
                rid=rid,
                started=started,
                method=request.method,
                error=str(exc),
                trace=trace,
            )
        if single is not None:
            return self._query_entry(
                *single, rid, explain=explain, trace=trace
            )
        shed = self._shed(len(pairs))
        if shed is not None:
            return self._finish_request(
                *shed,
                rid=rid,
                started=started,
                method=request.method,
                trace=trace,
            )
        return self._answer_pairs(pairs, rid, started, explain, trace)

    def _shed(self, pairs: int) -> Optional[Response]:
        """The 503 for ``pairs`` more queries while draining or past
        the queue high-water mark; ``None`` admits them."""
        if self._draining:
            self.recorder.incr("serve.shed.draining")
            return 503, {"error": "draining"}, _RETRY_AFTER
        if self.queue_depth + pairs > self.config.queue_high_water:
            self.recorder.incr("serve.shed", pairs)
            return (
                503,
                {
                    "error": "overloaded",
                    "queue_depth": self.queue_depth,
                    "high_water": self.config.queue_high_water,
                },
                _RETRY_AFTER,
            )
        return None

    def _query_entry(
        self,
        source: int,
        target: int,
        rid: str,
        *,
        explain: bool = False,
        trace=None,
    ):
        """Drain/shed/cache-check one pair; ready tuple or waiter.

        200 payloads come back as pre-serialized bytes (see
        :func:`encode_result_bytes`) unless ``explain`` asked for the
        annotated dict form."""
        started = time.perf_counter()
        shed = self._shed(1)
        if shed is not None:
            return self._finish_request(
                *shed,
                rid=rid,
                started=started,
                source=source,
                target=target,
                trace=trace,
            )
        cached = self.cache.get(source, target)
        if self.top_pairs is not None:
            # The symmetric key is built inline: this runs per query.
            self.top_pairs.offer(
                (source, target) if source <= target else (target, source),
                cached is not None,
            )
        if cached is not None:
            if explain:
                payload = encode_result(source, target, cached)
                payload["explain"] = self._explain_counters(
                    source, target, rid, cache_hit=True, meta=None
                )
            else:
                payload = encode_result_bytes(source, target, cached)
            return self._finish_request(
                200,
                payload,
                (),
                rid=rid,
                started=started,
                source=source,
                target=target,
                cache_hit=True,
                trace=trace,
            )
        return self._admit(source, target, rid, started, explain, trace)

    def _admit(
        self,
        source: int,
        target: int,
        rid: str,
        started: float,
        explain: bool,
        trace=None,
    ) -> "_Waiter":
        """Take a queue slot and start the scan; returns the waiter.

        With the breaker open and a fallback index configured, queries
        route to the fallback's own executor (correct but slow) — the
        breaker still lets one probe per cooldown through the real
        index so it can close itself once the index heals.
        """
        self._admitted += 1
        self.recorder.gauge_max("serve.queue.depth.max", self._admitted)
        meta = (
            {}
            if explain or self.request_log is not None or trace is not None
            else None
        )
        if trace is not None:
            # The coalescer parents its scan_batch span to the request
            # span created in _finish_request — hand it the ids now.
            meta["trace"] = (trace[0], trace[1])
        fallback = self.fallback is not None and self.breaker.prefer_fallback()
        if fallback:
            self.recorder.incr("serve.fallback.queries")
        if self.batcher is not None and not fallback:
            future = self.batcher.submit(source, target, meta)
        else:
            if meta is not None:
                meta["batch_size"] = 1
                meta["flush_reason"] = (
                    "fallback" if fallback else "uncoalesced"
                )
                if fallback:
                    meta["fallback"] = True
            future = offload(
                self._fallback_executor if fallback else self._executor,
                self.config.request_timeout_ms / 1000.0,
                self.fallback.query if fallback else self.index.query,
                source,
                target,
            )
        return _Waiter(
            self, future, source, target, rid, started, meta, explain,
            fallback, trace,
        )

    async def _answer_pairs(
        self,
        pairs: List[Tuple[int, int]],
        rid: str,
        started: float,
        explain: bool,
        trace=None,
    ) -> Response:
        """A POST batch: each pair rides the normal entry path with a
        derived id (``<rid>/<slot>``), so batch members correlate in
        the logs while the envelope keeps the client's id.  On a traced
        request, each member gets its own span parented under the
        envelope's request span."""
        results = await asyncio.gather(
            *(
                self._answer_single(
                    s,
                    t,
                    f"{rid}/{slot}",
                    explain,
                    None
                    if trace is None
                    else (trace[0], new_span_id(), trace[1]),
                )
                for slot, (s, t) in enumerate(pairs)
            )
        )
        worst = max(status for status, _, _ in results)
        return self._finish_request(
            worst,
            {"results": [payload for _, payload, _ in results]},
            _RETRY_AFTER if worst == 503 else (),
            rid=rid,
            started=started,
            method="POST",
            track_slo=False,  # members were tracked individually
            trace=trace,
        )

    async def _answer_single(
        self, source: int, target: int, rid: str, explain: bool, trace=None
    ) -> Response:
        """One pair of a POST batch, payload as a JSON-able dict."""
        entry = self._query_entry(
            source, target, rid, explain=explain, trace=trace
        )
        status, payload, extra = (
            entry if type(entry) is tuple else await entry
        )
        if type(payload) is bytes:
            payload = json.loads(payload)
        return status, payload, extra

    def _finish(self, w: "_Waiter") -> Response:
        """The response for a waiter whose future has resolved.

        A deadline (the batcher's window timer or :func:`offload`'s)
        fails the future with ``TimeoutError``: a 504, and the scan's
        late answer is dropped without touching batch-mates.
        """
        self._admitted -= 1
        self.recorder.observe(
            "serve.latency_seconds", time.perf_counter() - w.started
        )
        exc = w.future.exception()
        cache_hit = labels_scanned = error = None
        if exc is None:
            result = w.future.result()
            self.cache.put(w.source, w.target, result)
            self.recorder.incr("serve.responses.ok")
            if w.fallback:
                # Fallback answers must not mask a broken index: only
                # index-path successes close the breaker.
                self.recorder.incr("serve.fallback.ok")
            else:
                self.breaker.record_success()
            # A disabled cache performs no lookup — don't count one.
            cache_hit = False if self.cache.capacity else None
            status = 200
            if w.explain:
                payload = encode_result(w.source, w.target, result)
                payload["explain"] = self._explain_counters(
                    w.source, w.target, w.rid, cache_hit=False, meta=w.meta
                )
                labels_scanned = payload["explain"].get("labels_scanned")
            else:
                payload = encode_result_bytes(w.source, w.target, result)
        elif isinstance(exc, asyncio.TimeoutError):
            self.recorder.incr("serve.timeouts")
            status, error = 504, "deadline exceeded"
            payload = {
                "error": error,
                "timeout_ms": self.config.request_timeout_ms,
                "source": w.source,
                "target": w.target,
            }
        elif isinstance(exc, ReproError):
            self.recorder.incr("serve.errors.query")
            status, error = 400, str(exc)
            payload = {"error": error}
        else:
            # A scan-path crash, not a client error: 500, counted
            # against the circuit breaker; batch-mates are unaffected.
            self.recorder.incr("serve.errors.scan")
            status, error = 500, str(exc) or type(exc).__name__
            payload = {
                "error": "scan failed", "source": w.source, "target": w.target
            }
            if self.breaker.record_failure():
                self.recorder.incr("serve.breaker.trips")
                if self.request_log is not None:
                    self.request_log.log_server(
                        "breaker_open",
                        consecutive_failures=self.breaker.threshold,
                        last_error=error,
                    )
        return self._finish_request(
            status,
            payload,
            (),
            rid=w.rid,
            started=w.started,
            source=w.source,
            target=w.target,
            cache_hit=cache_hit,
            meta=w.meta,
            labels_scanned=labels_scanned,
            error=error,
            trace=w.trace,
        )
