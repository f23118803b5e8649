"""The asyncio SPC query server: routing, shedding, deadlines, drain.

:class:`SPCServer` owns one read-only index and answers ``Q(s, t)``
over a small JSON/HTTP surface:

* ``GET /query?source=S&target=T`` — one query.
* ``POST /query`` with ``{"source": S, "target": T}`` or
  ``{"pairs": [[S, T], ...]}`` — one query or an explicit batch; add
  ``"explain": true`` for the algorithmic counters behind the answer
  (labels scanned, LCA node, scan time).
* ``GET /health`` — liveness + readiness: 503 once draining **or**
  when the rolling SLO window is degraded.
* ``GET /metrics`` — the server recorder's metrics, content-negotiated:
  JSON snapshot by default, Prometheus text exposition for
  ``Accept: text/plain`` / ``?format=prometheus``.
* ``GET /stats`` — the rolling SLO window (p50/p95/p99, error/shed/
  cache-hit rates, queue depth) plus cache and breaker state.

Client HTTP — the pipelined connection loop, the drain, ``traceparent``
sampling and ``/metrics`` negotiation — is the
:class:`~repro.serve.frontend.FrontEnd`.  With an
:class:`~repro.live.coordinator.UpdateCoordinator` the server is live:
``POST /admin/update`` applies delta batches to the
:class:`~repro.live.overlay.LiveIndex` it serves, and past the overlay
threshold a background rebuild swaps in a new base.  Under
``serve --workers N`` the server is the one child of a
:class:`~repro.serve.fleet.FleetRouter` supervisor, serving on the
socket the supervisor bound.

**One answer path.**  A ``/query`` is answered in one step: drain
check, result cache, then one ``index.query_batch`` of the request's
misses run on the event loop (:func:`scan_answers`), then encode.  The
answer is ready when the request has been read, so the connection
writes every answer that became ready in one loop tick in one socket
write.  A pair
whose scan raises fails alone: :func:`scan_answers` retries the pairs
one by one.

Answers are ``{"source", "target", "distance", "count"}`` with
``distance: null`` for a disconnected pair — exactly the values
:meth:`SPCIndex.query` returns, just JSON-framed.

**Request correlation:** every request carries a request id — the
inbound ``X-Request-Id`` header when the client sent one, a generated
``<instance>-<counter>`` id otherwise.  The id is echoed in the
``X-Request-Id`` response header and stamps every structured log
record (:class:`repro.obs.logging.RequestLog`: JSON-lines access log
plus a slow-query log past ``slow_query_ms``), so one grep connects a
user report to the scan that served it.

Three protections keep the server honest:

* **Admission control** — a draining server, and a POST batch of more
  than ``queue_high_water`` pairs, get 503 + ``Retry-After``.
* **The breaker's fallback** — once the circuit breaker trips on a
  failing index, queries go to the fallback index (when one is
  configured) on its own threads.  That is the one path where requests
  wait: past ``queue_high_water`` waiting fallback queries new ones
  are shed with 503, and one still waiting after ``request_timeout_ms``
  gets 504.
* **Graceful drain** — SIGTERM (or :meth:`SPCServer.shutdown`) stops
  accepting, answers every request already read within
  ``drain_grace_s``, and only then lets the process exit.
"""

from __future__ import annotations

import asyncio
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
from repro.serve.config import ServeConfig
from repro.serve.frontend import FrontEnd, Response
from repro.serve.http import HTTPProtocolError, Request, parse_query_head
from repro.types import INF, QueryResult, Vertex

_RETRY_AFTER = (("Retry-After", "1"),)

_ALLOW_POST = (("Allow", "POST"),)

#: Deferred log records to accumulate before handing a drain to the
#: log writer thread — amortizes the submit overhead over a batch of
#: records.  Connection close and shutdown flush regardless.
_LOG_DRAIN_MIN_RECORDS = 24


def scan_answers(index, pairs, recorder=NULL_RECORDER) -> List[object]:
    """``index``'s answers to ``pairs`` from one ``query_batch`` call,
    run on the calling thread — the server's one scan.

    If the batch call raises, each pair is retried alone with
    ``index.query`` and a pair that still fails gets its exception in
    its slot, so a bad pair or a scan crash fails only its own answer.
    A :class:`ReproError` is one bad pair failing the whole call;
    anything else is an infrastructure crash (injected fault, corrupt
    read) and is counted as an isolation.
    """
    try:
        return index.query_batch(pairs)
    except Exception as exc:
        results: List[object] = []
        for source, target in pairs:
            try:
                results.append(index.query(source, target))
            except Exception as error:
                results.append(error)
        if not isinstance(exc, ReproError):
            failed = sum(isinstance(r, BaseException) for r in results)
            recorder.incr("serve.batch.isolated")
            recorder.incr("serve.batch.retry_ok", len(results) - failed)
            recorder.incr("serve.batch.retry_failed", failed)
        return results


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


class SPCServer(FrontEnd):
    """Serves one built SPC index over HTTP.

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
        supervised=None,
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
        #: Live-update coordinator (``None`` = a static index).  When
        #: set, the server serves its :class:`LiveIndex` view
        #: (:attr:`live`) and accepts ``POST /admin/update`` delta
        #: batches, repaired one at a time on one executor thread.
        self.updates = updates
        self.live = None
        self._update_executor: Optional[ThreadPoolExecutor] = None
        if updates is not None:
            if updates.recorder is NULL_RECORDER:
                updates.recorder = self.recorder
            self._update_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="spc-update"
            )
            index = self.live = updates.live_index
        #: Lazy executor for full index rebuilds, so a long build never
        #: queues behind (or blocks) streaming update batches.
        self._rebuild_executor: Optional[ThreadPoolExecutor] = None
        self._rebuild_task: Optional[asyncio.Task] = None
        #: perf_counter of the most recent update batch becoming
        #: visible (drives the ``live.staleness_s`` gauge).
        self._last_update_visible: Optional[float] = None
        #: The supervisor of ``serve --workers N``, when this server is
        #: its child: the socket to serve on and the channel to report on.
        self.supervised = supervised
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
        #: The request-log writer thread (started on first use).
        self._log_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="spc-log"
        )
        self._fallback_executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="spc-fallback"
            )
            if fallback is not None
            else None
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
        #: Guards /admin/rebuild (one build-and-save at a time).
        self._rebuilding = False
        self._prev_switch_interval: Optional[float] = None
        #: Active sampling-profiler capture, if any — one at a time.
        self._profiler = None
        self._profile_seq = 0
        #: Fallback queries waiting for an answer (the shedding signal).
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
        supervised = self.supervised
        await self._listen(supervised.socket if supervised else None)
        if supervised is not None:
            loop = asyncio.get_running_loop()
            supervised.on_orphaned(
                loop, lambda: loop.create_task(self.shutdown())
            )
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

        The load runs on a side thread with full checksum verification
        (``verify=True`` covers the mmap'd v4 sections too); the swap
        itself happens on the event loop in one step, between two
        scans — zero requests dropped.  The result cache is cleared
        (answers may differ) and the circuit breaker resets.  Raises on
        any load/validation failure, counted as ``serve.reload.failed``,
        leaving the previous index serving untouched.  A supervised
        server reports the new path, which a respawn opens.
        """
        from repro.core.serialize import load_index

        started = time.perf_counter()
        if self.live is not None:
            raise ReproError(
                "live-update server: a direct reload would desynchronize "
                "the delta overlay from the served labels; the overlay "
                "threshold's rebuild-and-swap replaces the base instead"
            )
        path = str(path or self.index_path or "")
        if not path:
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
        info = {"path": path, "index": type(new_index).__name__}
        if self.fault_plan is not None and self.fault_plan.targets(
            "scan.fail", "scan.slow"
        ):
            new_index = FaultyIndex(new_index, self.fault_plan)
        self.index = new_index
        self.cache.clear()
        self._index_meta = None
        self.breaker.record_success()
        self.index_path = path
        self.recorder.incr("serve.reload.count")
        if self.supervised is not None:
            self.supervised.report("serving", path)
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
        await self._stop_live()
        self._log_executor.shutdown(wait=True)
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
        scan_s: Optional[float] = None,
        labels_scanned: Optional[int] = None,
        error: Optional[str] = None,
        track_slo: bool = True,
        trace=None,
    ) -> Response:
        """Stamp one finished request: id header, SLO window, log record.

        Every response funnels through here exactly once, so the
        correlation contract — the id a client sent comes back in the
        header *and* appears in the matching log records — holds on
        every path (cache hit, scan, fallback, shed, timeout, error).
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
                self.queue_depth,
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
                # the wire, so logging never sits between an answer
                # and the write that sends it.
                self._log_pending.append(
                    (rid, method, path, status, latency_s, source,
                     target, cache_hit, scan_s, labels_scanned, error,
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
        """Hand deferred request records to the log writer thread.

        Formatting and writing happen on that thread, so the event loop
        never pauses to serialize log lines between sending a burst of
        responses and reading the next requests.  The executor has one
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
            self._log_executor.submit(
                log.log_batch, pending, presampled=True
            )

    def _explain_counters(
        self,
        source: int,
        target: int,
        rid: str,
        *,
        cache_hit: bool,
        scan_s: Optional[float] = None,
        fallback: bool = False,
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
        if fallback:
            counters["fallback"] = True
        if scan_s is not None:
            counters["scan_us"] = round(scan_s * 1e6, 1)
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

        Only query traffic draws the site — admin calls and health
        probes stay deterministic — and SIGKILL (not an exception)
        models the real failure the ``serve --workers N`` supervisor
        must detect: no drain, no goodbye, a half-written response on
        the wire.
        """
        plan = self.fault_plan
        if plan is not None and plan.should_fire("worker.kill"):
            os.kill(os.getpid(), signal.SIGKILL)

    def _dispatch(self, request: Request):
        """Route one request: a ready Response or an awaitable of one.

        Runs synchronously inside the read loop: a query is answered
        before the next pipelined request is parsed, and only a
        fallback query or an admin call leaves an awaitable.
        """
        rid = request.headers.get("x-request-id") or self._ids.next_id()
        if request.path == "/query":
            self._maybe_die()
            return self._dispatch_query(
                request, rid, self._trace_for(request.headers.get("traceparent"))
            )
        if request.path == "/admin/reload":
            return self._handle_reload(request, rid)
        if request.path == "/admin/update":
            return self._handle_update(request, rid)
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
            "inflight": self.queue_depth,
            "uptime_seconds": time.perf_counter() - self._started_at,
            "slo": {"status": slo_status, "breaches": breaches},
            "breaker": self.breaker.snapshot(),
            "fallback": {
                "configured": self.fallback is not None,
                "active": self.fallback is not None and self.breaker.open,
            },
        }
        if self.supervised is not None:
            payload["supervisor"] = self._supervisor_block()
        return http_status, payload, ()

    def _supervisor_block(self) -> dict:
        """Which incarnation of a supervised server answers: 0 for the
        first child, +1 per respawn."""
        return {
            "generation": self.supervised.generation,
            "pid": os.getpid(),
        }

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
        spans), for merging with other processes' fragments
        (:func:`repro.obs.merge_trace_fragments`).  ``clear=1`` drains
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
        if self.updates is not None:
            payload["live"] = self._live_stats()
        if self.supervised is not None:
            payload["supervisor"] = self._supervisor_block()
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
    # live updates
    # ------------------------------------------------------------------
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
    # updates
    # ------------------------------------------------------------------
    async def _handle_update(self, request: Request, rid: str) -> Response:
        """``POST /admin/update``: apply one JSON delta batch.

        Body: ``{"updates": [[a, b, new_weight], ...]}``.  The 200 is
        sent only after the overlay reflecting the batch is published
        (and, with a write-ahead log, fsync'd), so a caller that
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
        apply_started = time.perf_counter()
        report = await loop.run_in_executor(
            self._update_executor, self.updates.apply_batch, normalized
        )
        # Targeted invalidation: an answer can only have moved if one of
        # its endpoints had a label entry patched (or unpatched) by this
        # batch.
        dropped = self.cache.invalidate(report.changed_vertices)
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
        new base and sweeping the edges changed since the snapshot) is
        the only pause, reported as ``serve.rebuild.swap_seconds``.
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

    async def _adopt_rebuilt(self, new_index, base_seqno: int) -> dict:
        """Swap a rebuilt base in; :meth:`UpdateCoordinator.adopt_base`'s
        report.

        With a write-ahead log attached, the base is first saved next
        to the served index (``<index>.epoch-<N>``) and opened from
        there, and the log's new epoch file pins that path, so a
        restarted or respawned server recovers onto the same base.
        """
        loop = asyncio.get_running_loop()
        path = None
        if self.updates.wal is not None and self.index_path is not None:
            from repro.core.serialize import load_index, save_index

            epoch = self.updates.live_index.state.epoch + 1
            path = f"{self.index_path}.epoch-{epoch}"

            def save_and_open():
                save_index(new_index, path, format="binary")
                return load_index(path, verify=True)

            new_index = await loop.run_in_executor(
                self._rebuild_executor, save_and_open
            )
        return await loop.run_in_executor(
            self._update_executor,
            self.updates.adopt_base,
            new_index,
            base_seqno,
            path,
        )

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

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests read but not yet answered on the wire, across
        connections: answers waiting for their tick's write and
        fallback queries still running."""
        return self._inflight

    def _parse_query(
        self, request: Request
    ) -> Tuple[
        Optional[List[Tuple[int, int]]], Optional[Tuple[int, int]], bool
    ]:
        """Returns ``(pairs, single, explain)``; one of the first two set.

        A POST body's vertex ids must be JSON integers: a float, a
        boolean or a string is refused, as ``source=1.9`` is on a GET.
        """
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
                        or type(item[0]) is not int
                        or type(item[1]) is not int
                    ):
                        raise HTTPProtocolError(
                            "each pair must be [source, target]"
                        )
                    pairs.append((item[0], item[1]))
                return pairs, None, explain
            source, target = payload.get("source"), payload.get("target")
            if type(source) is not int or type(target) is not int:
                raise HTTPProtocolError(
                    "query body needs integer 'source' and 'target'"
                )
            return None, (source, target), explain
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
        """Answer one ``/query``: a ready tuple, or a coroutine when the
        breaker's fallback answers."""
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
        """The 503 for a request of ``pairs`` queries while draining or
        when it has more pairs than the queue high-water mark; ``None``
        admits it."""
        if self._draining:
            self.recorder.incr("serve.shed.draining")
            return 503, {"error": "draining"}, _RETRY_AFTER
        if pairs > self.config.queue_high_water:
            return self._overloaded(pairs)
        return None

    def _overloaded(self, pairs: int) -> Response:
        """The 503 past ``queue_high_water``, counting ``pairs`` shed."""
        self.recorder.incr("serve.shed", pairs)
        return (
            503,
            {
                "error": "overloaded",
                "queue_depth": self._admitted,
                "high_water": self.config.queue_high_water,
            },
            _RETRY_AFTER,
        )

    def _lookup(self, source: int, target: int) -> Optional[QueryResult]:
        """The cached answer of one pair; every pair feeds ``top_pairs``."""
        cached = self.cache.get(source, target)
        if self.top_pairs is not None:
            # The symmetric key is built inline: this runs per query.
            self.top_pairs.offer(
                (source, target) if source <= target else (target, source),
                cached is not None,
            )
        return cached

    def _query_entry(
        self,
        source: int,
        target: int,
        rid: str,
        *,
        explain: bool = False,
        trace=None,
    ):
        """One pair: drain check, cache, then the scan on the loop — a
        ready tuple — or, with the breaker open, the fallback's
        coroutine.

        200 payloads come back as pre-serialized bytes (see
        :func:`encode_result_bytes`) unless ``explain`` asked for the
        annotated dict form."""
        started = time.perf_counter()
        if self._draining:
            return self._finish_request(
                *self._shed(1),
                rid=rid,
                started=started,
                source=source,
                target=target,
                trace=trace,
            )
        cached = self._lookup(source, target)
        if cached is not None:
            return self._answered(
                source, target, cached, rid, started, explain, trace
            )
        if self.fallback is not None and self.breaker.prefer_fallback():
            return self._fallback_answer(
                source, target, rid, started, explain, trace
            )
        scan_started = time.perf_counter()
        result = scan_answers(
            self.index, ((source, target),), self.recorder
        )[0]
        return self._scanned(
            source, target, result, rid, started, explain, trace,
            (scan_started, time.perf_counter() - scan_started, 1),
        )

    def _answer_pairs(
        self,
        pairs: List[Tuple[int, int]],
        rid: str,
        started: float,
        explain: bool,
        trace=None,
    ):
        """A POST batch: cached pairs answered, the misses scanned in
        one :func:`scan_answers` call.  Each member gets a derived id
        (``<rid>/<slot>``), so members correlate in the logs while the
        envelope keeps the client's id; on a traced request each member
        gets its own span parented under the envelope's request span.
        A ready tuple, or a coroutine when the fallback answers the
        misses."""
        members = []
        misses = []
        for slot, (source, target) in enumerate(pairs):
            member_rid = f"{rid}/{slot}"
            member_trace = (
                None if trace is None else (trace[0], new_span_id(), trace[1])
            )
            cached = self._lookup(source, target)
            if cached is not None:
                members.append(self._answered(
                    source, target, cached, member_rid, started, explain,
                    member_trace,
                ))
            else:
                members.append(None)
                misses.append((slot, member_rid, member_trace))
        if misses and self.fallback is not None and (
            self.breaker.prefer_fallback()
        ):
            return self._fallback_envelope(
                pairs, members, misses, rid, started, explain, trace
            )
        if misses:
            scan_started = time.perf_counter()
            results = scan_answers(
                self.index, [pairs[slot] for slot, _, _ in misses],
                self.recorder,
            )
            scan = (
                scan_started, time.perf_counter() - scan_started, len(misses)
            )
            for (slot, member_rid, member_trace), result in zip(
                misses, results
            ):
                members[slot] = self._scanned(
                    *pairs[slot], result, member_rid, started, explain,
                    member_trace, scan,
                )
        return self._envelope(members, rid, started, trace)

    async def _fallback_envelope(
        self, pairs, members, misses, rid, started, explain, trace
    ) -> Response:
        """A POST batch whose misses the fallback answers."""
        answers = await asyncio.gather(*(
            self._fallback_answer(
                *pairs[slot], member_rid, started, explain, member_trace
            )
            for slot, member_rid, member_trace in misses
        ))
        for (slot, _, _), answer in zip(misses, answers):
            members[slot] = answer
        return self._envelope(members, rid, started, trace)

    def _envelope(self, members, rid, started, trace) -> Response:
        """The ``{"results": [...]}`` answer of a POST batch."""
        worst = max((status for status, _, _ in members), default=200)
        return self._finish_request(
            worst,
            {
                "results": [
                    json.loads(payload) if type(payload) is bytes else payload
                    for _, payload, _ in members
                ]
            },
            _RETRY_AFTER if worst == 503 else (),
            rid=rid,
            started=started,
            method="POST",
            track_slo=False,  # members were tracked individually
            trace=trace,
        )

    async def _fallback_answer(
        self,
        source: int,
        target: int,
        rid: str,
        started: float,
        explain: bool,
        trace=None,
    ) -> Response:
        """One pair answered by the fallback index on its own threads —
        the one path where a query waits.  Past ``queue_high_water``
        waiting fallback queries it is shed (503); still waiting after
        ``request_timeout_ms`` it gets a 504 and the late answer is
        dropped."""
        if self._admitted >= self.config.queue_high_water:
            return self._finish_request(
                *self._overloaded(1),
                rid=rid,
                started=started,
                source=source,
                target=target,
                trace=trace,
            )
        self._admitted += 1
        self.recorder.gauge_max("serve.queue.depth.max", self._admitted)
        self.recorder.incr("serve.fallback.queries")
        scan_started = time.perf_counter()
        try:
            result = await asyncio.wait_for(
                asyncio.get_running_loop().run_in_executor(
                    self._fallback_executor, self.fallback.query, source,
                    target,
                ),
                self.config.request_timeout_ms / 1000.0,
            )
        except Exception as exc:
            result = exc
        finally:
            self._admitted -= 1
        return self._scanned(
            source, target, result, rid, started, explain, trace,
            (scan_started, time.perf_counter() - scan_started, 1),
            fallback=True,
        )

    def _answered(
        self, source, target, result, rid, started, explain, trace
    ) -> Response:
        """The 200 of a cache hit."""
        if explain:
            payload = encode_result(source, target, result)
            payload["explain"] = self._explain_counters(
                source, target, rid, cache_hit=True
            )
        else:
            payload = encode_result_bytes(source, target, result)
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

    def _scanned(
        self,
        source: int,
        target: int,
        result,
        rid: str,
        started: float,
        explain: bool,
        trace,
        scan: Tuple[float, float, int],
        fallback: bool = False,
    ) -> Response:
        """The response to one pair a scan answered: ``result`` is its
        :class:`QueryResult` or the exception it failed with, ``scan``
        the ``(start, seconds, pairs)`` of that scan.

        A timeout (the fallback's deadline) is a 504, a
        :class:`ReproError` a 400, anything else a 500 counted against
        the circuit breaker.  Only index-path successes close the
        breaker, so fallback answers cannot mask a broken index.
        """
        rec = self.recorder
        scan_start, scan_s, scan_pairs = scan
        rec.observe("serve.latency_seconds", time.perf_counter() - started)
        if trace is not None and self.tracer is not None:
            self.tracer.record(
                "serve.scan_batch",
                trace_id=trace[0],
                span_id=new_span_id(),
                parent_id=trace[1],
                start=scan_start,
                duration=scan_s,
                attrs={"batch_size": scan_pairs},
            )
        cache_hit = labels_scanned = error = None
        if not isinstance(result, BaseException):
            self.cache.put(source, target, result)
            rec.incr("serve.responses.ok")
            if fallback:
                rec.incr("serve.fallback.ok")
            else:
                self.breaker.record_success()
            # A disabled cache performs no lookup — don't count one.
            cache_hit = False if self.cache.capacity else None
            status = 200
            if explain:
                payload = encode_result(source, target, result)
                payload["explain"] = self._explain_counters(
                    source, target, rid, cache_hit=False, scan_s=scan_s,
                    fallback=fallback,
                )
                labels_scanned = payload["explain"].get("labels_scanned")
            else:
                payload = encode_result_bytes(source, target, result)
        elif isinstance(result, asyncio.TimeoutError):
            rec.incr("serve.timeouts")
            status, error = 504, "deadline exceeded"
            payload = {
                "error": error,
                "timeout_ms": self.config.request_timeout_ms,
                "source": source,
                "target": target,
            }
        elif isinstance(result, ReproError):
            rec.incr("serve.errors.query")
            status, error = 400, str(result)
            payload = {"error": error}
        else:
            # A scan-path crash, not a client error: 500, counted
            # against the circuit breaker; other pairs are unaffected.
            rec.incr("serve.errors.scan")
            status, error = 500, str(result) or type(result).__name__
            payload = {"error": "scan failed", "source": source, "target": target}
            if self.breaker.record_failure():
                rec.incr("serve.breaker.trips")
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
            rid=rid,
            started=started,
            source=source,
            target=target,
            cache_hit=cache_hit,
            scan_s=scan_s,
            labels_scanned=labels_scanned,
            error=error,
            trace=trace,
        )
