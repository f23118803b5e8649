"""The HTTP front end of the query server.

:class:`~repro.serve.server.SPCServer` terminates client HTTP with the
:class:`FrontEnd` here: the pipelined connection loop, the drain, the
``traceparent`` sampling rule, ``/metrics`` content negotiation and the
``/admin/trace`` argument checks.  A subclass routes:

* ``_fast_query(head)`` answers the hot ``GET /query`` shape straight
  off the head bytes as ``(answer, keep_alive)``, or returns ``None``
  to send the head to the full parser;
* ``_dispatch(request)`` answers any parsed request.

An *answer* is a ``(status, payload, extra headers)`` tuple, or —
while it is still being computed — a coroutine (run as a task) or a
future whose result is one.  Every answer of a connection that becomes
ready in one loop tick leaves in one socket write.

``serve.requests`` counts ``/query`` requests, here and nowhere else.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from types import CoroutineType
from typing import Optional, Sequence, Tuple

from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    RequestIdGenerator,
    Sampler,
    SpanCollector,
    TraceContext,
    new_span_id,
    render_prometheus,
)
from repro.serve import http
from repro.serve.config import ServeConfig

#: ``(status, payload, extra headers)``: a route handler's answer.
Response = Tuple[int, object, Sequence[Tuple[str, str]]]

#: Answers one client connection may have waiting; past this the front
#: end stops reading that connection until the client takes some.
_PIPELINE_DEPTH = 64


class _Connection:
    """One client connection's answers, written in request order.

    ``out`` holds ``(answer, keep_alive)`` for every request read but
    not yet written.  While it is not empty one :meth:`flush` is on its
    way: scheduled with ``call_soon`` when its head is ready, or hooked
    onto the head while that is still being computed.  So the answers
    that become ready in one loop tick — a pipelining client's whole
    window — go out in one write.
    """

    __slots__ = ("front", "reader", "writer", "out", "space", "loop")

    def __init__(self, front: "FrontEnd", reader, writer) -> None:
        self.front = front
        self.reader = reader
        self.writer = writer
        self.out: deque = deque()
        #: Set when the head of ``out`` is taken (:meth:`taken`).
        self.space: Optional[asyncio.Future] = None
        self.loop = asyncio.get_running_loop()

    def queue(self, answer, keep_alive: bool) -> None:
        """Queue ``answer`` behind the answers ahead of it; the first
        answer of an empty queue arranges the flush."""
        out = self.out
        out.append((answer, keep_alive))
        self.front._inflight += 1
        if len(out) == 1:
            if type(answer) is tuple:
                self.loop.call_soon(self.flush)
            else:
                answer.add_done_callback(self.flush)

    def flush(self, _done=None) -> None:
        """Write the answers at the head of ``out`` that are ready, in
        one call, and hook onto the next one still being computed."""
        front, out = self.front, self.out
        ready = []
        while out:
            answer, keep_alive = out[0]
            if type(answer) is not tuple:
                if not answer.done():
                    answer.add_done_callback(self.flush)
                    break
                answer = front._result(answer)
            out.popleft()
            ready.append(front._encode(answer, keep_alive))
        if not ready:
            return
        front._inflight -= len(ready)
        self.write(ready)
        space = self.space
        if space is not None:
            self.space = None
            if not space.done():
                space.set_result(None)

    def write(self, chunks) -> None:
        """One socket write of encoded responses.  The ``conn.reset``
        chaos site, where armed, cuts the connection mid-response: the
        responses before it go out whole, half of it, then an abort."""
        writer, front = self.writer, self.front
        if writer.is_closing():
            return  # a cut or lost connection: answers are dropped
        faults = front._reset_faults
        if faults is not None:
            for slot, encoded in enumerate(chunks):
                if faults.should_fire("conn.reset"):
                    front.recorder.incr("serve.errors.injected_reset")
                    writer.write(
                        b"".join(chunks[:slot])
                        + encoded[: max(1, len(encoded) // 2)]
                    )
                    writer.transport.abort()
                    return
        writer.write(b"".join(chunks))
        if front._log_drain is not None:
            front._log_drain()

    async def taken(self) -> None:
        """Wait until the answer at the head of ``out`` is written."""
        self.space = self.loop.create_future()
        await self.space


class FrontEnd:
    """Client-facing HTTP of a serving process.

    Subclasses call :meth:`__init__`, implement ``_fast_query`` and
    ``_dispatch``, and may arm the two optional parts of a write: a
    fault plan whose ``conn.reset`` site cuts connections
    (``_reset_faults``) and a deferred request-log drain run after
    each write and, forced, when a connection closes (``_log_drain``).
    """

    _reset_faults = None
    _log_drain = None

    def __init__(
        self, config: ServeConfig, recorder, role: str
    ) -> None:
        self.config = config
        self.recorder = recorder
        #: Distributed-trace span collector (``None`` = tracing off),
        #: read by ``POST /admin/trace``.
        self.tracer: Optional[SpanCollector] = (
            SpanCollector(config.trace_buffer, role=role)
            if config.trace_buffer > 0
            else None
        )
        #: Local head sampler: 1 in ``trace_sample_every`` requests
        #: without a valid inbound ``traceparent`` start a new trace.
        self._trace_sampler: Optional[Sampler] = (
            Sampler(config.trace_sample_every, config.log_seed)
            if self.tracer is not None and config.trace_sample_every > 0
            else None
        )
        self._ids = RequestIdGenerator()
        self.host = config.host
        self.port = config.port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._draining = False
        #: Requests read but not yet answered, across connections.
        self._inflight = 0
        #: Client connection tasks (:meth:`_on_connection`) and their
        #: :class:`_Connection` state.
        self._connections: dict = {}
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _listen(self, sock=None) -> None:
        """Bind the client port, or accept on ``sock`` (already bound
        and listening); resolves the actual port for port 0."""
        self._stopped = asyncio.Event()
        if sock is None:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock
            )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._started_at = time.perf_counter()

    async def wait_stopped(self) -> None:
        """Block until a drain has fully completed."""
        assert self._stopped is not None, "never started"
        await self._stopped.wait()

    @property
    def draining(self) -> bool:
        """Whether a graceful drain is in progress (or finished)."""
        return self._draining

    async def _drain_connections(self) -> None:
        """Stop accepting and answer every request already read.

        The caller has set ``_draining``, so a request read meanwhile is
        answered with ``Connection: close``.  After ``drain_grace_s``
        at most, every connection closes: an idle one sees end of input
        and its loop ends as if the client had closed it; one still
        owing answers, or whose client is not taking them, is
        cancelled — it writes the answers already computed and drops
        the rest.
        """
        if self._server is not None:
            self._server.close()
        deadline = time.monotonic() + self.config.drain_grace_s
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for task, conn in list(self._connections.items()):
            if conn.out or conn.writer.transport.get_write_buffer_size():
                task.cancel()
            else:
                conn.reader.feed_eof()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # the connection loop
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        """One client connection.

        The loop never awaits a query's answer: every answer is queued
        and the next request is read — so a pipelining client's window
        is answered in one tick and written in one call.  Answers go out
        in request order, in the tick they and every answer ahead of
        them are ready.  Reading pauses while
        ``_PIPELINE_DEPTH`` answers wait or the client is not taking
        them.  A request other than ``/query`` whose answer is not
        ready at once (an admin call) runs alone: reading waits for its
        answer.
        """
        task = asyncio.current_task()
        conn = self._connections[task] = _Connection(self, reader, writer)
        self.recorder.incr("serve.connections")
        loop = asyncio.get_running_loop()
        out = conn.out
        try:
            while True:
                while len(out) >= _PIPELINE_DEPTH:
                    await conn.taken()
                if writer.transport.get_write_buffer_size():
                    await writer.drain()  # the client is not reading
                head = await http.read_head(reader)
                if head is None:
                    break
                item = self._fast_query(head)
                if item is None:
                    request = await http.parse_request(head, reader)
                    keep_alive = request.keep_alive and not self._draining
                    query = request.path == "/query"
                    answer = self._dispatch(request)
                else:
                    answer, keep_alive = item
                    query = True
                if query:
                    self.recorder.incr("serve.requests")
                if type(answer) is CoroutineType:
                    answer = loop.create_task(answer)
                    conn.queue(answer, keep_alive)
                    if not query:
                        await asyncio.wait((answer,))
                else:
                    conn.queue(answer, keep_alive)
                if not keep_alive:
                    break
        except http.HTTPProtocolError as exc:
            # Bytes that do not frame as HTTP: a 400 with the reason,
            # then the connection closes.
            self.recorder.incr("serve.errors.protocol")
            conn.queue((400, {"error": str(exc)}, ()), False)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            self.recorder.incr("serve.errors.connection")
        except asyncio.CancelledError:
            # The drain grace is over: the answers already computed
            # are written, the rest dropped (their requests run to
            # completion).
            conn.flush()
            self._inflight -= len(out)
            out.clear()
            raise
        finally:
            try:
                while out:
                    await conn.taken()
            finally:
                self._inflight -= len(out)
                out.clear()
                self._connections.pop(task, None)
                if self._log_drain is not None:
                    self._log_drain(True)
                writer.close()

    def _result(self, pending):
        """The answer a resolved future-like stands for; an exception
        (a handler bug) becomes a 500 so later answers still go out."""
        try:
            return pending.result()
        except (Exception, asyncio.CancelledError) as exc:
            self.recorder.incr("serve.errors.internal")
            return 500, {"error": f"internal error: {exc}"}, ()

    @staticmethod
    def _encode(answer, keep_alive: bool) -> bytes:
        """The response bytes of a ready answer."""
        status, payload, extra = answer
        return http.response_bytes(
            status, payload, keep_alive=keep_alive, extra_headers=extra
        )

    # ------------------------------------------------------------------
    # shared request rules
    # ------------------------------------------------------------------
    def _trace_for(self, header: Optional[str]):
        """The span tuple ``(trace_id, span_id, parent_id)`` of a request
        whose ``traceparent`` header is ``header``, or ``None`` when the
        request is not traced.

        A sampled inbound context is always honoured (this span becomes
        its child, so a caller's decision wins); an explicit
        unsampled one suppresses tracing; an absent or malformed header
        (treated as absent per W3C) falls back to local 1-in-N sampling,
        which roots a new trace here.
        """
        if self.tracer is None:
            return None
        if header is not None:
            ctx = TraceContext.parse(header)
            if ctx is not None:
                if not ctx.sampled:
                    return None
                return ctx.trace_id, new_span_id(), ctx.span_id
        sampler = self._trace_sampler
        if sampler is None or not sampler.keep():
            return None
        ctx = TraceContext.generate()
        return ctx.trace_id, ctx.span_id, None

    @staticmethod
    def _metrics_answer(request: http.Request, snapshot: dict) -> Response:
        """``snapshot`` as JSON, or as Prometheus text for
        ``?format=prometheus`` or an ``Accept`` of ``text/plain`` or
        OpenMetrics (an explicit ``format`` wins over ``Accept``)."""
        fmt = request.params.get("format")
        if fmt is not None:
            wants_text = fmt == "prometheus"
        else:
            accept = request.headers.get("accept", "")
            wants_text = "text/plain" in accept or "openmetrics" in accept
        if wants_text:
            return (
                200,
                render_prometheus(snapshot).encode("utf-8"),
                (("Content-Type", PROMETHEUS_CONTENT_TYPE),),
            )
        return 200, snapshot, ()

    def _trace_refusal(self, request: http.Request) -> Optional[Response]:
        """The error answer to a ``/admin/trace`` request that cannot be
        served, or ``None``: it must be a POST, tracing must be on, and
        ``format`` must be ``chrome`` (the default) or ``fragment``."""
        if request.method != "POST":
            return 405, {"error": "trace requires POST"}, (("Allow", "POST"),)
        if self.tracer is None:
            return 409, {"error": "tracing is disabled (trace_buffer = 0)"}, ()
        if request.params.get("format", "chrome") not in ("chrome", "fragment"):
            return 400, {"error": "format must be 'chrome' or 'fragment'"}, ()
        return None
