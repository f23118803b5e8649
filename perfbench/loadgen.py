"""The benchmark's HTTP client: closed-loop, open-loop and update phases.

One asyncio process drives the server over at most two keep-alive
connections.  Requests are pipelined on each connection and answers
are checked as they land: a non-200 status, a wrong ``(distance,
count)`` or a lost connection counts as a failed request.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Pair = Tuple[int, int]
Answer = Tuple[Optional[int], int]

#: Seconds a phase waits for its last in-flight answers.
DRAIN_TIMEOUT_S = 10.0


def query_bytes(source: int, target: int,
                request_id: Optional[str] = None) -> bytes:
    stamp = f"X-Request-Id: {request_id}\r\n" if request_id else ""
    return (
        f"GET /query?source={source}&target={target} HTTP/1.1\r\n"
        f"Host: bench\r\n{stamp}\r\n"
    ).encode()


def expected_body(source: int, target: int, answer: Answer) -> bytes:
    """The server's exact answer body (a fast path; JSON is the fallback)."""
    distance, count = answer
    dist = "null" if distance is None else str(distance)
    return (
        f'{{"source":{source},"target":{target},'
        f'"distance":{dist},"count":{count}}}'
    ).encode()


def answer_ok(body: bytes, expected: bytes, answer: Answer) -> bool:
    if body == expected:
        return True
    try:
        payload = json.loads(body)
        return (payload["distance"], payload["count"]) == answer
    except (ValueError, KeyError, TypeError):
        return False


class Workload:
    """Pre-encoded requests with their expected answers, cycled in order."""

    def __init__(
        self,
        pairs: Sequence[Pair],
        answers: Dict[Pair, Answer],
        order: Optional[Sequence[int]] = None,
    ) -> None:
        self.pairs = list(pairs)
        self.requests = [query_bytes(s, t) for s, t in pairs]
        self.expected = [expected_body(s, t, answers[(s, t)])
                         for s, t in pairs]
        self.answers = [answers[p] for p in pairs]
        self.order = list(order) if order is not None else list(
            range(len(pairs))
        )
        #: While edge weights stream in, an answer can only be checked
        #: for shape; the exact check happens before and after the stream.
        self.exact = True
        #: Stamp each request with a unique ``X-Request-Id`` (traced run).
        self.stamp_ids = False
        self._cursor = 0
        self._sent = 0

    def next_slot(self) -> int:
        slot = self.order[self._cursor]
        self._cursor = (self._cursor + 1) % len(self.order)
        return slot

    def request(self, slot: int) -> bytes:
        if not self.stamp_ids:
            return self.requests[slot]
        self._sent += 1
        return query_bytes(*self.pairs[slot], request_id=f"b{self._sent}")

    def check(self, slot: int, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        if self.exact:
            return answer_ok(body, self.expected[slot], self.answers[slot])
        try:
            payload = json.loads(body)
            return payload["distance"] is None or payload["count"] >= 1
        except (ValueError, KeyError, TypeError):
            return False


class _Conn(asyncio.Protocol):
    """A pipelining HTTP/1.1 client connection (Content-Length framing)."""

    def __init__(self, on_response: Callable) -> None:
        self.on_response = on_response
        self.buf = bytearray()
        self.inflight: deque = deque()
        self.transport = None
        self.lost = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def send(self, tag, data: bytes) -> None:
        self.inflight.append(tag)
        self.transport.write(data)

    def data_received(self, data: bytes) -> None:
        buf = self.buf
        buf += data
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return
            mark = buf.find(b"Content-Length:", 0, end)
            length = (
                int(buf[mark + 15 : buf.index(b"\r\n", mark)])
                if mark >= 0 else 0
            )
            total = end + 4 + length
            if len(buf) < total:
                return
            status = int(buf[9:12])
            body = bytes(buf[end + 4 : total])
            del buf[:total]
            self.on_response(self, self.inflight.popleft(), status, body)

    def connection_lost(self, exc) -> None:
        self.lost = True
        while self.inflight:
            self.on_response(self, self.inflight.popleft(), 0, b"")


async def _connect(host: str, port: int, on_response) -> _Conn:
    loop = asyncio.get_running_loop()
    _transport, conn = await loop.create_connection(
        lambda: _Conn(on_response), host, port
    )
    return conn


@dataclass
class PhaseResult:
    """What one phase measured."""

    attempted: int = 0
    failed: int = 0
    #: Correct answers completed per window.
    window_counts: List[int] = field(default_factory=list)
    window_s: float = 0.5
    #: Open loop: ``sample()`` read at each window boundary.
    window_samples: List[float] = field(default_factory=list)
    #: Open loop: seconds from each request's due time to its answer.
    latencies: List[float] = field(default_factory=list)
    #: Open loop: the same latencies, by the window they were due in.
    window_latencies: List[List[float]] = field(default_factory=list)
    #: Open loop: seconds the generator sent each request after its due.
    lateness: List[float] = field(default_factory=list)
    #: Update stream: seconds per acknowledged ``/admin/update``.
    acks: List[float] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    # Each figure is a median over windows: a host stall spoils the
    # windows it lands in, not the run.
    def throughput(self) -> float:
        """Median per-window rate of correct answers."""
        rates = [count / self.window_s for count in self.window_counts]
        return statistics.median(rates) if rates else 0.0

    def per_answer(self) -> float:
        """Median per-window growth of ``sample()`` per correct answer."""
        samples = self.window_samples
        values = [(samples[i + 1] - samples[i]) / count
                  for i, count in enumerate(self.window_counts[:len(samples) - 1])
                  if count]
        return statistics.median(values) if values else 0.0

    def latency_p50(self) -> float:
        """Median over windows of each window's median latency."""
        values = [statistics.median(w) for w in self.window_latencies if w]
        return statistics.median(values) if values else 0.0


def _windows(result: PhaseResult, seconds: float, window_s: float) -> int:
    windows = max(1, int(round(seconds / window_s)))
    result.window_s = window_s
    result.window_counts = [0] * windows
    return windows


def _count(result: PhaseResult, now: float, start: float) -> None:
    """Credit one correct answer to the window it landed in."""
    at = int((now - start) / result.window_s)
    if at < len(result.window_counts):
        result.window_counts[at] += 1


def _ticker(result: PhaseResult, start: float,
            sample: Optional[Callable[[], float]]):
    """Read ``sample()`` at every window boundary (``None``: no task)."""
    if sample is None:
        return None

    async def tick() -> None:
        for k in range(len(result.window_counts) + 1):
            delay = start + k * result.window_s - time.perf_counter()
            await asyncio.sleep(max(0.0, delay))
            result.window_samples.append(sample())

    return asyncio.ensure_future(tick())


async def _drain(conns: Sequence[_Conn]) -> None:
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while any(c.inflight for c in conns) and time.perf_counter() < deadline:
        await asyncio.sleep(0.005)


def _close(conns: Sequence[_Conn], result: PhaseResult) -> None:
    for conn in conns:
        # An answer that never came is a failed request.
        result.failed += len(conn.inflight)
        conn.inflight.clear()
        conn.transport.close()


async def closed_loop(
    host: str,
    port: int,
    workload: Workload,
    *,
    seconds: float,
    connections: int,
    depth: int,
    window_s: float = 0.5,
) -> PhaseResult:
    """Keep ``depth`` requests in flight on each connection for ``seconds``."""
    result = PhaseResult()
    windows = _windows(result, seconds, window_s)
    clock = time.perf_counter
    start = stop = 0.0

    def on_response(conn: _Conn, slot: int, status: int, body: bytes) -> None:
        now = clock()
        if workload.check(slot, status, body):
            _count(result, now, start)
        else:
            result.failed += 1
        if now < stop and not conn.lost:
            send(conn)

    def send(conn: _Conn) -> None:
        slot = workload.next_slot()
        result.attempted += 1
        conn.send(slot, workload.request(slot))

    conns = [await _connect(host, port, on_response)
             for _ in range(connections)]
    start = clock()
    stop = start + windows * window_s
    for conn in conns:
        for _ in range(depth):
            send(conn)
    await asyncio.sleep(max(0.0, stop - clock()))
    await _drain(conns)
    _close(conns, result)
    return result


async def one_pass(host: str, port: int, workload: Workload) -> PhaseResult:
    """Send every request of ``workload`` once, pipelined on one connection."""
    result = PhaseResult()

    def on_response(conn: _Conn, slot: int, status: int, body: bytes) -> None:
        if not workload.check(slot, status, body):
            result.failed += 1

    conn = await _connect(host, port, on_response)
    for slot in range(len(workload.requests)):
        result.attempted += 1
        conn.send(slot, workload.request(slot))
    await _drain([conn])
    _close([conn], result)
    return result


async def open_loop(
    host: str,
    port: int,
    workload: Workload,
    *,
    seconds: float,
    rate: float,
    connections: int,
    window_s: float = 0.5,
    sample: Optional[Callable[[], float]] = None,
) -> PhaseResult:
    """Send at a fixed ``rate``; time each answer from its due time.

    ``sample`` (for example a CPU-time reading) is read at every window
    boundary, so its growth can be set against each window's answers:
    at a fixed rate every window offers the same work.
    """
    result = PhaseResult()
    windows = _windows(result, seconds, window_s)
    result.window_latencies = [[] for _ in range(windows)]
    clock = time.perf_counter
    start = 0.0

    def on_response(conn: _Conn, tag, status: int, body: bytes) -> None:
        slot, due = tag
        now = clock()
        if workload.check(slot, status, body):
            result.latencies.append(now - due)
            at = min(int((due - start) / window_s), windows - 1)
            result.window_latencies[at].append(now - due)
            _count(result, now, start)
        else:
            result.failed += 1

    conns = [await _connect(host, port, on_response)
             for _ in range(connections)]
    total = int(seconds * rate)
    start = clock()
    ticks = _ticker(result, start, sample)
    for i in range(total):
        due = start + i / rate
        now = clock()
        if due > now:
            await asyncio.sleep(due - now)
            now = clock()
        result.lateness.append(now - due)
        slot = workload.next_slot()
        result.attempted += 1
        conns[i % len(conns)].send((slot, due), workload.request(slot))
    if ticks is not None:
        await ticks
    await _drain(conns)
    _close(conns, result)
    return result


async def update_stream(
    host: str,
    port: int,
    batches: Sequence[Sequence[Tuple[int, int, int]]],
    *,
    interval_s: float,
    on_ack: Callable[[int], None],
) -> PhaseResult:
    """POST one batch every ``interval_s`` seconds; time each ack.

    ``on_ack(i)`` runs once batch ``i`` is acknowledged, so the caller
    can mirror exactly the weights the server has applied.
    """
    result = PhaseResult()
    clock = time.perf_counter
    acked: asyncio.Queue = asyncio.Queue()

    def on_response(conn: _Conn, tag, status: int, body: bytes) -> None:
        acked.put_nowait((tag, status, body, clock()))

    conn = await _connect(host, port, on_response)
    start = clock()
    try:
        for i, batch in enumerate(batches):
            due = start + i * interval_s
            now = clock()
            if due > now:
                await asyncio.sleep(due - now)
            body = json.dumps({"updates": [list(u) for u in batch]}).encode()
            sent = clock()
            result.attempted += 1
            conn.send(i, (
                "POST /admin/update HTTP/1.1\r\nHost: bench\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body)
            try:
                tag, status, reply, done = await asyncio.wait_for(
                    acked.get(), DRAIN_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                result.failed += 1
                break
            if status != 200 or not json.loads(reply).get("applied", True):
                result.failed += 1
                continue
            result.acks.append(done - sent)
            on_ack(tag)
    finally:
        conn.inflight.clear()
        conn.transport.close()
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100 * len(ordered))) - 1))
    return ordered[rank]
