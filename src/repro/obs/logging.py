"""Structured JSON-lines request logging: access log + slow-query log.

The serving layer's per-request story (the paper's Fig. 9/Fig. 11
measurements are *per query*, and so is production debugging) needs
machine-parseable records, not printf lines.  This module emits one
JSON object per line with a fixed event vocabulary:

* ``access`` — one record per answered HTTP request.  Fast requests
  can be sampled 1-in-N (``sample_every``) so a saturated server does
  not spend its cycles logging; slow and non-200 requests are always
  recorded.
* ``slow_query`` — an additional record for every request whose
  latency crosses ``slow_ms``, carrying the algorithmic counters
  (labels scanned, batch size, queue wait) when the server knows them.
* ``server`` — lifecycle records (start, drain).

Every record shares the envelope fields ``event``, ``ts`` (Unix
seconds), and — for request records — ``request_id``.  The request id
is what correlates a record with the ``X-Request-Id`` response header
the client saw; see :class:`RequestIdGenerator`.

Sampling is *deterministic under a seed*: :class:`Sampler` draws from
its own ``random.Random(seed)``, so tests (and incident replays) can
predict exactly which records a workload produces.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import time
from contextlib import contextmanager
from typing import IO, Optional

__all__ = [
    "JsonLinesWriter",
    "RequestIdGenerator",
    "RequestLog",
    "Sampler",
]


class RequestIdGenerator:
    """Process-unique request ids: ``<instance>-<counter hex>``.

    The instance prefix is random per generator (4 bytes of
    ``os.urandom``), so ids from restarted servers never collide in
    aggregated logs; the counter makes ids ordered and cheap — no
    per-request entropy on the hot path.
    """

    __slots__ = ("prefix", "_counter")

    def __init__(self, prefix: Optional[str] = None) -> None:
        self.prefix = prefix if prefix is not None else os.urandom(4).hex()
        self._counter = itertools.count(1)

    def next_id(self) -> str:
        """The next request id (monotonic within this generator)."""
        return f"{self.prefix}-{next(self._counter):06x}"


class Sampler:
    """Keep roughly 1 in ``every`` events, deterministically per seed.

    ``every <= 1`` keeps everything.  The decision stream depends only
    on the seed and the call sequence, never on wall clock or ids, so
    a replayed workload samples the same records — that determinism is
    pinned by ``tests/obs/test_logging.py``.
    """

    __slots__ = ("every", "_rng", "_getrandbits", "_bits")

    def __init__(self, every: int, seed: int = 0) -> None:
        if every < 0:
            raise ValueError(f"sample_every must be >= 0, got {every}")
        self.every = every
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits
        self._bits = every.bit_length()

    def keep(self) -> bool:
        """Whether the next event should be logged.

        Inlines ``Random._randbelow``'s rejection loop over a cached
        ``getrandbits`` — the decision stream is bit-identical to
        ``randrange(every) == 0`` at a quarter of the cost, and the
        server calls this once per finished request.
        """
        every = self.every
        if every <= 1:
            return True
        getrandbits = self._getrandbits
        r = getrandbits(self._bits)
        while r >= every:
            r = getrandbits(self._bits)
        return r == 0


class JsonLinesWriter:
    """Append JSON records to a text stream, one object per line.

    Records are dumped with compact separators and sorted keys, so the
    log is diffable and greppable; each ``write`` ends with exactly one
    ``\\n`` and a flush (log lines must survive a crash).  Inside a
    :meth:`batched` block, lines are collected and written with a
    single flush on exit — the server uses this to amortise syscalls
    when it drains a burst of deferred records.
    """

    __slots__ = ("_stream", "_buffer", "records_written")

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        self._buffer: Optional[list] = None
        self.records_written = 0

    def write(self, record: dict) -> None:
        """Serialize and append one record."""
        self.write_line(
            json.dumps(record, separators=(",", ":"), sort_keys=True,
                       default=str)
            + "\n"
        )

    def write_line(self, line: str) -> None:
        """Append one pre-serialized record line (must end in ``\\n``)."""
        if self._buffer is not None:
            self._buffer.append(line)
        else:
            self._stream.write(line)
            self._stream.flush()
        self.records_written += 1

    @contextmanager
    def batched(self):
        """Collect lines written inside the block; flush once on exit."""
        if self._buffer is not None:  # reentrant: the outer block flushes
            yield
            return
        self._buffer = []
        try:
            yield
        finally:
            lines, self._buffer = self._buffer, None
            if lines:
                self._stream.write("".join(lines))
                self._stream.flush()


#: Strings that need no JSON escaping (the common ids/methods/paths).
_PLAIN_STRING = re.compile(r"^[A-Za-z0-9._:/?=&-]*$").match


def _json_string(value: str) -> str:
    """``value`` as a JSON string literal, fast for plain strings.

    Request ids, methods, and paths are client-controlled bytes — the
    regex gate keeps the hot path allocation-light while anything
    containing quotes, backslashes, or control characters still goes
    through ``json.dumps`` for correct escaping.
    """
    if _PLAIN_STRING(value):
        return f'"{value}"'
    return json.dumps(value)


#: Encoded-literal cache for the handful of distinct methods/paths a
#: server ever logs.  Never used for request ids (unique per request —
#: they would evict everything useful and then pin the cache full).
_ROUTE_CACHE: dict = {}


def _route_string(value: str) -> str:
    """Like :func:`_json_string` but memoized for methods and paths."""
    cached = _ROUTE_CACHE.get(value)
    if cached is None:
        cached = _json_string(value)
        if len(_ROUTE_CACHE) < 256:
            _ROUTE_CACHE[value] = cached
    return cached


def _access_line(
    request_id, method, path, status, latency_ms,
    source, target, cache_hit, scan_s, labels_scanned, trace_id, ts_part,
):
    """One ``access`` record as a JSON line.

    Keys are emitted already sorted, so the output is byte-identical
    to ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
    at a fraction of the cost; ``ts_part`` is the pre-rendered
    ``"ts":...`` fragment so a burst can share one clock read.
    """
    parts = []
    if cache_hit is not None:
        parts.append(
            '"cache_hit":true' if cache_hit else '"cache_hit":false'
        )
    parts.append('"event":"access"')
    if labels_scanned is not None:
        parts.append(f'"labels_scanned":{labels_scanned}')
    parts.append(f'"latency_ms":{latency_ms:.3f}')
    parts.append(f'"method":{_route_string(method)}')
    parts.append(f'"path":{_route_string(path)}')
    parts.append(f'"request_id":{_json_string(request_id)}')
    if scan_s is not None:
        parts.append(f'"scan_ms":{scan_s * 1000.0:.3f}')
    if source is not None:
        parts.append(f'"source":{source}')
    parts.append(f'"status":{status}')
    if target is not None:
        parts.append(f'"target":{target}')
    if trace_id is not None:
        parts.append(f'"trace_id":{_json_string(trace_id)}')
    parts.append(ts_part)
    return "{" + ",".join(parts) + "}\n"


class RequestLog:
    """The server's structured request log (access + slow-query).

    One instance per server; :meth:`log_request` is the single hot-path
    entry point.  The caller passes whatever it knows about the request
    — unknown fields are simply omitted from the record, so cache hits
    (no scan) and scan misses (with the scan's time) produce the same
    record type with different field sets.

    Fast 200s (the overwhelming majority under load) are serialized by
    a hand-rolled formatter emitting the same sorted-key compact JSON
    as :class:`JsonLinesWriter` at a fraction of the cost; slow and
    failed requests take the ``json.dumps`` path, where a few extra
    microseconds are irrelevant.
    """

    def __init__(
        self,
        stream: IO[str],
        *,
        slow_ms: float = 100.0,
        sample_every: int = 1,
        seed: int = 0,
        clock=time.time,
    ) -> None:
        if slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        self.writer = JsonLinesWriter(stream)
        self.slow_ms = slow_ms
        self.sampler = Sampler(sample_every, seed)
        self._clock = clock
        self.access_records = 0
        self.slow_records = 0
        self.sampled_out = 0

    def log_server(self, event: str, **fields) -> None:
        """A lifecycle record (``event`` is e.g. ``"start"``)."""
        record = {"event": "server", "what": event, "ts": self._clock()}
        record.update(fields)
        self.writer.write(record)

    def log_request(
        self,
        *,
        request_id: str,
        method: str,
        path: str,
        status: int,
        latency_s: float,
        source: Optional[int] = None,
        target: Optional[int] = None,
        cache_hit: Optional[bool] = None,
        scan_s: Optional[float] = None,
        labels_scanned: Optional[int] = None,
        error: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        """Record one finished request.

        Emits an ``access`` record (always for slow or non-200
        requests; sampled 1-in-N otherwise) and, when ``latency_s``
        crosses the slow threshold, a ``slow_query`` record carrying
        the same correlation id.  ``trace_id`` is the distributed
        trace the request rode in on (sampled requests only), stamped
        alongside ``request_id`` so a log line can be joined against a
        captured Chrome trace.
        """
        latency_ms = latency_s * 1000.0
        slow = latency_ms >= self.slow_ms > 0
        if not slow and status == 200 and not self.sampler.keep():
            self.sampled_out += 1
            return
        if not slow and error is None:
            self.writer.write_line(
                _access_line(
                    request_id, method, path, status, latency_ms,
                    source, target, cache_hit, scan_s, labels_scanned,
                    trace_id, f'"ts":{self._clock()!r}',
                )
            )
            self.access_records += 1
            return
        record = {
            "event": "access",
            "ts": self._clock(),
            "request_id": request_id,
            "method": method,
            "path": path,
            "status": status,
            "latency_ms": round(latency_ms, 3),
        }
        if source is not None:
            record["source"] = source
        if target is not None:
            record["target"] = target
        if cache_hit is not None:
            record["cache_hit"] = cache_hit
        if scan_s is not None:
            record["scan_ms"] = round(scan_s * 1000.0, 3)
        if labels_scanned is not None:
            record["labels_scanned"] = labels_scanned
        if error is not None:
            record["error"] = error
        if trace_id is not None:
            record["trace_id"] = trace_id
        self.writer.write(record)
        self.access_records += 1
        if slow:
            slow_record = dict(record)
            slow_record["event"] = "slow_query"
            slow_record["slow_ms_threshold"] = self.slow_ms
            self.writer.write(slow_record)
            self.slow_records += 1

    def log_batch(self, records, *, presampled: bool = False) -> None:
        """Record a burst of finished requests with a single flush.

        ``records`` are ``(request_id, method, path, status,
        latency_s, source, target, cache_hit, scan_s, labels_scanned,
        error, trace_id)`` tuples, where ``scan_s`` is the time of the
        scan that answered the request, or ``None``.  Semantically identical to one
        :meth:`log_request` call per tuple, in order — same sampling
        stream, same slow/error handling — but positional and with
        one clock read and one flush for the whole burst, which is
        what lets a saturated server log every request.  Records in a
        burst therefore share a ``ts`` (latency_ms stays per-request).

        ``presampled=True`` means the caller already consulted
        :meth:`Sampler.keep` for each record (in the same order) and
        dropped the sampled-out ones — every record passed in is
        written.  The server does this at request-finish time so a
        dropped record never costs a tuple or a drain iteration.
        """
        writer = self.writer
        slow_ms = self.slow_ms
        keep = self.sampler.keep
        ts_part = f'"ts":{self._clock()!r}'
        with writer.batched():
            for (request_id, method, path, status, latency_s, source,
                 target, cache_hit, scan_s, labels_scanned,
                 error, trace_id) in records:
                latency_ms = latency_s * 1000.0
                if (latency_ms >= slow_ms > 0) or error is not None:
                    self.log_request(
                        request_id=request_id, method=method,
                        path=path, status=status, latency_s=latency_s,
                        source=source, target=target,
                        cache_hit=cache_hit, scan_s=scan_s,
                        labels_scanned=labels_scanned, error=error,
                        trace_id=trace_id,
                    )
                    continue
                if not presampled and status == 200 and not keep():
                    self.sampled_out += 1
                    continue
                writer.write_line(
                    _access_line(
                        request_id, method, path, status, latency_ms,
                        source, target, cache_hit, scan_s,
                        labels_scanned, trace_id, ts_part,
                    )
                )
                self.access_records += 1
