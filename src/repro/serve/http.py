"""Minimal HTTP/1.1 framing over asyncio streams — stdlib only.

Just enough of the protocol for the query server and its load-generator
client: request/status lines, headers, ``Content-Length`` bodies, and
keep-alive.  No chunked encoding, no TLS, no multipart — the payloads
are tiny JSON objects and the parser stays a handful of allocations per
request, which matters because framing overhead is pure per-request
cost that micro-batching cannot amortise.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Dict, Optional, Sequence, Tuple
from urllib.parse import unquote_plus

from repro.exceptions import ReproError

#: Upper bound on one request's header section, defensive only.
MAX_HEADER_BYTES = 16 * 1024

#: Upper bound on a request/response body (a big batch of pairs).
MAX_BODY_BYTES = 8 * 1024 * 1024


class HTTPProtocolError(ReproError):
    """The peer sent bytes that do not frame as HTTP/1.1."""


_REASONS = {status.value: status.phrase for status in HTTPStatus}

#: Query-parameter values read as "true", compared lowercased.
TRUTHY = frozenset({"1", "true", "yes", "on"})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should survive this exchange."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def flag(self, name: str) -> bool:
        """Whether query parameter ``name`` is one of :data:`TRUTHY`."""
        return self.params.get(name, "").lower() in TRUTHY

    def json(self) -> object:
        """The body decoded as JSON (``{}`` when empty).

        Strict about numbers: ``NaN``, ``Infinity`` and literals that
        overflow a float are not JSON, so they are rejected here rather
        than reaching a handler as non-finite floats.
        """
        if not self.body:
            return {}
        try:
            return json.loads(
                self.body,
                parse_constant=_reject_constant,
                parse_float=_finite_float,
            )
        except ValueError as exc:
            raise HTTPProtocolError(f"request body is not JSON: {exc}") from exc


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _parse_params(raw_query: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for part in raw_query.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        params[unquote_plus(key)] = unquote_plus(value)
    return params


def parse_query_head(head: bytes):
    """Byte-level parse of the hot ``GET /query?source=S&target=T`` head.

    Returns ``(source, target, keep_alive, request_id, traceparent)``
    straight off the head bytes — no header dict, no :class:`Request`
    — or ``None`` for anything unusual (other parameter order, extra
    parameters, percent-encoding, a body, an odd ``Connection``
    header), which then takes :func:`parse_request`; behaviour is
    identical either way.  ``keep_alive`` follows
    :attr:`Request.keep_alive`; the two header values are ``None``
    when absent.
    """
    if not head.startswith(b"GET /query?source="):
        return None
    lower = head.lower()
    end = head.find(b" HTTP/", 18)
    if end < 0 or b"content-" in lower:
        return None
    src, sep, tgt = head[18:end].partition(b"&")
    if not sep or not tgt.startswith(b"target="):
        return None
    try:
        source, target = int(src), int(tgt[7:])
    except ValueError:
        return None
    # Request.keep_alive's rule; an unusual Connection header (a
    # second one, odd spacing) takes the full parser instead.
    mark = lower.find(b"connection")
    connection = ""
    if mark >= 0:
        if (
            lower[mark - 2 : mark] != b"\r\n"
            or lower[mark + 10 : mark + 11] != b":"
            or lower.find(b"connection", mark + 10) >= 0
        ):
            return None
        stop = lower.index(b"\r", mark)
        connection = lower[mark + 11 : stop].decode("latin-1").strip()
    if head[end + 1 : head.index(b"\r", end)] == b"HTTP/1.0":
        keep_alive = connection == "keep-alive"
    else:
        keep_alive = connection != "close"
    rid = traceparent = None
    mark = lower.find(b"x-request-id:")
    if mark >= 0:
        stop = head.index(b"\r", mark)
        rid = head[mark + 13 : stop].strip().decode("latin-1")
    mark = lower.find(b"traceparent:")
    if mark >= 0:
        stop = head.index(b"\r", mark)
        traceparent = head[mark + 12 : stop].strip().decode("latin-1")
    return source, target, keep_alive, rid, traceparent


async def read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The raw head (request/status line + headers) of one message.

    One ``readuntil`` instead of a ``readline`` per header keeps the
    await count — and the per-request event-loop cost — constant.
    Returns ``None`` on a clean EOF before any byte.
    """
    try:
        return await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HTTPProtocolError("connection closed mid-head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HTTPProtocolError("header section too large") from exc


def _parse_headers(lines: Sequence[bytes]) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(b":")
        if not sep:
            raise HTTPProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower().decode("latin-1")] = (
            value.strip().decode("latin-1")
        )
    return headers


def body_length(headers: Dict[str, str]) -> int:
    """The message's ``Content-Length`` (0 when absent), range-checked."""
    raw_length = headers.get("content-length")
    if raw_length is None:
        return 0
    try:
        length = int(raw_length)
    except ValueError:
        raise HTTPProtocolError(
            f"bad Content-Length {raw_length!r}"
        ) from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HTTPProtocolError(f"Content-Length {length} out of range")
    return length


async def _read_body(
    reader: asyncio.StreamReader, headers: Dict[str, str]
) -> bytes:
    length = body_length(headers)
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise HTTPProtocolError("connection closed mid-body") from exc


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request; ``None`` on a clean EOF between requests."""
    head = await read_head(reader)
    if head is None:
        return None
    return await parse_request(head, reader)


def parse_head(head: bytes) -> Request:
    """Parse a request head (request line + headers); the body, if
    :func:`body_length` announces one, is the caller's to attach."""
    if len(head) > MAX_HEADER_BYTES:
        raise HTTPProtocolError("header section too large")
    lines = head.split(b"\r\n")
    fields = lines[0].decode("latin-1").split()
    if len(fields) != 3 or not fields[2].startswith("HTTP/"):
        raise HTTPProtocolError(f"malformed request line {lines[0]!r}")
    method, target, version = fields
    path, _, raw_query = target.partition("?")
    return Request(
        method=method.upper(),
        path=path,
        params=_parse_params(raw_query),
        headers=_parse_headers(lines[1:]),
        version=version,
    )


async def parse_request(
    head: bytes, reader: asyncio.StreamReader
) -> Request:
    """Parse an already-read head (and its body) into a Request."""
    request = parse_head(head)
    request.body = await _read_body(reader, request.headers)
    return request


def response_bytes(
    status: int,
    payload: object,
    *,
    keep_alive: bool = True,
    extra_headers: Sequence[Tuple[str, str]] = (),
) -> bytes:
    """Serialize one JSON response, ready to write to the transport.

    ``payload`` may already be JSON-encoded ``bytes`` (the hot answer
    path pre-serializes) — anything else goes through ``json.dumps``.
    A ``Content-Type`` entry in ``extra_headers`` replaces the JSON
    default (the Prometheus ``/metrics`` representation is text).
    """
    body = (
        payload
        if type(payload) is bytes
        else json.dumps(payload, separators=(",", ":")).encode()
    )
    content_type = "application/json"
    plain_headers = extra_headers
    if extra_headers and any(
        name.lower() == "content-type" for name, _ in extra_headers
    ):
        plain_headers = []
        for name, value in extra_headers:
            if name.lower() == "content-type":
                content_type = value
            else:
                plain_headers.append((name, value))
    head = (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    if plain_headers:
        head += "".join(
            f"{name}: {value}\r\n" for name, value in plain_headers
        )
    return (head + "\r\n").encode("latin-1") + body


def _parse_status(head: bytes) -> Tuple[int, Dict[str, str]]:
    lines = head.split(b"\r\n")
    fields = lines[0].split(None, 2)
    if len(fields) < 2 or not fields[0].startswith(b"HTTP/"):
        raise HTTPProtocolError(f"malformed status line {lines[0]!r}")
    try:
        status = int(fields[1])
    except ValueError:
        raise HTTPProtocolError(
            f"malformed status {fields[1]!r}"
        ) from None
    return status, _parse_headers(lines[1:])


def parse_response(raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
    """One whole response already in memory as ``(status, headers,
    raw body)``."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status, headers = _parse_status(head)
    return status, headers, body


async def read_raw_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Client side: one response as ``(status, headers, raw body)``."""
    head = await read_head(reader)
    if head is None:
        raise HTTPProtocolError("connection closed before status line")
    status, headers = _parse_status(head[:-4])
    return status, headers, await _read_body(reader, headers)


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], object]:
    """Client side: read one response as ``(status, headers, json)``."""
    status, headers, body = await read_raw_response(reader)
    payload = json.loads(body) if body else None
    return status, headers, payload
