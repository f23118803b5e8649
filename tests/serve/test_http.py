"""HTTP/1.1 framing: request/response round-trips over asyncio pipes."""

import asyncio
import json

import pytest

from repro.serve.http import (
    HTTPProtocolError,
    Request,
    parse_head,
    parse_query_head,
    parse_request,
    parse_response,
    read_request,
    read_response,
    response_bytes,
)


def _feed(payload: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(payload)
    reader.feed_eof()
    return reader


def _run(coro):
    return asyncio.run(coro)


def test_get_request_round_trip():
    async def scenario():
        reader = _feed(
            b"GET /query?source=3&target=9 HTTP/1.1\r\n"
            b"Host: localhost\r\n\r\n"
        )
        return await read_request(reader)

    request = _run(scenario())
    assert request.method == "GET"
    assert request.path == "/query"
    assert request.params == {"source": "3", "target": "9"}
    assert request.keep_alive


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("true", True), ("True", True), ("YES", True),
     ("on", True), ("On", True), ("0", False), ("false", False),
     ("", False), ("no", False)],
)
def test_flag_is_case_insensitive(value, expected):
    assert Request("POST", "/admin/trace", {"clear": value}).flag(
        "clear"
    ) is expected
    assert not Request("POST", "/admin/trace").flag("clear")


def test_post_request_with_body():
    body = json.dumps({"source": 1, "target": 2}).encode()
    async def scenario():
        reader = _feed(
            b"POST /query HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        return await read_request(reader)

    request = _run(scenario())
    assert request.method == "POST"
    assert request.json() == {"source": 1, "target": 2}


def test_clean_eof_returns_none():
    async def scenario():
        return await read_request(_feed(b""))

    assert _run(scenario()) is None


def test_mid_head_eof_raises():
    async def scenario():
        return await read_request(_feed(b"GET /query HT"))

    with pytest.raises(HTTPProtocolError):
        _run(scenario())


@pytest.mark.parametrize(
    "raw",
    [
        b"NONSENSE\r\n\r\n",
        b"GET /x HTTP/1.1\r\nBroken-header-no-colon\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n",
    ],
)
def test_malformed_requests_raise(raw):
    async def scenario():
        return await read_request(_feed(raw))

    with pytest.raises(HTTPProtocolError):
        _run(scenario())


def test_http10_defaults_to_close():
    async def scenario():
        return await parse_request(
            b"GET / HTTP/1.0\r\n\r\n", _feed(b"")
        )

    assert not _run(scenario()).keep_alive


def test_connection_close_honoured():
    async def scenario():
        return await read_request(
            _feed(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        )

    assert not _run(scenario()).keep_alive


def test_response_round_trip():
    payload = {"distance": 4, "count": 2}
    raw = response_bytes(200, payload, keep_alive=True)

    async def scenario():
        return await read_response(_feed(raw))

    status, headers, decoded = _run(scenario())
    assert status == 200
    assert headers["connection"] == "keep-alive"
    assert decoded == payload


def test_response_bytes_passthrough_body():
    """Pre-serialized bytes payloads are written verbatim."""
    body = b'{"source":1,"target":2,"distance":3,"count":4}'
    raw = response_bytes(200, body, keep_alive=False)

    async def scenario():
        return await read_response(_feed(raw))

    status, headers, decoded = _run(scenario())
    assert status == 200
    assert headers["connection"] == "close"
    assert decoded == json.loads(body)


def test_response_extra_headers():
    raw = response_bytes(
        503, {"error": "overloaded"}, extra_headers=(("Retry-After", "1"),)
    )

    async def scenario():
        return await read_response(_feed(raw))

    status, headers, _ = _run(scenario())
    assert status == 503
    assert headers["retry-after"] == "1"


@pytest.mark.parametrize(
    "head, expected",
    [
        (
            b"GET /query?source=3&target=9 HTTP/1.1\r\nHost: x\r\n\r\n",
            (3, 9, True, None, None),
        ),
        (
            b"GET /query?source=3&target=9 HTTP/1.1\r\n"
            b"X-Request-Id: abc\r\ntraceparent: 00-t-s-01\r\n"
            b"Connection: close\r\n\r\n",
            (3, 9, False, "abc", "00-t-s-01"),
        ),
        (
            b"GET /query?source=3&target=9 HTTP/1.0\r\n\r\n",
            (3, 9, False, None, None),
        ),
        (
            b"GET /query?source=3&target=9 HTTP/1.0\r\n"
            b"Connection: keep-alive\r\n\r\n",
            (3, 9, True, None, None),
        ),
        # Unusual shapes take the full parser.
        (b"GET /query?target=9&source=3 HTTP/1.1\r\n\r\n", None),
        (b"GET /query?source=3&target=9&explain=1 HTTP/1.1\r\n\r\n", None),
        (b"GET /query?source=%33&target=9 HTTP/1.1\r\n\r\n", None),
        (
            b"GET /query?source=3&target=9 HTTP/1.1\r\n"
            b"Content-Length: 0\r\n\r\n",
            None,
        ),
        (
            b"GET /query?source=3&target=9 HTTP/1.1\r\n"
            b"Connection: close\r\nConnection: keep-alive\r\n\r\n",
            None,
        ),
    ],
)
def test_parse_query_head(head, expected):
    assert parse_query_head(head) == expected
    if expected is not None:
        assert parse_head(head).keep_alive == expected[2]


def test_parse_response_splits_a_whole_message():
    raw = response_bytes(
        404, {"error": "nope"}, extra_headers=(("X-Request-Id", "r1"),)
    )
    status, headers, body = parse_response(raw)
    assert status == 404
    assert headers["x-request-id"] == "r1"
    assert json.loads(body) == {"error": "nope"}
