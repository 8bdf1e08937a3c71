"""Unit tests for the hand-rolled HTTP layer (repro.serve.http)."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.http import (
    MAX_BODY_BYTES,
    HttpError,
    HttpRequest,
    HttpResponse,
    read_request,
)


def parse(raw: bytes):
    """Feed raw bytes to read_request through a fresh StreamReader."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestReadRequest:
    def test_simple_get(self):
        request = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/healthz"
        assert request.headers["host"] == "x"
        assert request.body == b""
        assert request.keep_alive  # HTTP/1.1 default

    def test_query_string_and_percent_decoding(self):
        request = parse(
            b"GET /metrics?format=prometheus&x=a%20b HTTP/1.1\r\n\r\n"
        )
        assert request.path == "/metrics"
        assert request.query == {"format": "prometheus", "x": "a b"}

    def test_post_body_read_exactly(self):
        request = parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )
        assert request.method == "POST"
        assert request.body == b"abcd"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_connection_close_disables_keep_alive(self):
        request = parse(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        assert not parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive
        request = parse(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        )
        assert request.keep_alive

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET /x\r\n\r\n")
        assert excinfo.value.status == 400

    def test_unsupported_protocol_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTTP/2.0\r\n\r\n")
        assert excinfo.value.status == 400

    def test_chunked_upload_is_501(self):
        with pytest.raises(HttpError) as excinfo:
            parse(
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert excinfo.value.status == 501

    def test_bad_content_length_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert excinfo.value.status == 400

    def test_negative_content_length_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
        assert excinfo.value.status == 400

    def test_body_at_the_limit_is_read(self):
        head = f"POST /x HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n"
        request = parse(head.encode() + b"a" * MAX_BODY_BYTES)
        assert len(request.body) == MAX_BODY_BYTES

    def test_oversized_body_is_413(self):
        # no body follows the headers: reading it would fail as a
        # truncated body (400), so a 413 proves the check came first
        head = f"POST /x HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        with pytest.raises(HttpError) as excinfo:
            parse(head.encode())
        assert excinfo.value.status == 413

    def test_truncated_body_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert excinfo.value.status == 400

    def test_too_many_headers_is_431(self):
        headers = b"".join(
            b"X-H%d: v\r\n" % i for i in range(65)
        )
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTTP/1.1\r\n" + headers + b"\r\n")
        assert excinfo.value.status == 431

    def test_overlong_header_line_is_431(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 9000 + b"\r\n\r\n")
        assert excinfo.value.status == 431

    def test_header_without_colon_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET / HTTP/1.1\r\nnot-a-header\r\n\r\n")
        assert excinfo.value.status == 400


class TestHttpRequestJson:
    def test_decodes_object(self):
        request = HttpRequest("POST", "/", body=b'{"a": 1}')
        assert request.json() == {"a": 1}

    def test_invalid_json_is_400(self):
        for body in (
            b"{nope",
            # nested past the decoder's recursion limit, yet well under
            # MAX_BODY_BYTES
            b"[" * 100_000,
        ):
            with pytest.raises(HttpError) as excinfo:
                HttpRequest("POST", "/", body=body).json()
            assert excinfo.value.status == 400

    def test_non_object_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            HttpRequest("POST", "/", body=b"[1, 2]").json()
        assert excinfo.value.status == 400


class TestHttpResponse:
    def test_encode_frames_the_body(self):
        wire = HttpResponse.json({"ok": True}).encode(keep_alive=True)
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Type: application/json" in head
        assert b"Connection: keep-alive" in head
        assert f"Content-Length: {len(body)}".encode() in head

    def test_close_connection_header(self):
        wire = HttpResponse.text("bye").encode(keep_alive=False)
        assert b"Connection: close" in wire

    def test_extra_headers_emitted(self):
        wire = HttpResponse.json(
            {}, status=429, headers={"Retry-After": "7"}
        ).encode(keep_alive=False)
        assert wire.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Retry-After: 7" in wire
