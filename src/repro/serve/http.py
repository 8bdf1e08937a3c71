"""Hand-rolled HTTP/1.1 over asyncio streams.

The grading service deliberately depends on nothing outside the
standard library, so this module implements the small slice of
HTTP/1.1 it needs: request-line + header parsing with hard size
limits, ``Content-Length`` bodies (chunked uploads are refused with
501), keep-alive connection reuse, and response encoding.  Anything
malformed maps to an :class:`HttpError` carrying the status code the
connection handler should answer with — parsing never crashes the
connection task.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

#: Hard limits keeping one abusive client from ballooning server memory.
MAX_REQUEST_LINE = 8192
MAX_HEADER_COUNT = 64
MAX_HEADER_LINE = 8192
MAX_BODY_BYTES = 1 << 20  # 1 MiB of Java source is a *very* long lab

REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request that must be answered with an error status."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class HttpRequest:
    """One parsed request (headers lower-cased, body fully read)."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True

    def json(self) -> dict:
        """The body as a JSON object, or 400."""
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder's stack
            raise HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        return payload


@dataclass
class HttpResponse:
    """One response; :meth:`encode` produces the bytes on the wire."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls, payload: dict, status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> "HttpResponse":
        return cls(
            status=status,
            body=(json.dumps(payload) + "\n").encode("utf-8"),
            content_type="application/json",
            headers=dict(headers or {}),
        )

    @classmethod
    def text(
        cls, content: str, status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> "HttpResponse":
        return cls(
            status=status,
            body=content.encode("utf-8"),
            content_type="text/plain; charset=utf-8",
            headers=dict(headers or {}),
        )

    def encode(self, keep_alive: bool) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    """One CRLF-terminated line, bounded by ``limit`` bytes."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "header line too long") from exc
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError from exc
        raise HttpError(400, "truncated request") from exc
    if len(line) > limit:
        raise HttpError(431, "header line too long")
    return line.rstrip(b"\r\n")


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request; ``None`` on clean EOF between requests.

    Raises :class:`HttpError` for anything malformed or over-limit; the
    connection handler converts that into an error response and closes.
    """
    try:
        request_line = await _read_line(reader, MAX_REQUEST_LINE)
    except EOFError:
        return None
    if not request_line:
        # tolerate a stray blank line between pipelined requests
        try:
            request_line = await _read_line(reader, MAX_REQUEST_LINE)
        except EOFError:
            return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol {version}")

    headers: dict[str, str] = {}
    while True:
        try:
            line = await _read_line(reader, MAX_HEADER_LINE)
        except EOFError as exc:
            raise HttpError(400, "truncated headers") from exc
        if not line:
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(431, "too many headers")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked uploads are not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise HttpError(400, f"bad Content-Length: {length_text!r}") from exc
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "truncated body") from exc

    split = urlsplit(target)
    connection = headers.get("connection", "").lower()
    keep_alive = (
        connection != "close"
        if version == "HTTP/1.1"
        else connection == "keep-alive"
    )
    return HttpRequest(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )
