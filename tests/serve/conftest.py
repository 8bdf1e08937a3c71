"""Shared helpers for the serving tests.

No external HTTP client and no pytest-asyncio: tests are synchronous
functions that drive one event loop per test via ``asyncio.run``, and
the client is a tiny asyncio-streams HTTP/1.1 reader that frames
responses by ``Content-Length`` (never read-to-EOF, which a forked
worker holding a stray socket dup could stall).
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.serve import GradingService, ServiceConfig
from repro.serve import pool


@contextlib.asynccontextmanager
async def running_service(**overrides):
    """A started :class:`GradingService` on an ephemeral port.

    Two workers with debug hooks on; tests override per-scenario.
    Always drained on exit.
    """
    kwargs = dict(port=0, workers=2, debug_hooks=True)
    kwargs.update(overrides)
    service = GradingService(ServiceConfig(**kwargs))
    await service.start()
    try:
        yield service
    finally:
        await service.drain()


async def http_call(
    host,
    port,
    method,
    path,
    body=None,
    raw_body=None,
    headers=None,
    keep_alive=False,
):
    """One request, one response: ``(status, headers, body_bytes)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await http_exchange(
            reader, writer, method, path,
            body=body, raw_body=raw_body, headers=headers,
            keep_alive=keep_alive,
        )
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()


async def http_exchange(
    reader,
    writer,
    method,
    path,
    body=None,
    raw_body=None,
    headers=None,
    keep_alive=True,
):
    """Send one request on an open connection and read its response."""
    payload = (
        raw_body
        if raw_body is not None
        else b"" if body is None else json.dumps(body).encode()
    )
    lines = [
        f"{method} {path} HTTP/1.1",
        "Host: test",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    response_headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        response_headers[name.strip().lower()] = value.strip()
    length = int(response_headers.get("content-length", "0"))
    raw = await reader.readexactly(length) if length else b""
    return status, response_headers, raw


async def grade_call(service, assignment, body):
    """POST a grade request; returns ``(status, decoded_json)``."""
    status, _, raw = await http_call(
        service.config.host, service.port,
        "POST", f"/assignments/{assignment}/grade", body=body,
    )
    return status, json.loads(raw)


@pytest.fixture(scope="session")
def good_source(assignment1):
    return assignment1.reference_solutions[0]


@pytest.fixture
def short_grace(monkeypatch):
    """Shrink the hard-kill grace so deadline tests finish quickly."""
    monkeypatch.setattr(pool, "KILL_GRACE_SECONDS", 0.1)
