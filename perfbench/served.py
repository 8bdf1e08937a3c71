"""The served workload: ``repro serve`` in its own process, driven over HTTP.

The service runs as ``python -m repro.cli serve --workers 2`` in process
pool mode, exactly as an operator starts it.  One asyncio client drives
it over :data:`CONNECTIONS` keep-alive connections, in one of two ways.

:func:`saturate` (the timed run) sends closed-loop: each connection
sends its next request when the previous reply arrives.

:func:`open_loop_run` (the traced run) sends open-loop at
:data:`NOMINAL_RPS`: request ``i`` is due at ``t0 + i / rate`` whether or
not earlier ones have finished, like students submitting independently.
A request waits in the client until a connection is free, so a stalled
service shows as lateness, and every latency is timed from when the
request was due.  The rate is well below the knee of a 2-worker service
on a 2-CPU host (about 1,000 requests/s saturate it), so a full
collection of the service's cyclic garbage collector — a pause of tens
of milliseconds about once per thousand requests, growing with the
service's result cache — delays fewer than 1% of its requests.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import gc
import itertools
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time

WORKERS = 2
CONNECTIONS = 2
#: Offered rate (requests/s) of the traced run's open loop.
NOMINAL_RPS = 200

_PORT = re.compile(rb"http://[^:/]+:(\d+)")


# -- the server process --------------------------------------------------

class Server:
    """One ``repro serve`` process and its worker processes."""

    def __init__(self, root: str, env: dict, log_path: str):
        self.root = root
        self.env = env
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        log = open(self.log_path, "ab")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", str(WORKERS), "--pool-mode", "process"],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=log,
            )
        finally:
            log.close()
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else b""
        match = _PORT.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))

    def pids(self) -> list[int]:
        """The service process and its workers.

        Workers are forked from the pool's executor threads, so children
        are collected from every thread of the service process.
        """
        pid = self.process.pid
        pids = [pid]
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as children:
                    pids.extend(map(int, children.read().split()))
        except OSError:
            pass
        return pids

    def cpu_seconds(self) -> float:
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])
        return total / ticks

    def peak_rss_mb(self) -> float:
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                continue
        return total / 1024

    def stop(self) -> None:
        """SIGTERM (graceful drain, which stops the workers), then kill
        the service and its workers; always reaps the process."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                workers = self.pids()[1:]
                process.kill()
                process.wait()
                for pid in workers:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
        process.stdout.close()
        self.process = None


# -- the client ----------------------------------------------------------

def grade_request(assignment: str, source: str) -> bytes:
    body = json.dumps({"source": source}).encode("utf-8")
    head = (
        f"POST /assignments/{assignment}/grade HTTP/1.1\r\n"
        f"Host: localhost\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return head + body


class Connection:
    """One keep-alive HTTP/1.1 connection (reopened if the server closes)."""

    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None

    async def request(self, payload: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        self.writer.write(payload)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        body = await self.reader.readexactly(length)
        if close:
            await self.close()
        return status, body

    async def get(self, path: str) -> tuple[int, bytes]:
        return await self.request(
            f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


async def open_loop(connections: list[Connection], payloads: list[bytes],
                    rate: float) -> list[tuple]:
    """Send ``payloads`` at ``rate``/s; ``(due, sent, done, status, body)``."""
    queue: asyncio.Queue = asyncio.Queue()
    records: list[tuple] = [()] * len(payloads)

    async def sender(connection: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            sent = time.perf_counter()
            status, body = await connection.request(payloads[index])
            records[index] = (due, sent, time.perf_counter(), status, body)

    tasks = [asyncio.create_task(sender(c)) for c in connections]
    start = time.perf_counter() + 0.005
    try:
        for index in range(len(payloads)):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due))
    finally:
        for _ in tasks:
            queue.put_nowait(None)
        await asyncio.gather(*tasks)
    return records


async def warm(port: int, warmup: dict[str, list[str]]) -> None:
    """Grade every warm-up source, one at a time.

    The pool hands requests to its free workers in rotation, so
    ``2 * WORKERS`` sequential sources per assignment reach every worker
    twice and build each worker's engine for that assignment.
    """
    connection = Connection(port)
    try:
        for name, sources in warmup.items():
            for source in sources:
                status, _ = await connection.request(
                    grade_request(name, source)
                )
                if status != 200:
                    raise RuntimeError(f"warm-up request failed: {status}")
    finally:
        await connection.close()


async def _fetch_metrics(port: int) -> dict:
    connection = Connection(port)
    try:
        _, body = await connection.get("/metrics")
        return json.loads(body)
    finally:
        await connection.close()


async def closed_loop(connections: list[Connection], payloads: list[bytes],
                      seconds: float) -> list[tuple]:
    """Each connection sends the next payload as soon as its previous
    reply arrives, until ``seconds`` have passed; records as
    :func:`open_loop`'s, with a request due when it is sent."""
    records: list[tuple] = [()] * len(payloads)
    taken = itertools.count()
    stop = time.perf_counter() + seconds

    async def sender(connection: Connection) -> None:
        while time.perf_counter() < stop:
            index = next(taken)
            if index >= len(payloads):
                return
            sent = time.perf_counter()
            status, body = await connection.request(payloads[index])
            records[index] = (sent, sent, time.perf_counter(), status, body)

    await asyncio.gather(*(sender(c) for c in connections))
    return [record for record in records if record]


def _minus(after, before):
    """``after - before`` for the numbers of a ``/metrics`` snapshot,
    section by section; anything else is taken from ``after``."""
    if isinstance(after, dict):
        return {key: _minus(value, before.get(key, 0))
                for key, value in after.items()}
    if isinstance(after, (int, float)) and not isinstance(after, bool) \
            and isinstance(before, (int, float)):
        return after - before
    return after


async def drive(port: int, server: Server, send) -> dict:
    """Run ``send(connections)`` against the service; its records, and
    the service's CPU, peak RSS, and the ``serve`` and ``pipeline``
    counters of ``/metrics`` that the run itself added (warm-up
    excluded)."""
    before = await _fetch_metrics(port)
    connections = [Connection(port) for _ in range(CONNECTIONS)]
    # the client's own collector pauses would read as service latency
    gc.disable()
    try:
        cpu_start = server.cpu_seconds()
        records = await send(connections)
        cpu = server.cpu_seconds() - cpu_start
    finally:
        gc.enable()
        for connection in connections:
            await connection.close()
    after = await _fetch_metrics(port)
    return {"records": records, "cpu_s": cpu,
            "peak_rss_mb": server.peak_rss_mb(),
            "metrics": {section: _minus(after[section], before[section])
                        for section in ("serve", "pipeline")}}


@contextlib.contextmanager
def service(root: str, env: dict, log_path: str,
            warmup: dict[str, list[str]]):
    """A started and warmed service and its set-up seconds; stopped on
    exit."""
    server = Server(root, env, log_path)
    started = time.perf_counter()
    try:
        server.start()
        asyncio.run(warm(server.port, warmup))
        yield server, time.perf_counter() - started
    finally:
        server.stop()


def latencies_ms(records: list[tuple]) -> list[float]:
    """Each request's latency, timed from when it was due."""
    return [1000 * (done - due) for due, _, done, _, _ in records]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[rank]


def wall(records: list[tuple]) -> float:
    """Seconds from the first due time to the last reply."""
    return max(done for _, _, done, _, _ in records) - records[0][0]


def saturate(root: str, env: dict, log_path: str, payloads: list[bytes],
             warmup: dict[str, list[str]], seconds: float, setups: int
             ) -> dict:
    """Set the service up ``setups`` times; on the last, send ``payloads``
    closed-loop for ``seconds``.  The :func:`drive` result plus every
    set-up's seconds."""
    setup_times = []
    for attempt in range(setups):
        with service(root, env, log_path, warmup) as (server, setup_s):
            setup_times.append(setup_s)
            if attempt == setups - 1:
                result = asyncio.run(drive(
                    server.port, server,
                    functools.partial(closed_loop, payloads=payloads,
                                      seconds=seconds)))
    result["setup_times"] = setup_times
    return result


def open_loop_run(root: str, env: dict, log_path: str,
                  payloads: list[bytes], warmup: dict[str, list[str]]
                  ) -> dict:
    """Set the service up once and send every payload open-loop at
    :data:`NOMINAL_RPS`; the :func:`drive` result plus the set-up's
    seconds."""
    with service(root, env, log_path, warmup) as (server, setup_s):
        result = asyncio.run(drive(
            server.port, server,
            functools.partial(open_loop, payloads=payloads,
                              rate=NOMINAL_RPS)))
    result["setup_times"] = [setup_s]
    return result
