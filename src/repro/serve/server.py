"""The asyncio grading service: admission → workers → report.

:class:`GradingService` is the long-running front-end the ROADMAP's
"serves heavy traffic" goal calls for.  One request's life:

1. ``POST /assignments/{name}/grade`` arrives; body ``{"source": ...}``.
2. Validation (404 unknown assignment, 400 bad body, 413 oversized).
3. The per-assignment **result cache** answers duplicates instantly —
   the same content-keyed :class:`~repro.core.pipeline.ResultCache` the
   batch pipeline uses, shared across all requests for the lifetime of
   the service.  Cache hits bypass admission entirely: replay costs no
   worker time.
4. The assignment's **circuit breaker** may refuse (503 + Retry-After)
   while the assignment is quarantined for repeated timeouts.
5. **Admission control** bounds admitted-but-unfinished requests; the
   excess gets 429 + Retry-After instead of unbounded queueing.
6. A **worker** grades under a per-request deadline — cooperative
   first, hard kill as backstop — and the report returns as JSON
   (200 for ok/rejected/parse-error, 504 for timeout, 500 for
   internal error), byte-identical to what the offline
   :class:`~repro.core.pipeline.BatchGrader` produces for the same
   source.

``GET /healthz`` (liveness), ``/readyz`` (admission state),
``/metrics`` (JSON, or Prometheus text with ``?format=prometheus``)
round out the operational surface.  ``SIGTERM``/``SIGINT`` trigger a
graceful drain: readiness flips, new grades are refused, in-flight
work finishes, workers shut down.
"""

from __future__ import annotations

import asyncio
import math
import os
import re
import signal
import time
from dataclasses import dataclass, field

from repro.core.pipeline import ResultCache, TieredCache, source_key
from repro.core.profile import GradingProfile
from repro.core.report import GradingReport
from repro.errors import KnowledgeBaseError
from repro.kb import all_assignment_names, get_assignment
from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerRegistry
from repro.serve.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    read_request,
)
from repro.serve.metrics import ServiceMetrics, render_prometheus
from repro.serve.pool import GradingWorkerPool

_GRADE_PATH = re.compile(r"^/assignments/([^/]+)/grade$")

#: HTTP status per report status; anything graded is a 200 — a student
#: submission that fails to parse is a *successful* grading.
_REPORT_HTTP_STATUS = {"timeout": 504, "error": 500}


@dataclass
class ServiceConfig:
    """Tunables for one :class:`GradingService` instance."""

    host: str = "127.0.0.1"
    port: int = 8652  # 0 = ephemeral (tests / benchmarks)
    workers: int = field(
        default_factory=lambda: max(2, min(4, os.cpu_count() or 2))
    )
    #: Admitted-but-unfinished requests beyond the worker slots; the
    #: admission capacity is ``workers + queue_capacity``.
    queue_capacity: int = 64
    default_deadline_seconds: float = 10.0
    max_deadline_seconds: float = 30.0
    cache_size: int = 8192
    #: Directory for the persistent cross-process result cache
    #: (:class:`~repro.core.storage.ResultStore`); ``None`` disables it.
    #: A restarted service — or a batch run pointed at the same
    #: directory — replays previously graded submissions from disk.
    cache_dir: str | os.PathLike | None = None
    #: Grade via submission clustering (:mod:`repro.cluster`): each
    #: worker buckets structurally duplicate submissions and
    #: specializes one representative's report instead of re-grading.
    #: Output-preserving; worth enabling for duplicate-heavy cohorts,
    #: a no-op overhead (one extra lex per request) for diverse ones.
    #: With ``cache_dir`` set, bucket records persist there.
    cluster: bool = False
    #: Grade with the repair channel (:mod:`repro.repair`): rejected
    #: submissions additionally carry corpus-backed, functionally
    #: verified fix suggestions.  When both ``cluster`` and ``repair``
    #: are on, workers fall back to full grading per submission —
    #: suggestions are member-specific, so representative replay is
    #: unsound.  Stored reports scope under the repair fingerprint, so
    #: a plain service sharing the cache directory keeps its
    #: byte-identical output.
    repair: bool = False
    #: Grade with the performance analyzer (:mod:`repro.analysis.perf`):
    #: reports additionally carry loop-complexity findings, escalated
    #: when the dynamic cost-shape fitter confirms them.  Cluster-mode
    #: workers fall back to full grading per submission (perf findings
    #: are member-specific).  Stored reports scope under the perf
    #: fingerprint, so a plain service sharing the cache directory
    #: keeps its byte-identical output.
    perf: bool = False
    drain_timeout_seconds: float = 30.0
    #: Honor the ``debug_sleep_seconds`` request field (load tests use
    #: it to simulate wedged submissions).  Never enable in production.
    debug_hooks: bool = False


class GradingService:
    """Serves grade requests over HTTP with bounded latency and load."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(
            capacity=self.config.workers + self.config.queue_capacity
        )
        self.breakers = BreakerRegistry()
        self.profile = GradingProfile(
            cluster=self.config.cluster,
            repair=self.config.repair,
            perf=self.config.perf,
        )
        self.pool = GradingWorkerPool(
            workers=self.config.workers,
            store_root=(
                str(self.config.cache_dir)
                if self.config.cache_dir is not None
                else None
            ),
            profile=self.profile,
        )
        self._tiers: dict[str, TieredCache] = {}
        # lazily-computed KB lint report (the KB is immutable for the
        # lifetime of a service process, so one run is enough)
        self._lint_payload: dict | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._busy = 0
        self._draining = False
        self._drain_requested = asyncio.Event()
        self.port = self.config.port

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Start workers and begin accepting connections."""
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> int:
        """Run until a drain is requested; returns a process exit code."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_drain)
        await self._drain_requested.wait()
        clean = await self.drain()
        return 0 if clean else 1

    def request_drain(self) -> None:
        """Signal-safe drain trigger (idempotent)."""
        self._drain_requested.set()

    async def drain(self) -> bool:
        """Graceful shutdown: finish in-flight work, refuse the rest.

        Returns ``True`` when everything in flight completed within
        ``drain_timeout_seconds``.
        """
        self._draining = True
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
        expiry = time.monotonic() + self.config.drain_timeout_seconds
        while (
            (not self.admission.idle or self._busy > 0)
            and time.monotonic() < expiry
        ):
            await asyncio.sleep(0.02)
        clean = self.admission.idle and self._busy == 0
        await self.pool.stop()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        return clean

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    self.metrics.increment("serve.bad_requests")
                    await self._write(writer, _error_response(error), False)
                    return
                if request is None:
                    return
                self._busy += 1
                try:
                    response = await self._safe_dispatch(request)
                    keep_alive = request.keep_alive and not self._draining
                    await self._write(writer, response, keep_alive)
                finally:
                    self._busy -= 1
                if not keep_alive:
                    return
        except (
            ConnectionResetError, BrokenPipeError, asyncio.CancelledError
        ):
            pass  # client went away or the drain is closing us
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter,
        response: HttpResponse,
        keep_alive: bool,
    ) -> None:
        writer.write(response.encode(keep_alive))
        await writer.drain()

    async def _safe_dispatch(self, request: HttpRequest) -> HttpResponse:
        try:
            return await self._dispatch(request)
        except HttpError as error:
            if error.status < 500:
                self.metrics.increment("serve.bad_requests")
            else:
                self.metrics.increment("serve.internal_errors")
            return _error_response(error)
        except Exception as exc:  # noqa: BLE001 - never kill the connection
            self.metrics.increment("serve.internal_errors")
            return HttpResponse.json(
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                status=500,
            )

    # -- routing ---------------------------------------------------------

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        self.metrics.increment("serve.requests_total")
        path = request.path
        match = _GRADE_PATH.match(path)
        if match is not None:
            if request.method != "POST":
                raise HttpError(405, "grading requires POST")
            return await self._grade(request, match.group(1))
        if request.method != "GET":
            raise HttpError(405, f"unsupported method {request.method}")
        if path == "/healthz":
            return HttpResponse.text("ok\n")
        if path == "/readyz":
            if self._draining:
                return HttpResponse.text("draining\n", status=503)
            return HttpResponse.text("ready\n")
        if path == "/metrics":
            return self._metrics_response(request)
        if path == "/assignments":
            return HttpResponse.json(
                {"assignments": list(all_assignment_names())}
            )
        if path == "/lint":
            return self._lint_response()
        if path == "/":
            return HttpResponse.json({
                "service": "repro-grading",
                "endpoints": [
                    "POST /assignments/{name}/grade",
                    "GET /assignments",
                    "GET /healthz",
                    "GET /readyz",
                    "GET /lint",
                    "GET /metrics",
                ],
            })
        self.metrics.increment("serve.not_found")
        raise HttpError(404, f"no route for {path}")

    def _lint_response(self) -> HttpResponse:
        """KB lint report for operators (``repro lint-kb`` over HTTP)."""
        if self._lint_payload is None:
            from repro.analysis import lint_knowledge_base

            self._lint_payload = lint_knowledge_base().to_dict()
        status = 200 if self._lint_payload["ok"] else 503
        return HttpResponse.json(self._lint_payload, status=status)

    def _metrics_response(self, request: HttpRequest) -> HttpResponse:
        self.metrics.counters["serve.worker_respawns"] = self.pool.respawns
        snapshot = self.metrics.snapshot(
            queue_depth=self.admission.pending,
            queue_capacity=self.admission.capacity,
            workers=self.config.workers,
            breakers=self.breakers.snapshot(),
            draining=self._draining,
            store=self._store_info(),
        )
        if request.query.get("format") == "prometheus":
            return HttpResponse.text(render_prometheus(snapshot))
        return HttpResponse.json(snapshot)

    # -- grading ---------------------------------------------------------

    def _tier(self, assignment_name: str) -> TieredCache:
        """Per-assignment memory cache, backed by the store when configured."""
        tiers = self._tiers.get(assignment_name)
        if tiers is None:
            store = (
                self.profile.open_store(
                    self.config.cache_dir, get_assignment(assignment_name)
                )
                if self.config.cache_dir is not None
                else None
            )
            tiers = TieredCache(ResultCache(self.config.cache_size), store)
            self._tiers[assignment_name] = tiers
        return tiers

    def _store_info(self) -> dict:
        """``/metrics`` store section: whether this service has a store."""
        if self.config.cache_dir is None:
            return {"enabled": False, "backend": "none"}
        return {"enabled": True, "backend": "sqlite"}

    async def _grade(
        self, request: HttpRequest, assignment_name: str
    ) -> HttpResponse:
        self.metrics.increment("serve.grade_requests")
        started = time.perf_counter()
        if self._draining:
            self.metrics.increment("serve.rejected_draining")
            return HttpResponse.json(
                {"error": "service is draining"},
                status=503,
                headers={"Retry-After": "5"},
            )
        payload = request.json()
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise HttpError(
                400, "body must include a non-empty 'source' string"
            )
        label = payload.get("label")
        if label is not None and not isinstance(label, str):
            raise HttpError(400, "'label' must be a string")
        try:
            get_assignment(assignment_name)
        except KnowledgeBaseError as exc:
            self.metrics.increment("serve.not_found")
            raise HttpError(
                404, f"unknown assignment {assignment_name!r}"
            ) from exc
        deadline_seconds = self._deadline_from(payload)
        hang_seconds = self._debug_sleep_from(payload)

        # replayed reports — from memory or the persistent store — cost
        # no worker time: cache hits bypass both the breaker and
        # admission
        tiers = self._tier(assignment_name)
        key = source_key(source)
        cached = tiers.get(key, self.metrics.pipeline)
        if cached is not None:
            self.metrics.increment("serve.cache_hits")
            self.metrics.increment("serve.completed")
            self.metrics.pipeline.record_submission(cache_hit=True)
            elapsed = time.perf_counter() - started
            self.metrics.latency.observe(elapsed)
            return self._report_response(cached, label, True, elapsed)

        breaker = self.breakers.get(assignment_name)
        if not breaker.allow():
            self.metrics.increment("serve.rejected_breaker_open")
            return HttpResponse.json(
                {
                    "error": (
                        f"assignment {assignment_name!r} is quarantined "
                        "after repeated grading timeouts"
                    ),
                    "breaker": breaker.snapshot(),
                },
                status=503,
                headers={
                    "Retry-After": str(breaker.retry_after_seconds())
                },
            )
        if not self.admission.try_admit():
            self.metrics.increment("serve.rejected_queue_full")
            retry = self.admission.retry_after_seconds(self.config.workers)
            return HttpResponse.json(
                {
                    "error": "grading queue is full",
                    "queue_depth": self.admission.pending,
                    "queue_capacity": self.admission.capacity,
                },
                status=429,
                headers={"Retry-After": str(retry)},
            )
        self.metrics.increment("serve.admitted")
        try:
            result = await self.pool.grade(
                assignment_name, source, deadline_seconds, hang_seconds,
            )
        finally:
            self.admission.release(time.perf_counter() - started)

        report = result.report
        breaker.record(failure=report.status == "timeout")
        if result.collector is not None:
            self.metrics.pipeline.merge_phases(result.collector)
        self.metrics.pipeline.record_submission(
            seconds=result.seconds,
            parse_error=report.status == "parse-error",
            timeout=report.status == "timeout",
            error=report.status == "error",
        )
        tiers.put(key, report, self.metrics.pipeline)
        if result.killed:
            self.metrics.increment("serve.deadline_kills")
        elif report.status == "timeout":
            self.metrics.increment("serve.deadline_timeouts")
        self.metrics.increment("serve.completed")
        elapsed = time.perf_counter() - started
        self.metrics.latency.observe(elapsed)
        return self._report_response(report, label, False, elapsed)

    def _deadline_from(self, payload: dict) -> float:
        raw = payload.get(
            "deadline_seconds", self.config.default_deadline_seconds
        )
        if not _finite_number(raw) or raw <= 0:
            raise HttpError(400, "'deadline_seconds' must be finite and > 0")
        return min(float(raw), self.config.max_deadline_seconds)

    def _debug_sleep_from(self, payload: dict) -> float:
        raw = payload.get("debug_sleep_seconds", 0)
        if not _finite_number(raw) or raw < 0:
            raise HttpError(400, "'debug_sleep_seconds' must be finite, >= 0")
        if raw and not self.config.debug_hooks:
            raise HttpError(
                400, "'debug_sleep_seconds' requires --debug-hooks"
            )
        return float(raw)

    @staticmethod
    def _report_response(
        report: GradingReport,
        label: str | None,
        from_cache: bool,
        elapsed_seconds: float,
    ) -> HttpResponse:
        return HttpResponse.json(
            {
                "label": label,
                "from_cache": from_cache,
                "latency_ms": round(1000 * elapsed_seconds, 3),
                "report": report.to_dict(),
            },
            status=_REPORT_HTTP_STATUS.get(report.status, 200),
        )


def _finite_number(raw: object) -> bool:
    """Whether a JSON field is a finite number (``json`` also accepts
    ``NaN``, ``Infinity`` and integers too large for a float)."""
    try:
        return not isinstance(raw, bool) and math.isfinite(raw)
    except (TypeError, OverflowError):
        return False


def _error_response(error: HttpError) -> HttpResponse:
    return HttpResponse.json(
        {"error": error.detail}, status=error.status
    )
