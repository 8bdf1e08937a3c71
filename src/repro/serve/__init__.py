"""``repro.serve``: the always-on asyncio grading service.

Dependency-free (stdlib only) HTTP front-end over the grading engine:
bounded admission with explicit backpressure, a process-backed worker
pool with per-request deadlines and hard kills, per-assignment circuit
breakers, and an operational surface (``/healthz``, ``/readyz``,
``/metrics``) with graceful drain.  See ``docs/SERVING.md``.

Usage::

    from repro.serve import GradingService, ServiceConfig
    service = GradingService(ServiceConfig(port=8652, workers=4))
    exit_code = asyncio.run(service.serve_forever())

or from the shell: ``repro serve --port 8652 --workers 4``.
"""

from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerRegistry, BreakerState, CircuitBreaker
from repro.serve.http import HttpError, HttpRequest, HttpResponse
from repro.serve.metrics import (
    LatencyReservoir,
    ServiceMetrics,
    render_prometheus,
)
from repro.serve.pool import GradingWorkerPool, PoolResult
from repro.serve.server import GradingService, ServiceConfig

__all__ = [
    "AdmissionController",
    "BreakerRegistry",
    "BreakerState",
    "CircuitBreaker",
    "GradingService",
    "GradingWorkerPool",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "LatencyReservoir",
    "PoolResult",
    "ServiceConfig",
    "ServiceMetrics",
    "render_prometheus",
]
