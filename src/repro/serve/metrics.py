"""Service-level metrics: ``serve.*`` counters + latency reservoir.

The batch pipeline already has :class:`~repro.core.metrics.PipelineStats`
for *grading* work; the service adds the request-level view around it —
admission decisions, queue depth, breaker trips, deadline kills, and a
latency distribution.  :class:`ServiceMetrics` owns both: worker results
fold their :class:`~repro.instrumentation.PhaseCollector` into one
service-lifetime ``PipelineStats`` (the same aggregation the batch
pipeline uses across process workers), and every finished request lands
in a bounded :class:`LatencyReservoir` for p50/p95/p99 readouts.

``/metrics`` serves :meth:`ServiceMetrics.snapshot` as JSON, or the
flat Prometheus-style text exposition from :func:`render_prometheus`
with ``?format=prometheus``.
"""

from __future__ import annotations

from repro.core.metrics import PipelineStats

#: Canonical ``serve.*`` counter names, in rough request-lifecycle
#: order.  The snapshot always materializes all of them (zero when
#: never incremented) so dashboards see a stable schema.
SERVE_COUNTERS = (
    "serve.requests_total",
    "serve.grade_requests",
    "serve.admitted",
    "serve.completed",
    "serve.cache_hits",
    "serve.rejected_queue_full",
    "serve.rejected_breaker_open",
    "serve.rejected_draining",
    "serve.deadline_timeouts",
    "serve.deadline_kills",
    "serve.worker_respawns",
    "serve.bad_requests",
    "serve.not_found",
    "serve.internal_errors",
)


class LatencyReservoir:
    """Bounded ring buffer of recent latencies with quantile readout.

    Keeps the last ``capacity`` observations (a sliding window, not a
    sampled stream — deterministic, and at the default size the sort in
    :meth:`quantile` is microseconds).  Quantiles use the nearest-rank
    method on the current window.
    """

    def __init__(self, capacity: int = 2048):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: list[float] = []
        self._next = 0
        self.count = 0

    def observe(self, seconds: float) -> None:
        self.count += 1
        if len(self._ring) < self.capacity:
            self._ring.append(seconds)
        else:
            self._ring[self._next] = seconds
            self._next = (self._next + 1) % self.capacity

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the current window (0 when empty)."""
        if not self._ring:
            return 0.0
        ordered = sorted(self._ring)
        rank = max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))
        return ordered[rank]

    def snapshot(self) -> dict:
        """JSON-friendly view: window size, total count, p50/p95/p99/max."""
        return {
            "count": self.count,
            "window": len(self._ring),
            "p50_ms": round(1000 * self.quantile(0.50), 3),
            "p95_ms": round(1000 * self.quantile(0.95), 3),
            "p99_ms": round(1000 * self.quantile(0.99), 3),
            "max_ms": round(1000 * max(self._ring), 3) if self._ring else 0.0,
        }


class ServiceMetrics:
    """Everything ``/metrics`` exposes, owned by one service instance.

    All mutation happens on the event loop thread, so plain dicts and
    ints suffice — no locks.
    """

    def __init__(self, reservoir_capacity: int = 2048):
        self.counters: dict[str, int] = {name: 0 for name in SERVE_COUNTERS}
        self.latency = LatencyReservoir(reservoir_capacity)
        #: Service-lifetime grading stats, aggregated from worker
        #: results exactly like the batch pipeline aggregates process
        #: workers' collectors.
        self.pipeline = PipelineStats(mode="serve")

    def increment(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(
        self,
        queue_depth: int = 0,
        queue_capacity: int = 0,
        workers: int = 0,
        breakers: dict[str, dict] | None = None,
        draining: bool = False,
        store: dict | None = None,
    ) -> dict:
        return {
            "serve": dict(sorted(self.counters.items())),
            "queue": {
                "depth": queue_depth,
                "capacity": queue_capacity,
                "workers": workers,
            },
            "latency_ms": self.latency.snapshot(),
            "breakers": breakers or {},
            "draining": draining,
            "store": store or {"enabled": False, "backend": "none"},
            "pipeline": self.pipeline.to_dict(),
        }


def render_prometheus(snapshot: dict) -> str:
    """Flatten a :meth:`ServiceMetrics.snapshot` into exposition text.

    Counter names map ``serve.rejected_queue_full`` →
    ``repro_serve_rejected_queue_full``; gauges and quantiles get their
    own metrics.  Only scalar values are exported — the nested pipeline
    phase maps stay JSON-only.
    """
    lines: list[str] = []

    def emit(name: str, value, labels: str = "") -> None:
        lines.append(f"repro_{name}{labels} {value}")

    for name, value in sorted(snapshot.get("serve", {}).items()):
        emit(name.replace(".", "_"), value)
    queue = snapshot.get("queue", {})
    emit("serve_queue_depth", queue.get("depth", 0))
    emit("serve_queue_capacity", queue.get("capacity", 0))
    emit("serve_workers", queue.get("workers", 0))
    emit("serve_draining", int(bool(snapshot.get("draining"))))
    latency = snapshot.get("latency_ms", {})
    for key in ("p50_ms", "p95_ms", "p99_ms", "max_ms"):
        emit(f"serve_latency_{key}", latency.get(key, 0.0))
    for assignment, state in sorted(snapshot.get("breakers", {}).items()):
        emit(
            "serve_breaker_open",
            int(state.get("state") == "open"),
            f'{{assignment="{assignment}"}}',
        )
    pipeline = snapshot.get("pipeline", {})
    for key in ("submissions", "graded", "cache_hits", "parse_errors",
                "timeouts", "errors"):
        emit(f"pipeline_{key}", pipeline.get(key, 0))
    # persistent-store visibility: an info gauge naming the store
    # ("sqlite", or "none" without a cache directory), plus the
    # pipeline's cache.store_* traffic labelled with it
    store = snapshot.get("store", {})
    backend = store.get("backend", "none")
    emit("store_backend", 1, f'{{backend="{backend}"}}')
    if store.get("enabled"):
        counters = pipeline.get("counters", {})
        for key in ("hits", "misses", "writes", "errors"):
            emit(
                f"cache_store_{key}",
                counters.get(f"cache.store_{key}", 0),
                f'{{backend="{backend}"}}',
            )
    # static-analysis, repair, perf, and interpreter visibility:
    # per-check finding and suggestion counters, compiled-program cache
    # traffic, plus each phase's wall time, flattened like the serve
    # counters
    # (``analysis.use-before-init`` → ``repro_analysis_use_before_init``,
    # ``interp.compile_hits`` → ``repro_interp_compile_hits``)
    for name, value in sorted(pipeline.get("counters", {}).items()):
        if name.startswith(("analysis.", "repair.", "interp.", "perf.")):
            emit(name.replace(".", "_").replace("-", "_"), value)
    phase_ms = pipeline.get("phase_ms", {})
    for phase in ("analysis", "repair", "perf"):
        if phase in phase_ms:
            emit(f"pipeline_{phase}_ms", phase_ms[phase])
    return "\n".join(lines) + "\n"
