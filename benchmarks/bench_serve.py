"""Grading service benchmark: concurrent load against ``repro.serve``.

Three scenarios, mirroring the service's design goals:

* **throughput** (closed loop) — a duplicate-heavy synthetic cohort
  (the same :func:`bench_batch_pipeline.build_cohort` workload the
  batch benchmark uses) is graded through real HTTP by a fixed pool of
  concurrent clients; every served report must be byte-identical to
  what the offline :class:`~repro.core.pipeline.BatchGrader` produces
  for the same source.
* **overload** (open loop) — a burst far beyond the admission capacity
  is fired without waiting; the excess must be refused with ``429``
  and every refusal must carry a ``Retry-After`` hint.
* **hang** — one deliberately wedged submission (the ``debug_sleep``
  hook stands in for a matcher-hostile pathological input) is sent
  alongside healthy traffic; the hard deadline must kill it while
  every healthy request completes normally.

Full-run results land in ``BENCH_serve.json`` at the repo root;
``--quick`` writes nothing.

Run standalone (CI smoke-tests ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick]

or under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import time
from pathlib import Path

from bench_batch_pipeline import build_cohort
from repro.core.pipeline import BatchGrader
from repro.kb import get_assignment
from repro.serve import GradingService, ServiceConfig

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: Closed-loop client concurrency for the throughput scenario.
CLIENT_CONCURRENCY = 16


# -- minimal asyncio HTTP client ------------------------------------------

async def http_request(host, port, method, path, body=None):
    """One request on a fresh connection; response framed by length."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length else b""
        return status, headers, raw
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()


async def grade_request(service, assignment_name, body):
    status, headers, raw = await http_request(
        service.config.host, service.port,
        "POST", f"/assignments/{assignment_name}/grade", body,
    )
    return status, headers, json.loads(raw)


@contextlib.asynccontextmanager
async def started_service(**overrides):
    kwargs = dict(port=0, debug_hooks=True)
    kwargs.update(overrides)
    service = GradingService(ServiceConfig(**kwargs))
    await service.start()
    try:
        yield service
    finally:
        await service.drain()


# -- scenario 1: closed-loop throughput + byte-identical reports ----------

async def _run_throughput(cohort, workers):
    async with started_service(workers=workers) as service:
        queue: asyncio.Queue = asyncio.Queue()
        for item in cohort:
            queue.put_nowait(item)
        served: dict[str, dict] = {}
        statuses: list[int] = []

        async def client():
            while True:
                try:
                    label, source = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                status, _, payload = await grade_request(
                    service, "assignment1",
                    {"source": source, "label": label},
                )
                statuses.append(status)
                served[label] = payload["report"]

        started = time.perf_counter()
        await asyncio.gather(
            *[client() for _ in range(CLIENT_CONCURRENCY)]
        )
        elapsed = time.perf_counter() - started
        _, _, raw = await http_request(
            service.config.host, service.port, "GET", "/metrics"
        )
        metrics = json.loads(raw)
    return served, statuses, elapsed, metrics


def run_throughput(size=240, workers=4, verbose=True):
    """Serve a duplicate-heavy cohort; compare against offline grading."""
    assignment = get_assignment("assignment1")
    cohort = build_cohort(assignment, size)
    offline = BatchGrader(assignment, mode="serial", cache=True)
    offline_reports = {
        item.label: item.report.to_dict()
        for item in offline.grade_batch(cohort).items
    }
    served, statuses, elapsed, metrics = asyncio.run(
        _run_throughput(cohort, workers)
    )
    identical = served == offline_reports
    summary = {
        "cohort_size": size,
        "workers": workers,
        "client_concurrency": CLIENT_CONCURRENCY,
        "wall_seconds": round(elapsed, 3),
        "throughput_per_second": round(size / elapsed, 1),
        "all_http_200": all(status == 200 for status in statuses),
        "byte_identical_to_offline": identical,
        "cache_hits": metrics["serve"]["serve.cache_hits"],
        "latency_ms": metrics["latency_ms"],
    }
    if verbose:
        print(f"throughput: {size} submissions via "
              f"{CLIENT_CONCURRENCY} clients / {workers} workers "
              f"in {elapsed:.2f}s ({size / elapsed:.1f}/s, "
              f"{summary['cache_hits']} cache hits)")
        print(f"  p50={summary['latency_ms']['p50_ms']}ms "
              f"p95={summary['latency_ms']['p95_ms']}ms "
              f"p99={summary['latency_ms']['p99_ms']}ms")
        print(f"  served reports byte-identical to offline: {identical}")
    return summary


# -- scenario 2: open-loop overload → 429 + Retry-After -------------------

async def _run_overload(burst, queue_capacity):
    async with started_service(
        workers=2, queue_capacity=queue_capacity
    ) as service:
        source = get_assignment("assignment1").reference_solutions[0]
        tasks = [
            asyncio.create_task(grade_request(
                service, "assignment1",
                {
                    # unique sources defeat the result cache, so every
                    # request needs a worker and the queue really fills
                    "source": source + f"//burst{i}",
                    "debug_sleep_seconds": 0.2,
                },
            ))
            for i in range(burst)
        ]
        return await asyncio.gather(*tasks)


def run_overload(burst=40, queue_capacity=4, verbose=True):
    """Fire a burst past admission capacity; count explicit refusals."""
    results = asyncio.run(_run_overload(burst, queue_capacity))
    accepted = sum(1 for status, _, _ in results if status == 200)
    rejected = [
        (status, headers) for status, headers, _ in results
        if status == 429
    ]
    other = [
        status for status, _, _ in results if status not in (200, 429)
    ]
    retry_after_ok = all(
        int(headers.get("retry-after", "0")) >= 1
        for _, headers in rejected
    )
    summary = {
        "burst": burst,
        "admission_capacity": 2 + queue_capacity,
        "accepted_200": accepted,
        "rejected_429": len(rejected),
        "other_statuses": other,
        "all_429s_have_retry_after": retry_after_ok,
    }
    if verbose:
        print(f"overload: burst of {burst} against capacity "
              f"{summary['admission_capacity']} -> {accepted} accepted, "
              f"{len(rejected)} refused with 429 "
              f"(Retry-After on all: {retry_after_ok})")
    return summary


# -- scenario 3: hung submission killed, healthy traffic unharmed ---------

async def _run_hang(healthy):
    async with started_service(workers=2) as service:
        source = get_assignment("assignment1").reference_solutions[0]
        started = time.perf_counter()
        hang_task = asyncio.create_task(grade_request(
            service, "assignment1",
            {
                "source": source + "//wedged",
                "debug_sleep_seconds": 60,
                "deadline_seconds": 0.5,
            },
        ))
        healthy_tasks = [
            asyncio.create_task(grade_request(
                service, "assignment1",
                {"source": source + f"//healthy{i}"},
            ))
            for i in range(healthy)
        ]
        hang_result = await hang_task
        hang_seconds = time.perf_counter() - started
        healthy_results = await asyncio.gather(*healthy_tasks)
        _, _, raw = await http_request(
            service.config.host, service.port, "GET", "/metrics"
        )
        metrics = json.loads(raw)
    return hang_result, hang_seconds, healthy_results, metrics


def run_hang(healthy=8, verbose=True):
    """One wedged submission + healthy traffic on the same service."""
    hang_result, hang_seconds, healthy_results, metrics = asyncio.run(
        _run_hang(healthy)
    )
    hang_status, _, hang_payload = hang_result
    summary = {
        "hang_http_status": hang_status,
        "hang_report_status": hang_payload["report"]["status"],
        "hang_wall_seconds": round(hang_seconds, 3),
        "healthy_requests": healthy,
        "healthy_all_ok": all(
            status == 200 and payload["report"]["status"] == "ok"
            for status, _, payload in healthy_results
        ),
        "deadline_kills": metrics["serve"]["serve.deadline_kills"],
        "worker_respawns": metrics["serve"]["serve.worker_respawns"],
    }
    if verbose:
        print(f"hang: wedged submission answered {hang_status} "
              f"({hang_payload['report']['status']}) in "
              f"{hang_seconds:.2f}s; {healthy} healthy requests ok: "
              f"{summary['healthy_all_ok']} "
              f"(kills={summary['deadline_kills']}, "
              f"respawns={summary['worker_respawns']})")
    return summary


# -- pytest entry points -------------------------------------------------

def test_served_reports_match_offline():
    summary = run_throughput(size=60, workers=2, verbose=False)
    assert summary["all_http_200"]
    assert summary["byte_identical_to_offline"]
    assert summary["cache_hits"] > 0  # duplicate-heavy by construction


def test_overload_emits_429s_with_retry_after():
    summary = run_overload(burst=24, queue_capacity=2, verbose=False)
    assert summary["rejected_429"] > 0
    assert summary["all_429s_have_retry_after"]
    assert summary["accepted_200"] >= 4  # admitted work still finishes
    assert not summary["other_statuses"]


def test_hung_submission_killed_while_others_complete():
    summary = run_hang(healthy=4, verbose=False)
    assert summary["hang_http_status"] == 504
    assert summary["hang_report_status"] == "timeout"
    assert summary["hang_wall_seconds"] < 10.0
    assert summary["healthy_all_ok"]
    assert summary["deadline_kills"] == 1


# -- standalone entry point ----------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small cohort / burst (CI smoke test); does "
                             "not rewrite BENCH_serve.json")
    parser.add_argument("--size", type=int, default=None,
                        help="cohort size (default 240, or 60 with --quick)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_serve.json")
    args = parser.parse_args(argv)
    quick = args.quick
    size = args.size if args.size is not None else (60 if quick else 240)

    throughput = run_throughput(
        size=size, workers=2 if quick else args.workers
    )
    overload = run_overload(
        burst=24 if quick else 40, queue_capacity=2 if quick else 4
    )
    hang = run_hang(healthy=4 if quick else 8)

    results = {
        "benchmark": "serve",
        "mode": "quick" if quick else "full",
        "throughput": throughput,
        "overload": overload,
        "hang": hang,
    }
    if not quick and not args.no_write:
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")

    failures = []
    if not throughput["byte_identical_to_offline"]:
        failures.append("served reports differ from offline grading")
    if not throughput["all_http_200"]:
        failures.append("throughput scenario saw non-200 responses")
    if not overload["rejected_429"]:
        failures.append("overload produced no 429s")
    if not overload["all_429s_have_retry_after"]:
        failures.append("a 429 lacked Retry-After")
    if hang["hang_http_status"] != 504 or not hang["healthy_all_ok"]:
        failures.append("hang scenario misbehaved")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
