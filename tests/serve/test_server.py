"""End-to-end tests for the grading service over real sockets.

Every scenario runs on the service's process pool; the hard-kill path
gets one test mirroring the bench's hang scenario.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.core.pipeline import BatchGrader, source_key
from repro.core.storage import ResultStore
from repro.serve import breaker
from repro.serve.http import MAX_BODY_BYTES
from tests.serve.conftest import (
    grade_call,
    http_call,
    http_exchange,
    running_service,
)


def run(coro):
    return asyncio.run(coro)


class TestOperationalEndpoints:
    def test_healthz_readyz_index(self):
        async def go():
            async with running_service() as service:
                host, port = service.config.host, service.port
                health = await http_call(host, port, "GET", "/healthz")
                ready = await http_call(host, port, "GET", "/readyz")
                index = await http_call(host, port, "GET", "/")
                listing = await http_call(host, port, "GET", "/assignments")
            return health, ready, index, listing

        health, ready, index, listing = run(go())
        assert health[0] == 200 and health[2] == b"ok\n"
        assert ready[0] == 200 and ready[2] == b"ready\n"
        assert index[0] == 200
        assert "POST /assignments/{name}/grade" in json.loads(index[2])[
            "endpoints"
        ]
        assert "assignment1" in json.loads(listing[2])["assignments"]

    def test_unknown_route_is_404(self):
        async def go():
            async with running_service() as service:
                return await http_call(
                    service.config.host, service.port, "GET", "/nope"
                )

        status, _, raw = run(go())
        assert status == 404
        assert "no route" in json.loads(raw)["error"]

    def test_method_mismatches_are_405(self):
        async def go():
            async with running_service() as service:
                host, port = service.config.host, service.port
                get_grade = await http_call(
                    host, port, "GET", "/assignments/assignment1/grade"
                )
                post_health = await http_call(
                    host, port, "POST", "/healthz"
                )
            return get_grade[0], post_health[0]

        assert run(go()) == (405, 405)

    def test_keep_alive_serves_multiple_requests(self):
        async def go():
            async with running_service() as service:
                reader, writer = await asyncio.open_connection(
                    service.config.host, service.port
                )
                try:
                    first = await http_exchange(
                        reader, writer, "GET", "/healthz"
                    )
                    second = await http_exchange(
                        reader, writer, "GET", "/readyz"
                    )
                finally:
                    writer.close()
                    with contextlib.suppress(OSError):
                        await writer.wait_closed()
            return first, second

        first, second = run(go())
        assert first[0] == 200 and second[0] == 200
        assert first[1]["connection"] == "keep-alive"


class TestGrading:
    def test_grade_matches_offline_batch_grader(
        self, assignment1, good_source
    ):
        offline = BatchGrader(assignment1, cache=False).grade_batch(
            [good_source]
        ).reports[0].to_dict()

        async def go():
            async with running_service() as service:
                return await grade_call(
                    service, "assignment1",
                    {"source": good_source, "label": "s1"},
                )

        status, payload = run(go())
        assert status == 200
        assert payload["label"] == "s1"
        assert payload["from_cache"] is False
        assert payload["report"] == offline

    def test_duplicate_source_hits_cache(self, good_source):
        async def go():
            async with running_service() as service:
                first = await grade_call(
                    service, "assignment1", {"source": good_source}
                )
                second = await grade_call(
                    service, "assignment1", {"source": good_source}
                )
            return first, second

        first, second = run(go())
        assert first[1]["from_cache"] is False
        assert second[1]["from_cache"] is True
        assert second[1]["report"] == first[1]["report"]

    def test_persistent_cache_survives_a_service_restart(
        self, assignment1, good_source, tmp_path
    ):
        async def serve_once():
            async with running_service(cache_dir=tmp_path) as service:
                status, payload = await grade_call(
                    service, "assignment1", {"source": good_source}
                )
                counters = dict(
                    service.metrics.pipeline.counters
                )
            return status, payload, counters

        first = run(serve_once())
        second = run(serve_once())  # fresh service, warm disk
        assert first[0] == second[0] == 200
        assert first[1]["from_cache"] is False
        assert second[1]["from_cache"] is True
        assert second[1]["report"] == first[1]["report"]
        # the report landed in the store, under the content key
        record = ResultStore(tmp_path, assignment1).get(
            source_key(good_source)
        )
        assert record.to_dict() == first[1]["report"]
        assert first[2].get("cache.store_writes") == 1
        assert second[2].get("cache.store_hits") == 1
        # the warm service never parsed or matched anything
        assert not any(
            name.startswith("match.") for name in second[2]
        )

    def test_batch_grader_warms_the_service_cache(
        self, assignment1, good_source, tmp_path
    ):
        BatchGrader(assignment1, store=tmp_path).grade_batch([good_source])

        async def go():
            async with running_service(cache_dir=tmp_path) as service:
                return await grade_call(
                    service, "assignment1", {"source": good_source}
                )

        status, payload = run(go())
        assert status == 200
        assert payload["from_cache"] is True

    def test_parse_error_is_a_successful_grading(self):
        async def go():
            async with running_service() as service:
                return await grade_call(
                    service, "assignment1",
                    {"source": "void assignment1(int[] a) { int = ; }"},
                )

        status, payload = run(go())
        assert status == 200
        assert payload["report"]["status"] == "parse-error"

    def test_unknown_assignment_is_404(self, good_source):
        async def go():
            async with running_service() as service:
                return await grade_call(
                    service, "no-such", {"source": good_source}
                )

        status, payload = run(go())
        assert status == 404
        assert "unknown assignment" in payload["error"]

    def test_validation_errors_are_400(self, good_source):
        async def go():
            async with running_service() as service:
                host, port = service.config.host, service.port
                results = {}
                results["no_source"] = await grade_call(
                    service, "assignment1", {}
                )
                results["empty_source"] = await grade_call(
                    service, "assignment1", {"source": "   "}
                )
                results["bad_label"] = await grade_call(
                    service, "assignment1",
                    {"source": good_source, "label": 7},
                )
                results["bad_deadline"] = await grade_call(
                    service, "assignment1",
                    {"source": good_source, "deadline_seconds": 0},
                )
                results["nan_deadline"] = await grade_call(
                    service, "assignment1",
                    {"source": good_source, "deadline_seconds": float("nan")},
                )
                results["bad_json"] = await http_call(
                    host, port, "POST",
                    "/assignments/assignment1/grade", raw_body=b"{nope",
                )
            return results

        results = run(go())
        assert results["no_source"][0] == 400
        assert results["empty_source"][0] == 400
        assert results["bad_label"][0] == 400
        assert results["bad_deadline"][0] == 400
        assert results["nan_deadline"][0] == 400
        assert results["bad_json"][0] == 400

    def test_debug_sleep_requires_debug_hooks(self, good_source):
        async def go():
            async with running_service(debug_hooks=False) as service:
                return await grade_call(
                    service, "assignment1",
                    {"source": good_source, "debug_sleep_seconds": 1},
                )

        status, payload = run(go())
        assert status == 400
        assert "debug-hooks" in payload["error"]

    def test_body_at_the_limit_is_read(self, good_source):
        payload = json.dumps({"source": good_source}).encode()
        # trailing whitespace keeps the JSON valid at exactly the limit
        at_limit = payload + b" " * (MAX_BODY_BYTES - len(payload))

        async def go():
            async with running_service() as service:
                return await http_call(
                    service.config.host, service.port, "POST",
                    "/assignments/assignment1/grade", raw_body=at_limit,
                )

        status, _, raw = run(go())
        assert status == 200
        assert json.loads(raw)["report"]["status"] == "ok"

    def test_oversized_body_is_413(self):
        async def go():
            async with running_service() as service:
                reader, writer = await asyncio.open_connection(
                    service.config.host, service.port
                )
                # one byte over, and no body sent: the 413 must come
                # before any attempt to read the body
                writer.write(
                    b"POST /assignments/assignment1/grade HTTP/1.1\r\n"
                    + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
                )
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
            return status_line

        assert run(go()).split()[1] == b"413"

    def test_deadline_is_clamped_to_server_maximum(self, good_source):
        async def go():
            async with running_service(
                max_deadline_seconds=5.0
            ) as service:
                # a huge requested deadline is accepted but clamped —
                # the request still grades fine well inside 5s
                return await grade_call(
                    service, "assignment1",
                    {"source": good_source, "deadline_seconds": 9999},
                )

        status, payload = run(go())
        assert status == 200
        assert payload["report"]["status"] == "ok"


class TestOverloadAndDeadlines:
    def test_queue_full_produces_429_with_retry_after(self, good_source):
        async def go():
            async with running_service(
                workers=1, queue_capacity=1
            ) as service:
                host, port = service.config.host, service.port
                # admission capacity is workers + queue = 2: occupy it
                # with two slow requests, then the third must bounce
                slow = [
                    asyncio.create_task(grade_call(
                        service, "assignment1",
                        {
                            "source": good_source + f"//slow{i}",
                            "debug_sleep_seconds": 1.0,
                        },
                    ))
                    for i in range(2)
                ]
                await asyncio.sleep(0.3)  # let both get admitted
                rejected = await http_call(
                    host, port, "POST",
                    "/assignments/assignment1/grade",
                    body={"source": good_source + "//reject"},
                )
                done = await asyncio.gather(*slow)
                metrics = json.loads((await http_call(
                    host, port, "GET", "/metrics"
                ))[2])
            return rejected, done, metrics

        rejected, done, metrics = run(go())
        status, headers, raw = rejected
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        assert json.loads(raw)["queue_capacity"] == 2
        assert all(status == 200 for status, _ in done)
        assert metrics["serve"]["serve.rejected_queue_full"] == 1

    def test_deadline_timeout_answers_504(self, good_source, short_grace):
        async def go():
            async with running_service(workers=1) as service:
                return await grade_call(
                    service, "assignment1",
                    {
                        "source": good_source + "//hang",
                        "debug_sleep_seconds": 1.0,
                        "deadline_seconds": 0.2,
                    },
                )

        status, payload = run(go())
        assert status == 504
        assert payload["report"]["status"] == "timeout"

    def test_breaker_quarantines_after_repeated_timeouts(
        self, good_source, short_grace, monkeypatch
    ):
        monkeypatch.setattr(breaker, "MIN_VOLUME", 2)
        monkeypatch.setattr(breaker, "FAILURE_RATIO", 1.0)
        monkeypatch.setattr(breaker, "COOLDOWN_SECONDS", 300.0)

        async def go():
            async with running_service(workers=1) as service:
                for i in range(2):
                    await grade_call(
                        service, "assignment1",
                        {
                            "source": good_source + f"//hang{i}",
                            "debug_sleep_seconds": 1.0,
                            "deadline_seconds": 0.2,
                        },
                    )
                quarantined = await http_call(
                    service.config.host, service.port, "POST",
                    "/assignments/assignment1/grade",
                    body={"source": good_source + "//next"},
                )
                metrics = json.loads((await http_call(
                    service.config.host, service.port, "GET", "/metrics"
                ))[2])
            return quarantined, metrics

        (status, headers, raw), metrics = run(go())
        assert status == 503
        assert int(headers["retry-after"]) >= 1
        payload = json.loads(raw)
        assert "quarantined" in payload["error"]
        assert payload["breaker"]["state"] == "open"
        assert metrics["breakers"]["assignment1"]["state"] == "open"
        assert metrics["serve"]["serve.rejected_breaker_open"] == 1

    def test_hard_kill_in_process_mode(self, good_source):
        async def go():
            async with running_service(workers=2) as service:
                hang = asyncio.create_task(grade_call(
                    service, "assignment1",
                    {
                        "source": good_source + "//hang",
                        "debug_sleep_seconds": 60,
                        "deadline_seconds": 0.3,
                    },
                ))
                healthy = asyncio.create_task(grade_call(
                    service, "assignment1", {"source": good_source}
                ))
                (hang_status, hang_payload), (ok_status, ok_payload) = (
                    await asyncio.wait_for(
                        asyncio.gather(hang, healthy), 30
                    )
                )
                metrics = json.loads((await http_call(
                    service.config.host, service.port, "GET", "/metrics"
                ))[2])
            return (
                hang_status, hang_payload, ok_status, ok_payload, metrics
            )

        hang_status, hang_payload, ok_status, ok_payload, metrics = run(go())
        # the wedged request was killed by its hard deadline...
        assert hang_status == 504
        assert hang_payload["report"]["status"] == "timeout"
        assert "terminated" in hang_payload["report"]["timeout"]
        # ...while the healthy one completed on the other worker
        assert ok_status == 200
        assert ok_payload["report"]["status"] == "ok"
        assert metrics["serve"]["serve.deadline_kills"] == 1
        assert metrics["serve"]["serve.worker_respawns"] == 1


class TestMetricsEndpoint:
    def test_json_snapshot_counts_requests(self, good_source):
        async def go():
            async with running_service() as service:
                await grade_call(
                    service, "assignment1", {"source": good_source}
                )
                await grade_call(
                    service, "assignment1", {"source": good_source}
                )
                return json.loads((await http_call(
                    service.config.host, service.port, "GET", "/metrics"
                ))[2])

        metrics = run(go())
        serve = metrics["serve"]
        assert serve["serve.grade_requests"] == 2
        assert serve["serve.cache_hits"] == 1
        assert serve["serve.completed"] == 2
        assert metrics["latency_ms"]["count"] == 2
        assert metrics["pipeline"]["submissions"] == 2
        assert metrics["pipeline"]["cache_hits"] == 1
        assert metrics["queue"]["workers"] == 2

    def test_prometheus_format(self, good_source):
        async def go():
            async with running_service() as service:
                await grade_call(
                    service, "assignment1", {"source": good_source}
                )
                return (await http_call(
                    service.config.host, service.port,
                    "GET", "/metrics?format=prometheus",
                ))[2].decode()

        text = run(go())
        assert "repro_serve_grade_requests 1" in text
        assert "repro_pipeline_graded 1" in text
        assert "repro_serve_latency_p50_ms" in text


class TestDrain:
    def test_drain_finishes_cleanly_and_stops_accepting(self, good_source):
        async def go():
            service = None
            async with running_service() as service_:
                service = service_
                await grade_call(
                    service, "assignment1", {"source": good_source}
                )
            # context manager exit ran drain(); listener must be closed
            with pytest.raises(OSError):
                await asyncio.open_connection(
                    service.config.host, service.port
                )
            return service

        service = run(go())
        assert service.draining

    def test_drain_reports_clean_when_idle(self):
        async def go():
            async with running_service() as service:
                # drain is called by the context manager too, but calling
                # it directly returns the cleanliness verdict
                return await service.drain()

        assert run(go()) is True

    def test_readyz_flips_during_drain(self, good_source):
        async def go():
            async with running_service() as service:
                reader, writer = await asyncio.open_connection(
                    service.config.host, service.port
                )
                try:
                    before = await http_exchange(
                        reader, writer, "GET", "/readyz"
                    )
                    # keep the service busy so the drain has in-flight
                    # work to wait for while we probe readiness
                    slow = asyncio.create_task(grade_call(
                        service, "assignment1",
                        {
                            "source": good_source + "//slow",
                            "debug_sleep_seconds": 0.5,
                        },
                    ))
                    await asyncio.sleep(0.1)  # let it get admitted
                    drain_task = asyncio.create_task(service.drain())
                    await asyncio.sleep(0.05)
                    after = await http_exchange(
                        reader, writer, "GET", "/readyz"
                    )
                    slow_status, _ = await slow
                    clean = await drain_task
                finally:
                    writer.close()
                    with contextlib.suppress(OSError):
                        await writer.wait_closed()
            return before[0], after[0], slow_status, clean

        before, after, slow_status, clean = run(go())
        assert (before, after) == (200, 503)
        assert slow_status == 200  # admitted work finished during drain
        assert clean is True
