"""Analysis riding the batch pipeline, metrics, and the serving layer."""

from __future__ import annotations

import asyncio
import json

from repro.core.pipeline import BatchGrader
from repro.serve.metrics import render_prometheus

from tests.serve.conftest import http_call, running_service

BUGGY = "int f(int n) { int x; while (true) { int y = 1; } return x; }"


class TestBatchStats:
    def test_analysis_counters_and_phase_in_stats(self, assignment1):
        grader = BatchGrader(assignment1, mode="serial", cache=False)
        result = grader.grade_batch([("s1", BUGGY)])
        stats = result.stats.to_dict()
        assert stats["counters"]["analysis.runs"] == 1
        assert stats["counters"]["analysis.diagnostics"] > 0
        assert stats["counters"]["analysis.use-before-init"] == 1
        assert stats["phase_ms"].get("analysis", 0) > 0
        assert "analysis" in result.stats.summary()

    def test_unmatched_submission_still_gets_diagnostics(self, assignment1):
        # acceptance: matching finds nothing, diagnostics carry feedback
        result = BatchGrader(assignment1, mode="serial", cache=False) \
            .grade_batch([("s1", BUGGY)])
        report = result.items[0].report
        assert report.comments  # every expected method reported missing
        assert report.diagnostics
        assert report.diagnostics_are_primary

    def test_diagnostics_identical_across_modes(self, assignment1):
        batch = [("s1", BUGGY), ("s2", "int g() { return 1; int z = 2; }")]
        serial = BatchGrader(assignment1, mode="serial", cache=False) \
            .grade_batch(batch)
        process = BatchGrader(assignment1, mode="process", workers=2,
                              cache=False).grade_batch(batch)
        assert serial.rendered() == process.rendered()
        for left, right in zip(serial.items, process.items):
            assert left.report.diagnostics == right.report.diagnostics


class TestPrometheus:
    def test_analysis_counters_and_phase_exported(self):
        snapshot = {
            "serve": {},
            "pipeline": {
                "counters": {
                    "analysis.runs": 4,
                    "analysis.use-before-init": 2,
                    "match.candidates_pruned": 9,
                },
                "phase_ms": {"parse": 1.0, "analysis": 3.25},
            },
        }
        text = render_prometheus(snapshot)
        assert "repro_analysis_runs 4" in text
        assert "repro_analysis_use_before_init 2" in text
        assert "repro_pipeline_analysis_ms 3.25" in text
        # non-analysis pipeline counters stay JSON-only
        assert "candidates_pruned" not in text


class TestServeLint:
    def test_lint_endpoint_reports_clean_kb(self):
        async def scenario():
            async with running_service() as service:
                host, port = service.config.host, service.port
                status, _headers, raw = await http_call(
                    host, port, "GET", "/lint"
                )
                return status, json.loads(raw)

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert payload["ok"] is True
        assert len(payload["assignments"]) == 12

    def test_grade_response_carries_diagnostics(self):
        async def scenario():
            async with running_service() as service:
                host, port = service.config.host, service.port
                status, _headers, raw = await http_call(
                    host, port, "POST", "/assignments/assignment1/grade",
                    body={"source": BUGGY},
                )
                return status, json.loads(raw)

        status, payload = asyncio.run(scenario())
        assert status == 200
        report = payload["report"]
        checks = {d["check"] for d in report["diagnostics"]}
        assert "use-before-init" in checks

    def test_metrics_expose_analysis_after_grading(self):
        async def scenario():
            async with running_service() as service:
                host, port = service.config.host, service.port
                await http_call(
                    host, port, "POST", "/assignments/assignment1/grade",
                    body={"source": BUGGY},
                )
                _status, _headers, raw = await http_call(
                    host, port, "GET", "/metrics?format=prometheus"
                )
                return raw.decode()

        text = asyncio.run(scenario())
        assert "repro_analysis_runs 1" in text
        assert "repro_pipeline_analysis_ms" in text
