"""Tests for the grading worker pool (repro.serve.pool).

Process-mode tests fork real workers; they are kept few and small
(one worker each) so the suite stays fast.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.pipeline import BatchGrader
from repro.serve import GradingWorkerPool


def run(coro):
    return asyncio.run(coro)


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GradingWorkerPool(mode="threads")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            GradingWorkerPool(workers=0)

    def test_grade_before_start_raises(self):
        async def go():
            pool = GradingWorkerPool(workers=1, mode="inline")
            with pytest.raises(RuntimeError):
                await pool.grade("assignment1", "int x;", None)

        run(go())


class TestInlineMode:
    def test_grades_ok(self, good_source):
        async def go():
            pool = GradingWorkerPool(workers=1, mode="inline")
            await pool.start()
            try:
                result = await pool.grade("assignment1", good_source, 10.0)
            finally:
                await pool.stop()
            return result

        result = run(go())
        assert result.report.status == "ok"
        assert not result.killed
        assert result.collector is not None
        assert "parse" in result.collector.seconds

    def test_hang_hits_hard_timeout(self, good_source, short_grace):
        async def go():
            pool = GradingWorkerPool(workers=1, mode="inline")
            await pool.start()
            try:
                started = time.perf_counter()
                result = await pool.grade(
                    "assignment1", good_source, 0.1, hang_seconds=5.0
                )
                return result, time.perf_counter() - started
            finally:
                await pool.stop()

        result, elapsed = run(go())
        assert result.report.status == "timeout"
        assert result.killed
        assert elapsed < 2.0

    def test_unknown_assignment_is_isolated(self):
        async def go():
            pool = GradingWorkerPool(workers=1, mode="inline")
            await pool.start()
            try:
                return await pool.grade("no-such", "int x;", 5.0)
            finally:
                await pool.stop()

        result = run(go())
        assert result.report.status == "error"


class TestProcessMode:
    def test_grades_ok_and_reuses_worker(self, good_source):
        async def go():
            pool = GradingWorkerPool(workers=1, mode="process")
            await pool.start()
            try:
                first = await pool.grade("assignment1", good_source, 30.0)
                started = time.perf_counter()
                second = await pool.grade(
                    "assignment1", good_source + "//2", 30.0
                )
                warm_seconds = time.perf_counter() - started
            finally:
                await pool.stop()
            return first, second, warm_seconds

        first, second, warm_seconds = run(go())
        assert first.report.status == "ok"
        assert second.report.status == "ok"
        # the second grade reuses the warm engine: no fork, no rebuild
        assert warm_seconds < 1.0
        assert first.collector is not None
        assert "pattern_match" in first.collector.seconds

    def test_hung_worker_is_killed_and_respawned(self, good_source, short_grace):
        async def go():
            pool = GradingWorkerPool(workers=1, mode="process")
            await pool.start()
            try:
                started = time.perf_counter()
                hung = await pool.grade(
                    "assignment1", good_source, 0.2, hang_seconds=60.0
                )
                kill_seconds = time.perf_counter() - started
                after = await pool.grade(
                    "assignment1", good_source + "//after", 30.0
                )
            finally:
                await pool.stop()
            return hung, kill_seconds, after, pool.respawns

        hung, kill_seconds, after, respawns = run(go())
        assert hung.report.status == "timeout"
        assert hung.killed
        assert hung.collector is None  # stats died with the worker
        # hard timeout (0.3s) plus kill/reap, nowhere near the 60s hang
        assert kill_seconds < 5.0
        assert respawns == 1
        assert after.report.status == "ok"

    def test_worker_exception_keeps_worker_alive(self, good_source):
        async def go():
            pool = GradingWorkerPool(workers=1, mode="process")
            await pool.start()
            try:
                broken = await pool.grade("no-such", "int x;", 30.0)
                healthy = await pool.grade("assignment1", good_source, 30.0)
            finally:
                await pool.stop()
            return broken, healthy, pool.respawns

        broken, healthy, respawns = run(go())
        assert broken.report.status == "error"
        assert healthy.report.status == "ok"
        assert respawns == 0

    def test_failed_exchange_never_leaves_a_stale_reply(
        self, assignment1, good_source
    ):
        other = good_source.replace("int odd = 0;", "int odd = 1;")
        assert other != good_source

        async def go():
            pool = GradingWorkerPool(workers=1, mode="process")
            await pool.start()
            try:
                # a NaN deadline makes the parent's pipe poll raise after
                # the job was sent; the worker still answers it
                lost = await pool.grade(
                    "assignment1", good_source, float("nan")
                )
                after = await pool.grade("assignment1", other, 30.0)
            finally:
                await pool.stop()
            return lost, after, pool.respawns

        lost, after, respawns = run(go())
        assert lost.report.status == "error"
        assert respawns == 1
        expected = BatchGrader(assignment1, cache=False).grade_batch(
            [other]
        ).reports[0]
        assert after.report.to_dict() == expected.to_dict()

    def test_cooperative_deadline_returns_timeout_without_kill(
        self, good_source
    ):
        async def go():
            pool = GradingWorkerPool(workers=1, mode="process")
            await pool.start()
            try:
                return await pool.grade(
                    "assignment1", good_source, 0.000001
                ), pool.respawns
            finally:
                await pool.stop()

        result, respawns = run(go())
        # the child noticed the expired deadline at a phase boundary
        # and answered on its own: no kill, no respawn
        assert result.report.status == "timeout"
        assert not result.killed
        assert respawns == 0
