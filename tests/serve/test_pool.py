"""Tests for the grading worker pool (repro.serve.pool).

Every test forks real workers; they are kept few and small (one worker
each) so the suite stays fast.
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
    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            GradingWorkerPool(workers=0)

    def test_grade_before_start_raises(self):
        async def go():
            pool = GradingWorkerPool(workers=1)
            with pytest.raises(RuntimeError):
                await pool.grade("assignment1", "int x;", None)

        run(go())


class TestProcessMode:
    def test_grades_ok_and_reuses_worker(self, good_source):
        async def go():
            pool = GradingWorkerPool(workers=1)
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
        assert not first.killed
        assert second.report.status == "ok"
        # the second grade reuses the warm engine: no fork, no rebuild
        assert warm_seconds < 1.0
        assert first.collector is not None
        assert "parse" in first.collector.seconds
        assert "pattern_match" in first.collector.seconds

    def test_hung_worker_is_killed_and_respawned(self, good_source, short_grace):
        async def go():
            pool = GradingWorkerPool(workers=1)
            await pool.start()
            try:
                # as many wedged jobs as the pool has executor threads:
                # a killed job must free its thread along with its worker
                hung, kill_seconds = [], []
                for _ in range(2 * pool.workers):
                    started = time.perf_counter()
                    hung.append(await pool.grade(
                        "assignment1", good_source, 0.2, hang_seconds=60.0
                    ))
                    kill_seconds.append(time.perf_counter() - started)
                after = await pool.grade(
                    "assignment1", good_source + "//after", 30.0
                )
            finally:
                await pool.stop()
            return hung, kill_seconds, after, pool.respawns

        hung, kill_seconds, after, respawns = run(go())
        for result in hung:
            assert result.report.status == "timeout"
            assert result.killed
            assert result.collector is None  # stats died with the worker
        # hard timeout (0.3s) plus kill/reap, nowhere near the 60s hang
        assert max(kill_seconds) < 5.0
        assert respawns == len(hung) == 2
        assert after.report.status == "ok"
        assert not after.killed

    def test_worker_exception_keeps_worker_alive(self, good_source):
        async def go():
            pool = GradingWorkerPool(workers=1)
            await pool.start()
            try:
                # an unknown assignment raises inside the worker
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
            pool = GradingWorkerPool(workers=1)
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
            pool = GradingWorkerPool(workers=1)
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
