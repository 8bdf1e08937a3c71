"""Tests for the store's SQLite database and its crash safety.

The database holds the store contract — one envelope per record,
KB-fingerprint invalidation, corruption-as-miss forgiveness — in a
single file with batched transactions.  The crash drills are the heart
of it: a SIGKILL'd writer mid-transaction, a corrupted database image,
and a corrupted ``-wal`` sidecar must every one degrade to cache
misses, never to a wrong report.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro.core.pipeline import BatchGrader
from repro.core.storage import ResultStore
from repro.core.storage import database_path
from repro.kb import get_assignment


@pytest.fixture()
def store(assignment1, tmp_path):
    return ResultStore(tmp_path, assignment1)


def _report(assignment1, engine1):
    return engine1.grade(assignment1.reference_solutions[0])


class TestSqliteRoundTrip:
    def test_put_then_get(self, store, assignment1, engine1):
        report = _report(assignment1, engine1)
        assert store.put("k" * 64, report) is True
        loaded = store.get("k" * 64)
        assert loaded is not None
        assert loaded.to_dict() == report.to_dict()
        assert loaded.render() == report.render()

    def test_single_database_file(self, store, tmp_path, assignment1, engine1):
        store.put("a" * 64, _report(assignment1, engine1))
        store.put("b" * 64, _report(assignment1, engine1))
        files = [
            p for p in tmp_path.rglob("*")
            if p.is_file() and not p.name.startswith("store.sqlite")
        ]
        assert files == []  # no per-entry files, ever
        assert store.entry_count() == 2

    def test_missing_key_is_a_miss(self, store):
        assert store.get("0" * 64) is None
        assert store.entry_count() == 0

    def test_cluster_records_round_trip(self, store):
        record = {"fingerprint": "f" * 64, "members": ["a", "b"]}
        assert store.put_cluster("f" * 64, record) is True
        assert store.get_cluster("f" * 64) == record

    def test_campaign_records_round_trip(self, store):
        record = {"digest": "d" * 64, "count": 10}
        assert store.put_campaign("c1/shard-00000000", record) is True
        assert store.get_campaign("c1/shard-00000000") == record
        assert store.get_campaign("c1/shard-00000001") is None

    def test_kb_change_invalidates_entries(
        self, tmp_path, assignment1, engine1
    ):
        report = _report(assignment1, engine1)
        old = ResultStore(tmp_path, assignment1)
        old.put("f" * 64, report)
        changed = dataclasses.replace(
            assignment1,
            synthesize_else_conditions=(
                not assignment1.synthesize_else_conditions
            ),
        )
        new = ResultStore(tmp_path, changed)
        assert new.get("f" * 64) is None
        assert old.get("f" * 64) is not None

    def test_assignments_do_not_collide(self, tmp_path, engine1):
        a1 = get_assignment("assignment1")
        a2 = get_assignment("esc-LAB-3-P1-V1")
        report = engine1.grade(a1.reference_solutions[0])
        ResultStore(tmp_path, a1).put("a" * 64, report)
        assert (
            ResultStore(tmp_path, a2).get("a" * 64) is None
        )

    def test_concurrent_thread_writers(self, store, assignment1, engine1):
        report = _report(assignment1, engine1)
        failures: list[str] = []

        def write(i: int) -> None:
            key = f"{i:02d}" + "0" * 62
            if not store.put(key, report):
                failures.append(key)

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert store.entry_count() == 16

    def test_threads_racing_to_open_a_fresh_database_all_write(
        self, tmp_path, assignment1, engine1
    ):
        """Switching a fresh database to WAL races between connections;
        the loser must wait and retry, not drop its write."""
        report = _report(assignment1, engine1)
        failures: list[str] = []
        for trial in range(100):
            store = ResultStore(tmp_path / f"s{trial}", assignment1)
            threads = [
                threading.Thread(
                    target=lambda key=f"{i:02d}" + "0" * 62: (
                        store.put(key, report) or failures.append(key)
                    )
                )
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert failures == []


class TestBatch:
    def test_batch_commits_all_writes(self, store, assignment1, engine1):
        report = _report(assignment1, engine1)
        with store.batch():
            for i in range(8):
                assert store.put(f"{i:02d}" + "a" * 62, report)
        reader = ResultStore(store.root, assignment1)
        assert reader.entry_count() == 8

    def test_exception_rolls_back_the_batch(
        self, store, assignment1, engine1
    ):
        report = _report(assignment1, engine1)
        with pytest.raises(RuntimeError):
            with store.batch():
                store.put("1" * 64, report)
                store.put("2" * 64, report)
                raise RuntimeError("boom")
        reader = ResultStore(store.root, assignment1)
        assert reader.get("1" * 64) is None
        assert reader.get("2" * 64) is None
        assert reader.entry_count() == 0
        # the store recovers: the next write lands normally
        assert store.put("3" * 64, report)
        assert reader.entry_count() == 1


_CRASH_WRITER = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.core.storage import ResultStore
from repro.core.report import GradingReport
from repro.kb import get_assignment

assignment = get_assignment("assignment1")
store = ResultStore({root!r}, assignment)
report = GradingReport(assignment_name=assignment.name)
batch = store.batch()
batch.__enter__()
for i in range(50):
    store.put(f"{{i:02d}}" + "c" * 62, report)
print("READY", flush=True)
time.sleep(30)  # killed here, mid-transaction
"""


class TestCrashSafety:
    def test_sigkilled_writer_mid_transaction_reads_as_misses(
        self, tmp_path, assignment1
    ):
        """Kill -9 a writer inside an open batch: nothing it wrote is
        visible, and the database stays fully usable."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = _CRASH_WRITER.format(src=src, root=str(tmp_path))
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "READY" in line, proc.stderr.read()
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        store = ResultStore(tmp_path, assignment1)
        for i in range(50):
            assert store.get(f"{i:02d}" + "c" * 62) is None
        assert store.entry_count() == 0
        # and the database is not wedged: new writes land
        from repro.core.report import GradingReport

        assert store.put(
            "d" * 64, GradingReport(assignment_name=assignment1.name)
        )
        assert store.entry_count() == 1

    def test_corrupt_database_image_degrades_to_misses(
        self, tmp_path, assignment1, engine1
    ):
        store = ResultStore(tmp_path, assignment1)
        store.put("a" * 64, _report(assignment1, engine1))
        store._discard_connection()  # checkpoint WAL into the db
        db = database_path(tmp_path)
        db.write_bytes(b"this is not a sqlite database " * 64)
        for sidecar in ("-wal", "-shm"):
            (db.parent / (db.name + sidecar)).unlink(missing_ok=True)
        fresh = ResultStore(tmp_path, assignment1)
        assert fresh.get("a" * 64) is None
        assert fresh.entry_count() == 0

    def test_corrupt_wal_sidecar_never_yields_wrong_report(
        self, tmp_path, assignment1, engine1
    ):
        """Garbage in the ``-wal`` sidecar: reads either recover the
        committed state or miss — never a corrupted report."""
        store = ResultStore(tmp_path, assignment1)
        report = _report(assignment1, engine1)
        store.put("a" * 64, report)
        store._discard_connection()  # checkpoint + close
        db = database_path(tmp_path)
        (db.parent / (db.name + "-wal")).write_bytes(os.urandom(4096))
        fresh = ResultStore(tmp_path, assignment1)
        loaded = fresh.get("a" * 64)
        assert loaded is None or loaded.to_dict() == report.to_dict()

    def test_truncated_entry_payload_is_a_miss(self, tmp_path, assignment1):
        """A torn row (truncated JSON in the entry column) is a miss."""
        store = ResultStore(tmp_path, assignment1)
        conn = store._connection()
        conn.execute(
            "INSERT INTO records (assignment, kb, kind, key, entry)"
            " VALUES (?, ?, ?, ?, ?)",
            (*store._scope, "entry", "t" * 64,
             '{"schema": 1, "kb": "tr'),
        )
        conn.commit()
        assert store.get("t" * 64) is None


class TestPipelineIntegration:
    def test_batch_grader_store_backend_kwarg(
        self, tmp_path, assignment1
    ):
        with pytest.raises(ValueError, match="unknown store backend"):
            BatchGrader(assignment1, store=tmp_path, store_backend="json")
        grader = BatchGrader(
            assignment1, store=tmp_path, store_backend="sqlite"
        )
        good = assignment1.reference_solutions[0]
        result = grader.grade_batch([good])
        assert result.stats.counters.get("cache.store_writes") == 1
        assert database_path(tmp_path).is_file()
        warm = BatchGrader(
            assignment1, store=tmp_path, store_backend="sqlite"
        )
        replay = warm.grade_batch([good])
        assert replay.stats.counters.get("cache.store_hits") == 1
        assert replay.stats.graded == 0
        assert replay.rendered() == result.rendered()

    def test_process_mode_cluster_workers_share_sqlite_store(
        self, tmp_path, assignment1
    ):
        store = ResultStore(tmp_path, assignment1)
        grader = BatchGrader(
            assignment1, mode="process", workers=2, store=store,
            cluster=True,
        )
        good = assignment1.reference_solutions[0]
        cohort = [(f"s{i}", good + f"\n// v{i}") for i in range(4)]
        result = grader.grade_batch(cohort)
        assert [r.status for r in result.reports] == ["ok"] * 4
        serial = BatchGrader(assignment1).grade_batch(cohort)
        assert result.rendered() == serial.rendered()

    def test_sqlite3_module_is_importable(self):
        """CI guard: the interpreter must ship the sqlite3 extension."""
        assert sqlite3.sqlite_version_info >= (3, 7, 0)  # WAL support
