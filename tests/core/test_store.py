"""Tests for the persistent cross-process result store.

The store's contract is deliberately forgiving: anything it cannot
fully read and validate is a miss, writes race benignly, and a changed
knowledge base invalidates by landing in a different fingerprint
scope.  Every one of those claims gets a test here, plus the
pipeline integration (counters, promotion into the in-memory cache, and
the no-reuse ``cache=False`` baseline staying store-free).
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from repro.core.pipeline import BatchGrader, source_key
from repro.core.report import GradingReport
from repro.core.storage import (
    SCHEMA_VERSION,
    ResultStore,
    kb_fingerprint,
    _safe_component,
)
from repro.kb import get_assignment


@pytest.fixture()
def store(assignment1, tmp_path):
    return ResultStore(tmp_path, assignment1)


def _report(assignment1, engine1):
    return engine1.grade(assignment1.reference_solutions[0])


class TestRoundTrip:
    def test_put_then_get(self, store, assignment1, engine1):
        report = _report(assignment1, engine1)
        assert store.put("k" * 64, report) is True
        loaded = store.get("k" * 64)
        assert loaded is not None
        assert loaded.to_dict() == report.to_dict()
        assert loaded.render() == report.render()

    def test_missing_key_is_a_miss(self, store):
        assert store.get("0" * 64) is None
        assert store.entry_count() == 0

    def test_overwrite_is_idempotent(self, store, assignment1, engine1):
        report = _report(assignment1, engine1)
        store.put("e" * 64, report)
        store.put("e" * 64, report)
        assert store.entry_count() == 1
        assert store.get("e" * 64).to_dict() == report.to_dict()


class TestKbVersioning:
    def test_fingerprint_is_deterministic(self, assignment1):
        assert kb_fingerprint(assignment1) == kb_fingerprint(assignment1)

    def test_fingerprint_tracks_matching_flags(self, assignment1):
        changed = dataclasses.replace(
            assignment1,
            synthesize_else_conditions=(
                not assignment1.synthesize_else_conditions
            ),
        )
        assert kb_fingerprint(changed) != kb_fingerprint(assignment1)

    def test_fingerprint_ignores_reference_solutions(self, assignment1):
        changed = dataclasses.replace(
            assignment1, reference_solutions=["int f() { return 0; }"]
        )
        assert kb_fingerprint(changed) == kb_fingerprint(assignment1)

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
        # the old entries are untouched, just unreachable
        assert old.get("f" * 64) is not None

    def test_assignments_do_not_collide(self, tmp_path, engine1):
        a1 = get_assignment("assignment1")
        a2 = get_assignment("esc-LAB-3-P1-V1")
        report = engine1.grade(a1.reference_solutions[0])
        ResultStore(tmp_path, a1).put("a" * 64, report)
        assert ResultStore(tmp_path, a2).get("a" * 64) is None

    def test_unsafe_assignment_names_become_safe_paths(self):
        assert _safe_component("../../etc/passwd") == ".._.._etc_passwd"
        assert _safe_component("") == "_"


class _StoredRow:
    """The database row holding one stored entry, read and overwritten raw."""

    def __init__(self, store, key):
        self.store = store
        self.where = (*store._scope, "entry", key)

    def read(self) -> str:
        return self.store._connection().execute(
            "SELECT entry FROM records"
            " WHERE assignment = ? AND kb = ? AND kind = ? AND key = ?",
            self.where,
        ).fetchone()[0]

    def write(self, value) -> None:
        conn = self.store._connection()
        conn.execute(
            "UPDATE records SET entry = ?"
            " WHERE assignment = ? AND kb = ? AND kind = ? AND key = ?",
            (value, *self.where),
        )
        conn.commit()


class TestCorruptionTolerance:
    def _stored(self, store, assignment1, engine1):
        key = "c" * 64
        store.put(key, _report(assignment1, engine1))
        return key, _StoredRow(store, key)

    def test_truncated_entry_is_a_miss(self, store, assignment1, engine1):
        key, row = self._stored(store, assignment1, engine1)
        row.write(row.read()[: len(row.read()) // 2])
        assert store.get(key) is None

    def test_garbage_entry_is_a_miss(self, store, assignment1, engine1):
        key, row = self._stored(store, assignment1, engine1)
        row.write(b"\x00\xffnot json at all")
        assert store.get(key) is None

    def test_empty_entry_is_a_miss(self, store, assignment1, engine1):
        key, row = self._stored(store, assignment1, engine1)
        row.write("")
        assert store.get(key) is None

    def test_schema_mismatch_is_a_miss(self, store, assignment1, engine1):
        key, row = self._stored(store, assignment1, engine1)
        entry = json.loads(row.read())
        entry["schema"] = SCHEMA_VERSION + 1
        row.write(json.dumps(entry))
        assert store.get(key) is None

    def test_key_mismatch_is_a_miss(self, store, assignment1, engine1):
        key, row = self._stored(store, assignment1, engine1)
        entry = json.loads(row.read())
        entry["key"] = "d" * 64
        row.write(json.dumps(entry))
        assert store.get(key) is None

    def test_undecodable_report_is_a_miss(self, store, assignment1, engine1):
        key, row = self._stored(store, assignment1, engine1)
        entry = json.loads(row.read())
        entry["report"] = {"nonsense": True}
        row.write(json.dumps(entry))
        assert store.get(key) is None

    def test_unwritable_root_fails_softly(
        self, tmp_path, assignment1, engine1
    ):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the store wants a directory")
        store = ResultStore(blocker, assignment1)
        assert store.put("b" * 64, _report(assignment1, engine1)) is False
        assert store.get("b" * 64) is None


class TestConcurrentWriters:
    def test_racing_writers_leave_readable_entries(
        self, store, assignment1, engine1
    ):
        report = _report(assignment1, engine1)
        keys = [f"{i:02x}" * 32 for i in range(16)]
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            try:
                for i in range(25):
                    key = keys[(seed + i) % len(keys)]
                    assert store.put(key, report) is True
                    loaded = store.get(key)
                    # a concurrent writer may be mid-transaction, but
                    # we see a full entry or a miss, never a torn read
                    if loaded is not None:
                        assert loaded.to_dict() == report.to_dict()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.entry_count() == len(keys)
        for key in keys:
            assert store.get(key).to_dict() == report.to_dict()


class TestPipelineIntegration:
    def _cohort(self, assignment1):
        good = assignment1.reference_solutions[0]
        return [
            ("alice", good),
            ("bob", good),  # duplicate: served by the in-memory cache
            ("carol", "int x = ;"),  # parse error: cacheable
        ]

    def test_cold_run_writes_then_fresh_grader_reads(
        self, tmp_path, assignment1
    ):
        cohort = self._cohort(assignment1)
        first = BatchGrader(assignment1, store=tmp_path).grade_batch(cohort)
        assert first.stats.graded == 2
        assert first.stats.counters["cache.store_misses"] == 2
        assert first.stats.counters["cache.store_writes"] == 2

        second = BatchGrader(assignment1, store=tmp_path).grade_batch(cohort)
        assert second.stats.graded == 0
        assert second.stats.cache_hits == 3
        assert second.stats.counters["cache.store_hits"] == 2
        assert "pattern_match" not in second.stats.phase_counts
        assert second.rendered() == first.rendered()

    def test_store_accepts_a_path_or_an_instance(
        self, tmp_path, assignment1
    ):
        cohort = self._cohort(assignment1)
        BatchGrader(assignment1, store=str(tmp_path)).grade_batch(cohort)
        explicit = ResultStore(tmp_path, assignment1)
        result = BatchGrader(
            assignment1, store=explicit
        ).grade_batch(cohort)
        assert result.stats.counters["cache.store_hits"] == 2

    def test_no_cache_baseline_never_touches_the_store(
        self, tmp_path, assignment1
    ):
        cohort = self._cohort(assignment1)
        BatchGrader(assignment1, store=tmp_path).grade_batch(cohort)
        result = BatchGrader(
            assignment1, cache=False, store=tmp_path
        ).grade_batch(cohort)
        assert result.stats.graded == 3
        assert not any(
            name.startswith("cache.store")
            for name in result.stats.counters
        )

    def test_timeouts_are_never_persisted(self, tmp_path, assignment1):
        grader = BatchGrader(
            assignment1, store=tmp_path, max_seconds=1e-9
        )
        result = grader.grade_batch(self._cohort(assignment1))
        assert result.stats.timeouts > 0
        assert all(
            item.report.status == "timeout" for item in result.items
        )
        assert grader.store.entry_count() == 0

    def test_store_key_is_the_pipeline_source_key(
        self, tmp_path, assignment1
    ):
        good = assignment1.reference_solutions[0]
        grader = BatchGrader(assignment1, store=tmp_path)
        grader.grade_batch([("a", good)])
        assert grader.store.get(source_key(good)) is not None


@pytest.mark.slow
class TestConcurrentWritersStress:
    def test_many_processes_worth_of_threads(
        self, store, assignment1, engine1
    ):
        report = _report(assignment1, engine1)
        keys = [f"{i:02x}" * 32 for i in range(64)]
        barrier = threading.Barrier(24)
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            try:
                barrier.wait(timeout=30)
                for i in range(60):
                    key = keys[(seed * 7 + i) % len(keys)]
                    store.put(key, report)
                    loaded = store.get(key)
                    if loaded is not None:
                        assert loaded.to_dict() == report.to_dict()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(24)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.entry_count() == len(keys)


class TestPerfScoping:
    """Perf-enabled runs must never contaminate plain or repair caches."""

    def test_fingerprints_are_disjoint(self, assignment1, tmp_path):
        from repro.core.profile import GradingProfile

        plain = ResultStore(tmp_path, assignment1)
        perf = ResultStore(tmp_path, assignment1, perf=True)
        both = ResultStore(tmp_path, assignment1, repair=True, perf=True)
        assert perf.fingerprint == GradingProfile(perf=True).scope(
            assignment1
        )
        assert both.fingerprint == GradingProfile(
            repair=True, perf=True
        ).scope(assignment1)
        assert len({
            plain.fingerprint, perf.fingerprint, both.fingerprint,
        }) == 3

    def test_perf_write_is_invisible_to_plain_store(
        self, assignment1, engine1, tmp_path
    ):
        report = _report(assignment1, engine1)
        scoped = ResultStore(tmp_path, assignment1, perf=True)
        assert scoped.put("b" * 64, report)
        assert ResultStore(tmp_path, assignment1).get("b" * 64) is None
        assert scoped.get("b" * 64) is not None

    def test_fingerprint_tracks_spec_changes(self, assignment1, tmp_path):
        import dataclasses as dc

        from repro.analysis.perf.analyzer import PerfAnalyzer

        spec = assignment1.perf
        assert spec is not None
        changed = dc.replace(
            assignment1, perf=dc.replace(spec, size_metric="int-value")
        )
        assert PerfAnalyzer.fingerprint(assignment1) != (
            PerfAnalyzer.fingerprint(changed)
        )
        assert PerfAnalyzer.fingerprint(assignment1) == (
            PerfAnalyzer.fingerprint(assignment1)
        )

    def test_grader_rejects_mismatched_store_scope(
        self, assignment1, tmp_path
    ):
        plain = ResultStore(tmp_path, assignment1)
        with pytest.raises(ValueError, match="perf scope"):
            BatchGrader(assignment1, store=plain, perf=True)
        scoped = ResultStore(tmp_path, assignment1, perf=True)
        with pytest.raises(ValueError, match="perf scope"):
            BatchGrader(assignment1, store=scoped)
