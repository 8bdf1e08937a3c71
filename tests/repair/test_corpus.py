"""Corpus construction, persistence, and durability.

The admission bar is functional: nothing enters a corpus without
passing the assignment's test suite.  Persistence rides the result
store's ``repair`` kind, and every corruption mode —
flipped bytes, truncation, a writer killed before the index lands —
must degrade to *fewer* suggestions, never a wrong one.
"""

from __future__ import annotations

import json
import os
import signal
import sys

import pytest

import repro
from repro.core.pipeline import source_key
from repro.core.storage import ResultStore
from repro.repair.corpus import INDEX_KEY, CorpusEntry, RepairCorpus
from repro.testing import run_tests_on_source

#: The ``src`` directory this ``repro`` was imported from, for children.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def corpus1(assignment1):
    return RepairCorpus.build(assignment1, synth_samples=4)


def repair_store(tmp_path, assignment):
    return ResultStore(tmp_path, assignment, repair=True)


class TestBuild:
    def test_references_are_admitted_first(self, assignment1, corpus1):
        assert len(corpus1) >= len(assignment1.reference_solutions)
        origins = [entry.origin for entry in corpus1.entries]
        refs = len(assignment1.reference_solutions)
        assert origins[:refs] == ["reference"] * refs

    def test_every_entry_is_functionally_verified(self, assignment1, corpus1):
        for entry in corpus1.entries:
            assert run_tests_on_source(entry.source, assignment1.tests).passed

    def test_entries_are_keyed_by_content(self, corpus1):
        for entry in corpus1.entries:
            assert entry.key == source_key(entry.source)
        assert len({entry.key for entry in corpus1.entries}) == len(corpus1)

    def test_synth_sampling_is_bounded(self, assignment1):
        small = RepairCorpus.build(assignment1, synth_samples=1)
        counts = small.origin_counts()
        assert counts["synth"] <= 1
        assert counts["reference"] == len(assignment1.reference_solutions)

    def test_zero_synth_samples_keeps_references_only(self, assignment1):
        refs_only = RepairCorpus.build(assignment1, synth_samples=0)
        assert refs_only.origin_counts()["synth"] == 0
        assert len(refs_only) >= 1


class TestEntryDecoding:
    def test_round_trip(self, corpus1):
        entry = corpus1.entries[0]
        again = CorpusEntry.from_record(entry.key, entry.to_record())
        assert again == entry

    @pytest.mark.parametrize(
        "record",
        [
            None,
            "not a mapping",
            {},
            {"source": "", "origin": "reference"},
            {"source": 42, "origin": "reference"},
            {"source": "void m() {}", "origin": None},
        ],
    )
    def test_malformed_records_are_dropped(self, record):
        assert CorpusEntry.from_record("a" * 64, record) is None

    def test_key_mismatch_is_dropped(self, corpus1):
        entry = corpus1.entries[0]
        tampered = {"source": entry.source + "\n// extra", "origin": "synth"}
        assert CorpusEntry.from_record(entry.key, tampered) is None


class TestPersistence:
    def test_save_then_load(self, tmp_path, assignment1, corpus1):
        store = repair_store(tmp_path, assignment1)
        assert corpus1.save(store) == len(corpus1)
        loaded = RepairCorpus.load(assignment1, store)
        assert loaded is not None
        assert loaded.entries == corpus1.entries

    def test_load_without_index_is_none(self, tmp_path, assignment1):
        store = repair_store(tmp_path, assignment1)
        assert RepairCorpus.load(assignment1, store) is None

    def test_missing_entry_is_dropped_not_fatal(
        self, tmp_path, assignment1, corpus1
    ):
        store = repair_store(tmp_path, assignment1)
        corpus1.save(store)
        store.put_repair(
            INDEX_KEY,
            {
                "entries": ["0" * 64] + [e.key for e in corpus1.entries],
                "count": len(corpus1) + 1,
            },
        )
        loaded = RepairCorpus.load(assignment1, store)
        assert loaded is not None
        assert loaded.entries == corpus1.entries

    def test_tampered_entry_is_dropped(
        self, tmp_path, assignment1, corpus1
    ):
        store = repair_store(tmp_path, assignment1)
        corpus1.save(store)
        victim = corpus1.entries[0]
        store.put_repair(
            victim.key, {"source": "void wrong() {}", "origin": "reference"}
        )
        loaded = RepairCorpus.load(assignment1, store)
        assert loaded is not None
        assert victim not in loaded.entries
        assert len(loaded) == len(corpus1) - 1


class TestJsonDurability:
    """Corrupted JSON in the stored rows degrades, never misleads."""

    def _saved_store(self, tmp_path, assignment1, corpus1):
        store = repair_store(tmp_path, assignment1)
        corpus1.save(store)
        return store

    def _rows(self, store):
        """``{key: raw envelope}`` for every repair record in scope."""
        return dict(store._connection().execute(
            "SELECT key, entry FROM records"
            " WHERE assignment = ? AND kb = ? AND kind = 'repair'",
            store._scope,
        ).fetchall())

    def _overwrite(self, store, key, raw):
        conn = store._connection()
        conn.execute(
            "UPDATE records SET entry = ? WHERE assignment = ? AND kb = ?"
            " AND kind = 'repair' AND key = ?",
            (raw, *store._scope, key),
        )
        conn.commit()

    def test_truncated_entry_degrades_to_drop(
        self, tmp_path, assignment1, corpus1
    ):
        store = self._saved_store(tmp_path, assignment1, corpus1)
        for key, raw in self._rows(store).items():
            if key != INDEX_KEY:
                self._overwrite(store, key, raw[: len(raw) // 2])
        loaded = RepairCorpus.load(assignment1, store)
        assert loaded is not None
        assert len(loaded) == 0

    def test_garbage_index_reads_as_no_corpus(
        self, tmp_path, assignment1, corpus1
    ):
        store = self._saved_store(tmp_path, assignment1, corpus1)
        self._overwrite(store, INDEX_KEY, "{not json")
        assert RepairCorpus.load(assignment1, store) is None

    def test_index_with_wrong_shape_reads_as_no_corpus(
        self, tmp_path, assignment1, corpus1
    ):
        store = self._saved_store(tmp_path, assignment1, corpus1)
        store.put_repair(INDEX_KEY, {"entries": "nope", "count": 1})
        assert RepairCorpus.load(assignment1, store) is None

    def test_swapped_entry_bytes_fail_the_content_rehash(
        self, tmp_path, assignment1, corpus1
    ):
        store = self._saved_store(tmp_path, assignment1, corpus1)
        victim = corpus1.entries[0]
        envelope = json.loads(self._rows(store)[victim.key])
        envelope["record"]["source"] = envelope["record"]["source"].replace(
            "==", "!="
        )
        self._overwrite(store, victim.key, json.dumps(envelope))
        loaded = RepairCorpus.load(assignment1, store)
        assert loaded is not None
        assert victim.key not in {e.key for e in loaded.entries}


class TestKilledWriter:
    """A SIGKILL'd saver leaves either no corpus or a valid prefix."""

    def test_killed_mid_save_never_yields_wrong_entries(
        self, tmp_path, assignment1
    ):
        code = f"""
import os, sys
sys.path.insert(0, {_SRC!r})
from repro.core.storage import ResultStore
from repro.kb import get_assignment
from repro.repair.corpus import RepairCorpus

assignment = get_assignment("assignment1")
store = ResultStore({os.fspath(tmp_path)!r}, assignment, repair=True)
corpus = RepairCorpus.build(assignment, synth_samples=2)
saved = 0
for entry in corpus.entries:
    store.put_repair(entry.key, entry.to_record())
    saved += 1
    if saved == 2:
        print("KILL-ME", flush=True)
        os.kill(os.getpid(), 9)  # die before the index record lands
store.put_repair("corpus", {{"entries": [], "count": 0}})
"""
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert "KILL-ME" in proc.stdout
        assert proc.returncode == -signal.SIGKILL
        store = repair_store(tmp_path, assignment1)
        loaded = RepairCorpus.load(assignment1, store)
        # The index never landed, so the corpus reads as "not built" —
        # the engine will rebuild rather than align against a torso.
        assert loaded is None
