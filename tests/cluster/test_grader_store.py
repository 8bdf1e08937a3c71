"""ClusterGrader + ResultStore: bucket reuse, warm runs, fallbacks."""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterGrader
from repro.cluster.fingerprint import fingerprint_source
from repro.core.engine import FeedbackEngine
from repro.core.pipeline import BatchGrader
from repro.core.storage import SCHEMA_VERSION, ResultStore
from repro.instrumentation import collecting

from tests.cluster.conftest import make_variant

SOURCE = """\
public class Main {
    static int zorp(int blee) {
        int accum = 0;
        for (int kk = 0; kk < blee; kk++) {
            accum += kk;
        }
        return accum;
    }
}
"""


class TestStoreRoundTrip:
    def test_warm_grader_specializes_from_the_stored_record(
        self, tmp_path, assignment1, audit1
    ):
        store = ResultStore(tmp_path, assignment1)
        v1 = make_variant(SOURCE, audit1, 1)
        v2 = make_variant(SOURCE, audit1, 2)

        cold = ClusterGrader(FeedbackEngine(assignment1), store=store)
        with collecting() as cold_stats:
            cold_report = cold.grade(v1)
        assert cold_stats.counters.get("cluster.representatives") == 1
        digest = fingerprint_source(v1, audit1).digest
        assert store.get_cluster(digest) is not None

        # a fresh grader over the same store: no representative grade,
        # the whole bucket is served from the persisted record
        warm = ClusterGrader(FeedbackEngine(assignment1), store=store)
        with collecting() as warm_stats:
            warm_report = warm.grade(v2)
        assert warm_stats.counters.get("cluster.store_hits") == 1
        assert warm_stats.counters.get("cluster.specialized") == 1
        assert "cluster.representatives" not in warm_stats.counters

        expected = FeedbackEngine(assignment1).grade(v2)
        assert warm_report.render() == expected.render()
        assert warm_report.to_dict() == expected.to_dict()
        assert cold_report.assignment_name == warm_report.assignment_name

    def test_corrupt_stored_record_falls_back_to_full_grading(
        self, tmp_path, assignment1, audit1
    ):
        store = ResultStore(tmp_path, assignment1)
        digest = fingerprint_source(SOURCE, audit1).digest
        assert store.put_cluster(digest, {"version": 999})

        grader = ClusterGrader(FeedbackEngine(assignment1), store=store)
        with collecting() as stats:
            report = grader.grade(SOURCE)
        assert stats.counters.get("cluster.fallbacks") == 1
        expected = FeedbackEngine(assignment1).grade(SOURCE)
        assert report.render() == expected.render()
        assert report.to_dict() == expected.to_dict()


class TestClusterKeyForwardCompat:
    def test_entry_without_cluster_key_reads_as_unclustered(
        self, tmp_path, assignment1, audit1
    ):
        store = ResultStore(tmp_path, assignment1)
        report = FeedbackEngine(assignment1).grade(SOURCE)
        envelope = {
            "schema": SCHEMA_VERSION,
            "kb": store.fingerprint,
            "report": report.to_dict(),
        }
        # an entry as older clustered runs wrote it, linked to its
        # bucket by a ``cluster`` key, and one without the key
        legacy = {"cluster": fingerprint_source(SOURCE, audit1).digest}
        conn = store._connection()
        for key, extra in (("linked", legacy), ("pre-cluster", {})):
            conn.execute(
                "INSERT INTO records (assignment, kb, kind, key, entry)"
                " VALUES (?, ?, ?, ?, ?)",
                (*store._scope, "entry", key, json.dumps(
                    {**envelope, "key": key, **extra},
                    separators=(",", ":"),
                )),
            )
        conn.commit()

        for key in ("linked", "pre-cluster"):
            restored = store.get(key)
            assert restored is not None
            assert restored.render() == report.render()
            assert restored.to_dict() == report.to_dict()


class TestFingerprintOnce:
    def test_store_batch_fingerprints_each_fresh_job_once(
        self, tmp_path, monkeypatch, assignment1, audit1
    ):
        calls: list[str] = []

        def counting(source, audit):
            calls.append(source)
            return fingerprint_source(source, audit)

        monkeypatch.setattr(
            "repro.cluster.grader.fingerprint_source", counting
        )
        cohort = [make_variant(SOURCE, audit1, r) for r in range(3)]
        cohort.append(assignment1.reference_solutions[0])
        result = BatchGrader(
            assignment1, store=tmp_path, cluster=True
        ).grade_batch(cohort)
        assert result.stats.graded == len(cohort)
        assert result.stats.counters.get("cache.store_writes") == len(cohort)
        assert sorted(calls) == sorted(cohort)


class TestBucketRegistryBound:
    def test_oldest_bucket_is_dropped_and_regrades_identically(
        self, monkeypatch, assignment1, audit1
    ):
        monkeypatch.setattr("repro.cluster.grader.MAX_BUCKETS", 2)
        sources = [
            SOURCE,
            SOURCE.replace("accum += kk;", "accum -= kk;"),
            assignment1.reference_solutions[0],
        ]
        digests = [fingerprint_source(s, audit1).digest for s in sources]
        assert len(set(digests)) == 3

        grader = ClusterGrader(FeedbackEngine(assignment1))
        with collecting() as stats:
            for source in sources:
                grader.grade(source)
        assert stats.counters.get("cluster.representatives") == 3
        assert list(grader._buckets) == digests[1:]

        # the first bucket was dropped: its next member grades in full
        member = make_variant(SOURCE, audit1, 1)
        with collecting() as stats:
            report = grader.grade(member)
        assert stats.counters.get("cluster.representatives") == 1
        assert len(grader._buckets) == 2
        expected = FeedbackEngine(assignment1).grade(member)
        assert report.render() == expected.render()
        assert report.to_dict() == expected.to_dict()


class TestBatchModes:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_clustered_batch_matches_plain(self, mode, assignment1, audit1):
        # SOURCE has genuinely renameable identifiers (assignment1's own
        # reference keeps every spelling via the report vocabulary, so
        # its alpha-variants would be byte-identical — a vacuous cohort)
        cohort = [
            (f"s{i}v{r}", make_variant(source, audit1, r))
            for i, source in enumerate(
                [SOURCE, assignment1.reference_solutions[0]]
            )
            for r in range(3)
        ]
        assert len({src for _, src in cohort}) > 2
        plain = BatchGrader(assignment1, cache=False).grade_batch(cohort)
        clustered = BatchGrader(
            assignment1, mode=mode, workers=2, cache=False, cluster=True
        ).grade_batch(cohort)
        for p, c in zip(plain.reports, clustered.reports):
            assert p.render() == c.render()
            assert p.to_dict() == c.to_dict()
        counters = clustered.stats.counters
        assert counters.get("cluster.submissions") == len(cohort)
        assert counters.get("cluster.specialized", 0) > 0
        assert counters.get("cluster.fallbacks", 0) == 0
