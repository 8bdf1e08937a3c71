"""Tests for the streaming campaign runner and its CLI surface.

The campaign runner's contract: grade a lazy stream in journaled
shards, resume an interrupted campaign with zero regrades, refuse to
resume when the journal and the stream disagree (shard size or shard
digest), and produce byte-identical shard outputs whether the reports
were graded or replayed from the store.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.core.campaign import (
    CampaignError,
    CampaignRunner,
    _shard_digest,
    iter_manifest,
    synthetic_stream,
)
from repro.core.metrics import PipelineStats
from repro.core.pipeline import BatchGrader
from repro.core.storage import ResultStore
from repro.core.storage import BUSY_TIMEOUT_MS


@pytest.fixture
def store(tmp_path, assignment1):
    return ResultStore(tmp_path / "store", assignment1)


def _cohort(assignment1, n=10):
    return list(synthetic_stream(assignment1, n, seed=7, unique=4))


class TestSyntheticStream:
    def test_deterministic_per_seed(self, assignment1):
        a = list(synthetic_stream(assignment1, 20, seed=3))
        b = list(synthetic_stream(assignment1, 20, seed=3))
        assert a == b
        assert a != list(synthetic_stream(assignment1, 20, seed=4))

    def test_bounded_pool_makes_duplicates(self, assignment1):
        items = list(synthetic_stream(assignment1, 50, seed=3, unique=5))
        assert len(items) == 50
        assert len({source for _, source in items}) <= 5
        assert len({label for label, _ in items}) == 50  # labels unique

    def test_lazy(self, assignment1):
        stream = synthetic_stream(assignment1, 10**9)
        assert next(stream)[0] == "synthetic-00000000"


class TestShardDigest:
    def test_order_and_content_sensitive(self):
        a = [("s1", "x"), ("s2", "y")]
        assert _shard_digest(a) == _shard_digest(list(a))
        assert _shard_digest(a) != _shard_digest(list(reversed(a)))
        assert _shard_digest(a) != _shard_digest([("s1", "x"), ("s2", "z")])

    def test_label_source_boundary_is_unambiguous(self):
        assert _shard_digest([("ab", "c")]) != _shard_digest([("a", "bc")])


class TestStatsRoundTrip:
    def test_from_dict_inverts_to_dict(self):
        stats = PipelineStats(mode="process", workers=3, submissions=10,
                              graded=7, cache_hits=3, wall_seconds=1.5)
        stats.phase_seconds["parse"] = 0.25
        stats.phase_counts["parse"] = 7
        stats.counters["cache.store_writes"] = 7
        restored = PipelineStats.from_dict(stats.to_dict())
        assert restored.to_dict() == stats.to_dict()


class TestCampaignRun:
    def test_grades_stream_in_shards(self, store, assignment1, tmp_path):
        runner = CampaignRunner(assignment1, store, shard_size=4)
        result = runner.run(_cohort(assignment1, 10), campaign_id="c1")
        assert result.completed
        assert result.shards_total == 3
        assert result.shards_graded == 3
        assert result.shards_resumed == 0
        assert result.submissions == 10
        assert result.stats.submissions == 10
        # the journal landed: header + one record per shard
        assert store.get_campaign("c1/header") is not None
        for i in range(3):
            assert store.get_campaign(f"c1/shard-{i:08d}") is not None

    def test_resume_finishes_with_zero_regrades(
        self, store, assignment1
    ):
        cohort = _cohort(assignment1, 10)
        runner = CampaignRunner(assignment1, store, shard_size=4)
        partial = runner.run(cohort, campaign_id="c1", max_shards=2)
        assert not partial.completed
        assert partial.shards_total == 2

        resumed = CampaignRunner(assignment1, store, shard_size=4).run(
            cohort, campaign_id="c1"
        )
        assert resumed.completed
        assert resumed.shards_total == 3
        assert resumed.shards_resumed == 2
        assert resumed.shards_graded == 1
        # the zero-regrade property: this invocation graded only the
        # final shard's unseen work, and nothing from shards 0-1
        assert resumed.run_stats.submissions == 2
        # whole-campaign stats still cover everything
        assert resumed.stats.submissions == 10

    def test_full_rerun_grades_nothing(self, store, assignment1):
        cohort = _cohort(assignment1, 10)
        CampaignRunner(assignment1, store, shard_size=4).run(
            cohort, campaign_id="c1"
        )
        rerun = CampaignRunner(assignment1, store, shard_size=4).run(
            cohort, campaign_id="c1"
        )
        assert rerun.shards_resumed == 3
        assert rerun.shards_graded == 0
        assert rerun.run_stats.graded == 0
        assert rerun.run_stats.submissions == 0

    def test_no_resume_regrades_with_identical_output(
        self, store, assignment1, tmp_path
    ):
        cohort = _cohort(assignment1, 8)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        CampaignRunner(assignment1, store, shard_size=4).run(
            cohort, campaign_id="c1", output_dir=out1
        )
        rerun = CampaignRunner(assignment1, store, shard_size=4).run(
            cohort, campaign_id="c1", resume=False, output_dir=out2
        )
        assert rerun.shards_resumed == 0
        for name in ("shard-00000000.jsonl", "shard-00000001.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_digest_mismatch_refuses_to_resume(self, store, assignment1):
        cohort = _cohort(assignment1, 8)
        CampaignRunner(assignment1, store, shard_size=4).run(
            cohort, campaign_id="c1", max_shards=1
        )
        changed = [(label, source + "\n// edited") for label, source in cohort]
        with pytest.raises(CampaignError, match="manifest changed"):
            CampaignRunner(assignment1, store, shard_size=4).run(
                changed, campaign_id="c1"
            )

    def test_shard_size_mismatch_refuses_to_resume(
        self, store, assignment1
    ):
        cohort = _cohort(assignment1, 8)
        CampaignRunner(assignment1, store, shard_size=4).run(
            cohort, campaign_id="c1", max_shards=1
        )
        with pytest.raises(CampaignError, match="shard_size"):
            CampaignRunner(assignment1, store, shard_size=2).run(
                cohort, campaign_id="c1"
            )

    def test_campaign_id_is_validated(self, store, assignment1):
        runner = CampaignRunner(assignment1, store)
        for bad in ("../evil", "a/b", "", "sp ace"):
            with pytest.raises(CampaignError):
                runner.run([], campaign_id=bad)

    def test_resumed_shard_regenerates_missing_output(
        self, store, assignment1, tmp_path
    ):
        cohort = _cohort(assignment1, 8)
        out = tmp_path / "out"
        CampaignRunner(assignment1, store, shard_size=4).run(
            cohort, campaign_id="c1", output_dir=out
        )
        first = (out / "shard-00000000.jsonl").read_bytes()
        (out / "shard-00000000.jsonl").unlink()
        resumed = CampaignRunner(assignment1, store, shard_size=4).run(
            cohort, campaign_id="c1", output_dir=out
        )
        assert resumed.run_stats.graded == 0  # replayed from the store
        assert (out / "shard-00000000.jsonl").read_bytes() == first

    def test_output_lines_are_labelled_reports(
        self, store, assignment1, tmp_path
    ):
        cohort = _cohort(assignment1, 3)
        out = tmp_path / "out"
        CampaignRunner(assignment1, store, shard_size=10).run(
            cohort, campaign_id="c1", output_dir=out
        )
        lines = (out / "shard-00000000.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line, (label, _) in zip(lines, cohort):
            record = json.loads(line)
            assert record["label"] == label
            assert len(record["key"]) == 64
            assert record["report"]["assignment"] == assignment1.name


def _shard_bytes(batch):
    """One shard's JSONL deliverable, as ``CampaignRunner`` writes it."""
    lines = [
        json.dumps({"label": item.label, "key": item.key,
                    "report": item.report.to_dict()},
                   separators=(",", ":"))
        for item in batch.items
    ]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


class TestStoreReplayIdentity:
    def test_outputs_byte_identical_across_store_replay(
        self, store, assignment1, tmp_path
    ):
        cohort = _cohort(assignment1, 10)
        outputs, runs = {}, {}
        for campaign_id in ("fresh", "replay"):
            out = tmp_path / f"out-{campaign_id}"
            runs[campaign_id] = CampaignRunner(
                assignment1, store, shard_size=4
            ).run(cohort, campaign_id=campaign_id, output_dir=out)
            outputs[campaign_id] = b"".join(
                p.read_bytes() for p in sorted(out.glob("*.jsonl"))
            )
        # the second campaign replayed every report from the store
        replay = runs["replay"].run_stats
        assert replay.graded == 0
        assert replay.counters["cache.store_hits"] == runs["fresh"].stats.graded
        grader = BatchGrader(assignment1)
        storeless = b"".join(
            _shard_bytes(grader.grade_batch(cohort[i:i + 4]))
            for i in range(0, len(cohort), 4)
        )
        assert outputs["fresh"]  # non-empty
        assert outputs["fresh"] == outputs["replay"] == storeless


class TestProcessModeStoreWrites:
    """Process workers persist what serial grading persists, promptly.

    Workers write bucket and repair-corpus records while they grade; a
    parent holding the store's write lock across the grade made each of
    those writes wait out the busy timeout and then fail.
    """

    @staticmethod
    def _records(root, assignment1, mode, **profile):
        started = time.perf_counter()
        CampaignRunner(
            assignment1, root, shard_size=6, mode=mode, workers=2,
            **profile,
        ).run(_cohort(assignment1, 12) if profile.get("cluster")
              else _cohort(assignment1, 6), campaign_id="c1")
        elapsed = time.perf_counter() - started
        plain = ResultStore(root, assignment1)
        corpus = ResultStore(root, assignment1, repair=True)
        counts = (
            plain.entry_count() + corpus.entry_count(),
            plain._count("cluster"),
            corpus.repair_count(),
        )
        return counts, elapsed

    @pytest.mark.parametrize("profile", [{"cluster": True}, {"repair": True}],
                             ids=["cluster", "repair"])
    def test_process_mode_persists_what_serial_persists(
        self, assignment1, tmp_path, profile
    ):
        serial, _ = self._records(tmp_path / "serial", assignment1,
                                  "serial", **profile)
        process, elapsed = self._records(tmp_path / "process", assignment1,
                                         "process", **profile)
        assert process == serial
        assert serial[1] > 0 if profile.get("cluster") else serial[2] > 0
        # no worker write waited out the busy timeout
        assert elapsed < BUSY_TIMEOUT_MS / 1000


class TestIterManifest:
    def test_inline_sources(self, tmp_path, assignment1):
        path = tmp_path / "m.jsonl"
        good = assignment1.reference_solutions[0]
        path.write_text(
            json.dumps({"label": "s1", "source": good}) + "\n"
            + json.dumps({"source": good}) + "\n"
        )
        items = list(iter_manifest(path))
        assert items[0] == ("s1", good)
        assert items[1][0] == "line-00000002"  # default label

    def test_path_sources_resolve_relative_to_manifest(
        self, tmp_path, assignment1
    ):
        good = assignment1.reference_solutions[0]
        (tmp_path / "subs").mkdir()
        (tmp_path / "subs" / "a.java").write_text(good)
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"label": "a", "path": "subs/a.java"}) + "\n"
        )
        assert list(iter_manifest(path)) == [("a", good)]

    def test_bad_lines_raise_campaign_error(self, tmp_path):
        cases = [
            "not json\n",
            json.dumps(["a", "list"]) + "\n",
            json.dumps({"label": "x"}) + "\n",  # neither source nor path
            json.dumps({"label": "x", "path": "missing.java"}) + "\n",
        ]
        for i, content in enumerate(cases):
            path = tmp_path / f"m{i}.jsonl"
            path.write_text(content)
            with pytest.raises(CampaignError):
                list(iter_manifest(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n\n" + json.dumps({"source": "x"}) + "\n\n")
        assert len(list(iter_manifest(path))) == 1


class TestCampaignCli:
    def test_synthetic_campaign_checkpoint_then_resume(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        base = ["grade-campaign", "assignment1", "--synthetic", "10",
                "--cache-dir", cache, "--shard-size", "4",
                "--campaign-id", "cli"]
        assert main(base + ["--max-shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "stopped" in out and "2 shards" in out

        assert main(base + ["--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] is True
        assert payload["shards_resumed"] == 2
        assert payload["shards_graded"] == 1
        assert payload["run_stats"]["graded"] <= 2

    def test_manifest_campaign_with_output(self, capsys, tmp_path,
                                           assignment1):
        good = assignment1.reference_solutions[0]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            "".join(
                json.dumps({"label": f"s{i}", "source": good}) + "\n"
                for i in range(3)
            )
        )
        out_dir = tmp_path / "out"
        assert main([
            "grade-campaign", "assignment1", str(manifest),
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(out_dir),
        ]) == 0
        assert (out_dir / "shard-00000000.jsonl").exists()
        assert "3 submissions" in capsys.readouterr().out

    def test_manifest_and_synthetic_are_exclusive(self, capsys, tmp_path):
        assert main([
            "grade-campaign", "assignment1",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        assert main([
            "grade-campaign", "assignment1", "whatever.jsonl",
            "--synthetic", "5",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 2

    def test_store_info_counts_records(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["store", "info", cache]) == 0
        assert "not created yet" in capsys.readouterr().out
        assert main(["grade-campaign", "assignment1", "--synthetic", "5",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["store", "info", cache]) == 0
        out = capsys.readouterr().out
        assert "store.sqlite" in out
        assert "campaign: 2 records" in out  # the header and one shard
        assert "entry: " in out
