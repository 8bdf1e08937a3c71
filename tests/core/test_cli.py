"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.kb import get_assignment


@pytest.fixture()
def reference_file(tmp_path):
    path = tmp_path / "Submission.java"
    path.write_text(get_assignment("assignment1").reference_solutions[0])
    return str(path)


@pytest.fixture()
def buggy_file(tmp_path):
    source = get_assignment("assignment1").reference_solutions[0]
    path = tmp_path / "Buggy.java"
    path.write_text(source.replace("int odd = 0;", "int odd = 1;"))
    return str(path)


class TestListAndShow:
    def test_list_prints_all_assignments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "assignment1" in out and "rit-medals-by-ath" in out
        assert "640,000" in out

    def test_show_prints_spec(self, capsys):
        assert main(["show", "assignment1"]) == 0
        out = capsys.readouterr().out
        assert "seq-odd-access" in out
        assert "reference solution" in out

    def test_unknown_assignment_errors(self, capsys):
        assert main(["show", "nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestGrade:
    def test_correct_submission_exits_zero(self, capsys, reference_file):
        assert main(["grade", "assignment1", reference_file]) == 0
        assert "[Correct]" in capsys.readouterr().out

    def test_buggy_submission_exits_one(self, capsys, buggy_file):
        assert main(["grade", "assignment1", buggy_file]) == 1
        out = capsys.readouterr().out
        assert "should start at 0" in out

    def test_stdin_submission(self, capsys, monkeypatch):
        import io
        source = get_assignment("assignment1").reference_solutions[0]
        monkeypatch.setattr("sys.stdin", io.StringIO(source))
        assert main(["grade", "assignment1", "-"]) == 0

    def test_missing_file_errors(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.java")
        assert main(["grade", "assignment1", missing]) == 2

    def test_syntax_error_reported(self, capsys, tmp_path):
        path = tmp_path / "Broken.java"
        path.write_text("void assignment1(int[] a) { int = ; }")
        assert main(["grade", "assignment1", str(path)]) in (1, 2)


class TestGradeBatch:
    def test_files_and_summary_lines(self, capsys, reference_file,
                                     buggy_file):
        assert main(["grade-batch", "assignment1", reference_file,
                     buggy_file]) == 0
        out = capsys.readouterr().out
        assert "Submission.java: ok" in out
        assert "Buggy.java: rejected" in out

    def test_directory_input(self, capsys, tmp_path):
        source = get_assignment("assignment1").reference_solutions[0]
        for name in ("a.java", "b.java"):
            (tmp_path / name).write_text(source)
        assert main(["grade-batch", "assignment1", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "a.java: ok" in out
        assert "b.java: ok 10/10 (cached)" in out

    def test_broken_submission_does_not_abort(self, capsys, reference_file,
                                              tmp_path):
        broken = tmp_path / "Broken.java"
        broken.write_text("void assignment1(int[] a) { int = ; }")
        assert main(["grade-batch", "assignment1", reference_file,
                     str(broken)]) == 0
        out = capsys.readouterr().out
        assert "Broken.java: parse-error" in out
        assert "Submission.java: ok" in out

    def test_stats_flag(self, capsys, reference_file):
        assert main(["grade-batch", "assignment1", reference_file,
                     reference_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline stats (mode=serial" in out
        assert "cache hit rate: 50.0%" in out
        assert "pattern_match" in out

    def test_synthetic_cohort(self, capsys):
        assert main(["grade-batch", "assignment1", "--synthetic", "5",
                     "--mode", "process", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("synthetic-") == 5

    def test_json_output(self, capsys, reference_file, tmp_path):
        out_file = tmp_path / "batch.json"
        assert main(["grade-batch", "assignment1", reference_file,
                     "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["assignment"] == "assignment1"
        assert payload["stats"]["submissions"] == 1
        assert payload["submissions"][0]["status"] == "ok"

    def test_cache_dir_replays_across_invocations(
        self, capsys, reference_file, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        assert main(["grade-batch", "assignment1", reference_file,
                     "--cache-dir", cache_dir, "--stats"]) == 0
        first = capsys.readouterr().out
        assert "cache.store_writes" in first
        assert main(["grade-batch", "assignment1", reference_file,
                     "--cache-dir", cache_dir, "--stats"]) == 0
        second = capsys.readouterr().out
        assert "Submission.java: ok" in second
        assert "cache hit rate: 100.0%" in second
        assert "cache.store_hits" in second
        assert "pattern_match" not in second  # nothing was re-matched

    def test_render_flag(self, capsys, reference_file):
        assert main(["grade-batch", "assignment1", reference_file,
                     "--render"]) == 0
        out = capsys.readouterr().out
        assert "[Correct]" in out and "Score:" in out

    def test_empty_batch_errors(self, capsys):
        assert main(["grade-batch", "assignment1"]) == 2
        assert "error" in capsys.readouterr().err


class TestTest:
    def test_passing_suite(self, capsys, reference_file):
        assert main(["test", "assignment1", reference_file]) == 0
        assert "6/6" in capsys.readouterr().out

    def test_failing_suite_details(self, capsys, buggy_file):
        assert main(["test", "assignment1", buggy_file]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestServeArgs:
    # perfbench's served workload starts the service with exactly these
    PERFBENCH_ARGS = ["serve", "--port", "0", "--workers", "2",
                      "--pool-mode", "process"]

    def test_perfbench_arguments_parse(self):
        args = build_parser().parse_args(self.PERFBENCH_ARGS)
        assert (args.port, args.workers) == (0, 2)

    def test_inline_pool_mode_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "--port", "0", "--pool-mode", "inline"]
            )
        assert excinfo.value.code == 2
        assert "--pool-mode" in capsys.readouterr().err

    def test_pool_mode_is_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        assert "--pool-mode" not in capsys.readouterr().out


class TestEpdg:
    def test_text_output(self, capsys, reference_file):
        assert main(["epdg", "assignment1", reference_file]) == 0
        out = capsys.readouterr().out
        assert "EPDG of assignment1" in out
        assert "[Cond]" in out

    def test_dot_output(self, capsys, reference_file):
        assert main(["epdg", "assignment1", reference_file, "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out


class TestExportKb:
    def test_export_writes_all_files(self, capsys, tmp_path):
        out_dir = tmp_path / "kb"
        assert main(["export-kb", str(out_dir)]) == 0
        patterns = list((out_dir / "patterns").glob("*.json"))
        assignments = list((out_dir / "assignments").glob("*.json"))
        assert len(patterns) == 24
        assert len(assignments) == 12

    def test_exported_pattern_round_trips(self, tmp_path):
        from repro.patterns import pattern_from_dict
        out_dir = tmp_path / "kb"
        main(["export-kb", str(out_dir)])
        payload = json.loads(
            (out_dir / "patterns" / "seq-odd-access.json").read_text()
        )
        pattern = pattern_from_dict(payload)
        assert pattern.name == "seq-odd-access"
        assert len(pattern.nodes) == 6

    def test_exported_assignment_references_known_patterns(self, tmp_path):
        from repro.kb import all_patterns
        out_dir = tmp_path / "kb"
        main(["export-kb", str(out_dir)])
        payload = json.loads(
            (out_dir / "assignments" / "assignment1.json").read_text()
        )
        known = set(all_patterns())
        for method in payload["expected_methods"]:
            for entry in method["patterns"]:
                assert entry["pattern"] in known


class TestRepairCli:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        cache = tmp_path / "cache"
        assert main(["repair", "corpus", "build", "assignment1",
                     "--cache-dir", str(cache),
                     "--synth-samples", "2"]) == 0
        return cache

    def test_corpus_build_reports_counts(self, capsys, corpus_dir):
        out = capsys.readouterr().out
        assert "built repair corpus for assignment1" in out
        assert "reference" in out and "synthetic" in out

    def test_corpus_info_after_build(self, capsys, corpus_dir):
        capsys.readouterr()
        assert main(["repair", "corpus", "info", "assignment1",
                     "--cache-dir", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "verified solutions" in out
        assert "repair records in scope" in out

    def test_corpus_info_before_build(self, capsys, tmp_path):
        assert main(["repair", "corpus", "info", "assignment1",
                     "--cache-dir", str(tmp_path / "empty")]) == 0
        assert "corpus: not built" in capsys.readouterr().out

    def test_grade_batch_repair_renders_suggestion(
        self, capsys, tmp_path, corpus_dir
    ):
        capsys.readouterr()
        buggy = get_assignment("assignment1").reference_solutions[0]
        path = tmp_path / "Wrong.java"
        path.write_text(buggy.replace("i % 2 == 1", "i % 2 == 0"))
        assert main(["grade-batch", "assignment1", str(path),
                     "--repair", "--cache-dir", str(corpus_dir),
                     "--render", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Suggested fix" in out
        assert "repair.suggestions" in out

    def test_store_info_counts_repair_records(
        self, capsys, corpus_dir
    ):
        capsys.readouterr()
        assert main(["store", "info", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "repair:" in out
