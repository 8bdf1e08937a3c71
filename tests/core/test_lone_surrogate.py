"""A lone surrogate in a submission is a parse error on every path.

A JSON body may carry an escaped ``"\\ud800"`` that decodes to a
string no UTF-8 codec accepts.  The engine always answered such a
source ``parse-error``; hashing it for the result cache raised
``UnicodeEncodeError`` instead, which failed a whole batch and made the
service answer 500.

A submission *file* that is not UTF-8 reaches the same state: the CLI
and campaign manifests decode files with ``surrogateescape``, so a bad
byte becomes a lone surrogate instead of aborting the whole command.
"""

from __future__ import annotations

import asyncio
import io
import json
import sys

import pytest

from repro.cli import main
from repro.core import FeedbackEngine
from repro.core.pipeline import BatchGrader, source_key
from tests.serve.conftest import grade_call, http_call, running_service

SURROGATE_SOURCE = "void assignment1(int[] a) { int \ud800 = 0; }"


def _serve_status(source):
    async def go():
        async with running_service() as service:
            status, payload = await grade_call(
                service, "assignment1", {"source": source}
            )
            metrics = json.loads((await http_call(
                service.config.host, service.port, "GET", "/metrics"
            ))[2])
        return status, payload, metrics

    status, payload, metrics = asyncio.run(go())
    assert status == 200
    assert metrics["serve"]["serve.internal_errors"] == 0
    return payload["report"]["status"]


def _batch_status(assignment1, **options):
    good = assignment1.reference_solutions[0]
    result = BatchGrader(assignment1, **options).grade_batch(
        [good, SURROGATE_SOURCE]
    )
    statuses = [report.status for report in result.reports]
    assert statuses[0] == "ok"  # the rest of the batch is unharmed
    return statuses[1]


@pytest.mark.parametrize("path", ["engine", "serial", "process", "serve"])
def test_lone_surrogate_is_a_parse_error(path, assignment1):
    if path == "engine":
        status = FeedbackEngine(assignment1).grade(SURROGATE_SOURCE).status
    elif path == "serial":
        status = _batch_status(assignment1)
    elif path == "process":
        status = _batch_status(assignment1, mode="process", workers=2)
    else:
        status = _serve_status(SURROGATE_SOURCE)
    assert status == "parse-error"


def test_surrogate_key_differs_from_the_replacement_character():
    # a surrogate passes through as three bytes no valid string
    # encodes to, so its key cannot collide with a valid spelling
    assert source_key("int \ud800;") != source_key("int \ufffd;")


#: A submission file with a byte that is not UTF-8 in its code.
UNDECODABLE = b"void assignment1(int[] a) { int odd\xff = 0; }"


@pytest.fixture()
def submission_dir(tmp_path, assignment1):
    directory = tmp_path / "subs"
    directory.mkdir()
    (directory / "Good.java").write_text(assignment1.reference_solutions[0])
    (directory / "Bad.java").write_bytes(UNDECODABLE)
    return directory


def test_undecodable_file_is_a_parse_error_in_grade_batch(
    submission_dir, capsys
):
    assert main(["grade-batch", "assignment1", str(submission_dir),
                 "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    statuses = {s["label"]: s["status"] for s in payload["submissions"]}
    assert statuses == {"Bad.java": "parse-error", "Good.java": "ok"}


def test_undecodable_file_grades_as_its_surrogate_string(
    submission_dir, capsys, monkeypatch, assignment1
):
    expected = FeedbackEngine(assignment1).grade(
        UNDECODABLE.decode("utf-8", "surrogateescape")
    ).render()
    assert main(["grade", "assignment1", str(submission_dir / "Bad.java")]) == 1
    assert capsys.readouterr().out == expected + "\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(UNDECODABLE)))
    assert main(["grade", "assignment1", "-"]) == 1
    assert capsys.readouterr().out == expected + "\n"


def test_undecodable_manifest_path_is_a_parse_error(
    submission_dir, tmp_path, capsys
):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        json.dumps({"label": "good", "path": "subs/Good.java"}) + "\n"
        + json.dumps({"label": "bad", "path": "subs/Bad.java"}) + "\n"
    )
    out_dir = tmp_path / "out"
    assert main([
        "grade-campaign", "assignment1", str(manifest),
        "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(out_dir),
    ]) == 0
    records = [
        json.loads(line)
        for line in (out_dir / "shard-00000000.jsonl").read_text().splitlines()
    ]
    assert {r["label"]: r["report"]["status"] for r in records} == {
        "good": "ok", "bad": "parse-error",
    }
