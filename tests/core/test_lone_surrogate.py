"""A lone surrogate in a submission is a parse error on every path.

A JSON body may carry an escaped ``"\\ud800"`` that decodes to a
string no UTF-8 codec accepts.  The engine always answered such a
source ``parse-error``; hashing it for the result cache raised
``UnicodeEncodeError`` instead, which failed a whole batch and made the
service answer 500.
"""

from __future__ import annotations

import asyncio
import json

import pytest

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
