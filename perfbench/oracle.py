"""Output oracle: reference report digests from the plainest grading path.

Every report the benchmark sees — batch, clustered, store-replayed or an
HTTP body — is compared against the report a serial
:class:`~repro.core.pipeline.BatchGrader` with the result cache and
clustering off, and the same channels, produces for the same source text.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def canonical_digest(payload: dict) -> str:
    """SHA-256 of a report dict's canonical JSON.

    The payload is round-tripped through JSON first, so a report's
    ``to_dict()`` and the same report parsed back from an HTTP body
    digest identically.
    """
    text = json.dumps(json.loads(json.dumps(payload)), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Oracle worker processes; each grades its share of the assignments,
#: each assignment by its own serial grader.
WORKERS = 2


def _grade(name: str, sources: list[str], repair: bool, perf: bool
           ) -> list[str]:
    from repro.core.pipeline import BatchGrader
    from repro.kb import get_assignment

    grader = BatchGrader(get_assignment(name), cache=False, repair=repair,
                         perf=perf)
    return [canonical_digest(report.to_dict())
            for report in grader.grade_batch(sources).reports]


def _shares(groups: list[tuple[str, list[str]]]) -> list[list[int]]:
    """Group indexes split into :data:`WORKERS` shares of similar size,
    largest group first."""
    shares: list[list[int]] = [[] for _ in range(WORKERS)]
    sizes = [0] * WORKERS
    order = sorted(range(len(groups)), key=lambda i: -len(groups[i][1]))
    for index in order:
        lightest = sizes.index(min(sizes))
        shares[lightest].append(index)
        sizes[lightest] += len(groups[index][1])
    return [share for share in shares if share]


def reference_digests(items, repair: bool = False, perf: bool = False,
                      ) -> dict[tuple[str, str], str]:
    """``{(assignment, source): digest}`` for every distinct item.

    The grading runs in :data:`WORKERS` plain child processes
    (``python oracle.py JOB OUT``), each waited for before this returns.
    """
    by_assignment: dict[str, dict[str, None]] = {}
    for name, source in items:
        by_assignment.setdefault(name, {})[source] = None
    groups = [(name, list(sources))
              for name, sources in by_assignment.items()]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    results: dict[int, list[str]] = {}
    with tempfile.TemporaryDirectory(prefix="oracle-") as scratch:
        children = []
        try:
            for worker, share in enumerate(_shares(groups)):
                job = Path(scratch, f"{worker}.job")
                out = Path(scratch, f"{worker}.out")
                job.write_text(json.dumps({
                    "groups": [groups[i] for i in share],
                    "repair": repair, "perf": perf,
                }))
                children.append((share, out, subprocess.Popen(
                    [sys.executable, str(HERE / "oracle.py"), str(job),
                     str(out)], env=env)))
            for share, out, child in children:
                if child.wait(timeout=150) != 0:
                    raise RuntimeError(
                        f"oracle worker exited {child.returncode}")
                results.update(zip(share, json.loads(out.read_text())))
        finally:
            for _, _, child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()
    return {
        (name, source): digest
        for index, (name, sources) in enumerate(groups)
        for source, digest in zip(sources, results[index])
    }


def mismatches(items, digests, reference) -> int:
    """How many ``digests`` differ from the reference for their item."""
    return sum(
        1 for item, digest in zip(items, digests) if reference[item] != digest
    )


def main(argv: list[str]) -> int:
    job_path, out_path = argv
    job = json.loads(Path(job_path).read_text())
    digests = [_grade(name, sources, job["repair"], job["perf"])
               for name, sources in job["groups"]]
    Path(out_path).write_text(json.dumps(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
