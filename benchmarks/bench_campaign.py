"""Campaign benchmark: million-submission streaming, bounded memory.

The paper's setting is a MOOC: cohorts of hundreds of thousands of
duplicate-heavy submissions, graded offline.  This benchmark drives the
streaming campaign runner (``repro grade-campaign``) end-to-end at that
scale and gates the properties that make it usable there:

* **Bounded memory** — a full synthetic campaign (10^6 submissions in
  the default run) streams through the shard pipeline in a child
  process whose peak RSS must stay under :data:`RSS_LIMIT_GB`.
* **Checkpoint → kill → resume** — a campaign SIGKILL'd mid-run resumes
  from its journal and finishes; a rerun over the completed journal
  grades *zero* submissions.
* **Store-replay equivalence** — the shard output files are
  byte-identical whether the reports were graded into a fresh store,
  replayed from a warm one by a second campaign (zero grades), or
  graded by a store-less ``BatchGrader``.

Run standalone (CI smoke-tests ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_campaign.py [--quick]

or under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_campaign.py -q

Full runs write ``BENCH_campaign.json`` at the repo root; ``--quick``
writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.core.campaign import CampaignRunner, synthetic_stream
from repro.core.pipeline import BatchGrader
from repro.kb import get_assignment

#: Peak-RSS ceiling for the streaming campaign child process.
RSS_LIMIT_GB = 2.0
#: Cohort size for the full (checked-in) run.
FULL_COHORT = 1_000_000
#: Cohort size for the CI smoke run.
QUICK_COHORT = 10_000

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Child wrapper: run the CLI, then report the child's own peak RSS on
#: stderr (``ru_maxrss`` is KiB on Linux) so the parent never confuses
#: it with other children's high-water marks.
_WRAPPER = """\
import resource, sys
sys.path.insert(0, {src!r})
from repro.cli import main
code = main({argv!r})
print("BENCH_RSS_KB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      file=sys.stderr)
sys.exit(code)
"""


def _campaign_argv(cache_dir, cohort, *, shard_size, campaign_id,
                   extra=()):
    return [
        "grade-campaign", "assignment1",
        "--synthetic", str(cohort),
        "--cache-dir", str(cache_dir),
        "--campaign-id", campaign_id,
        "--shard-size", str(shard_size),
        *extra,
    ]


def _run_cli(argv, json_out=None):
    """Run one CLI invocation in a child; returns (code, rss_kb, payload)."""
    argv = list(argv)
    if json_out is not None:
        argv += ["--json", str(json_out)]
    proc = subprocess.run(
        [sys.executable, "-c", _WRAPPER.format(src=_SRC, argv=argv)],
        capture_output=True, text=True,
    )
    rss_kb = 0
    for line in proc.stderr.splitlines():
        if line.startswith("BENCH_RSS_KB"):
            rss_kb = int(line.split()[1])
    payload = None
    if json_out is not None and Path(json_out).exists():
        payload = json.loads(Path(json_out).read_text())
    return proc.returncode, rss_kb, payload


# -- streaming scale + memory bound --------------------------------------


def run_streaming(cohort=FULL_COHORT, shard_size=2000, verbose=True):
    """One full synthetic campaign in a child; gates peak RSS."""
    with tempfile.TemporaryDirectory() as tmp:
        started = time.perf_counter()
        code, rss_kb, payload = _run_cli(
            _campaign_argv(Path(tmp) / "cache", cohort,
                           shard_size=shard_size, campaign_id="stream"),
            json_out=Path(tmp) / "result.json",
        )
        wall = time.perf_counter() - started
    assert code == 0, f"campaign exited {code}"
    assert payload is not None and payload["completed"]
    assert payload["submissions"] == cohort
    rss_gb = rss_kb / (1024 * 1024)
    row = {
        "cohort_size": cohort,
        "shard_size": shard_size,
        "shards": payload["shards_total"],
        "wall_seconds": round(wall, 3),
        "throughput_per_second": round(cohort / payload["wall_seconds"], 1),
        "graded": payload["stats"]["graded"],
        "cache_hits": payload["stats"]["cache_hits"],
        "peak_rss_gb": round(rss_gb, 3),
        "rss_limit_gb": RSS_LIMIT_GB,
        "rss_within_limit": rss_gb < RSS_LIMIT_GB,
    }
    if verbose:
        print(f"streaming: {cohort} submissions in {row['shards']} shards, "
              f"{row['wall_seconds']}s "
              f"({row['throughput_per_second']}/s), peak RSS "
              f"{rss_gb:.2f} GB (limit {RSS_LIMIT_GB} GB)")
    return row


# -- checkpoint -> kill -> resume ----------------------------------------


def run_kill_resume(cohort=20_000, shard_size=1000, verbose=True):
    """SIGKILL a campaign mid-run; resume must finish with no rework."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache"
        argv = _campaign_argv(cache, cohort, shard_size=shard_size,
                              campaign_id="drill")
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRAPPER.format(src=_SRC, argv=argv)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # wait for the first checkpoint to land, then kill -9
        from repro.core.storage import ResultStore

        assignment = get_assignment("assignment1")
        store = ResultStore(cache, assignment)
        deadline = time.monotonic() + 120
        checkpoints_at_kill = 0
        while time.monotonic() < deadline and proc.poll() is None:
            n = 0
            while store.get_campaign(f"drill/shard-{n:08d}") is not None:
                n += 1
            if n >= 1:
                checkpoints_at_kill = n
                break
            time.sleep(0.005)
        killed = proc.poll() is None
        if killed:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)

        code, _, resumed = _run_cli(argv, json_out=Path(tmp) / "r1.json")
        assert code == 0 and resumed["completed"]
        code, _, rerun = _run_cli(argv, json_out=Path(tmp) / "r2.json")
        assert code == 0 and rerun["completed"]
    row = {
        "cohort_size": cohort,
        "killed_mid_run": killed,
        "checkpoints_at_kill": checkpoints_at_kill,
        "resume_completed": resumed["completed"],
        "resume_shards_resumed": resumed["shards_resumed"],
        "resume_shards_graded": resumed["shards_graded"],
        "rerun_graded_submissions": rerun["run_stats"]["graded"],
        "rerun_shards_resumed": rerun["shards_resumed"],
        "zero_regrades_on_rerun": rerun["run_stats"]["graded"] == 0,
    }
    # shards checkpointed before the kill were never regraded
    assert resumed["shards_resumed"] >= checkpoints_at_kill
    assert rerun["run_stats"]["graded"] == 0
    assert rerun["shards_resumed"] == rerun["shards_total"]
    if verbose:
        print(f"kill/resume: killed={killed} with "
              f"{checkpoints_at_kill} checkpoints; resume graded "
              f"{resumed['shards_graded']} shards, resumed "
              f"{resumed['shards_resumed']}; rerun regraded "
              f"{rerun['run_stats']['graded']} submissions")
    return row


# -- store-replay byte-identity -----------------------------------------


def _shard_bytes(batch):
    """One shard's JSONL deliverable, as ``CampaignRunner`` writes it."""
    lines = [
        json.dumps({"label": item.label, "key": item.key,
                    "report": item.report.to_dict()},
                   separators=(",", ":"))
        for item in batch.items
    ]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def run_replay_identity(cohort=2000, shard_size=500, verbose=True):
    """Shard outputs must not depend on where the reports came from.

    A campaign over a fresh store grades everything; a second campaign
    under a new id, over the same warm store and with a cold in-memory
    cache, must replay every report from the store (zero grades); and a
    store-less ``BatchGrader`` grading the same shards must agree with
    both, byte for byte.
    """
    assignment = get_assignment("assignment1")
    submissions = list(synthetic_stream(assignment, cohort, seed=5))
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache"
        runs = {}
        for campaign_id in ("fresh", "replay"):
            out = Path(tmp) / f"out-{campaign_id}"
            runner = CampaignRunner(assignment, cache, shard_size=shard_size)
            runs[campaign_id] = runner.run(
                submissions, campaign_id=campaign_id, output_dir=out
            )
            outputs[campaign_id] = b"".join(
                path.read_bytes() for path in sorted(out.glob("*.jsonl"))
            )
    grader = BatchGrader(assignment)
    outputs["storeless"] = b"".join(
        _shard_bytes(grader.grade_batch(submissions[i:i + shard_size]))
        for i in range(0, len(submissions), shard_size)
    )
    replay_stats = runs["replay"].run_stats
    identical = outputs["fresh"] == outputs["replay"] == outputs["storeless"]
    row = {
        "cohort_size": cohort,
        "output_bytes": len(outputs["fresh"]),
        "fresh_graded": runs["fresh"].run_stats.graded,
        "replay_graded": replay_stats.graded,
        "replay_store_hits": replay_stats.counters.get(
            "cache.store_hits", 0),
        "byte_identical": identical,
    }
    assert outputs["fresh"]
    assert identical
    assert row["replay_graded"] == 0
    assert row["replay_store_hits"] == row["fresh_graded"] > 0
    if verbose:
        print(f"store replay: {cohort} submissions, "
              f"{row['output_bytes']} output bytes, replay graded "
              f"{row['replay_graded']} with {row['replay_store_hits']} "
              f"store hits, identical={identical}")
    return row


# -- pytest entry points -------------------------------------------------


def test_kill_resume_zero_regrades():
    row = run_kill_resume(cohort=2000, shard_size=200, verbose=False)
    assert row["resume_completed"]
    assert row["zero_regrades_on_rerun"]


def test_outputs_byte_identical_across_store_replay():
    row = run_replay_identity(cohort=400, shard_size=100, verbose=False)
    assert row["byte_identical"]


# -- standalone entry point ----------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small cohort (CI smoke test); does not "
                             "rewrite BENCH_campaign.json")
    parser.add_argument("--cohort", type=int, default=None,
                        help=f"streaming cohort size (default {FULL_COHORT}, "
                             f"or {QUICK_COHORT} with --quick)")
    args = parser.parse_args(argv)
    quick = args.quick
    cohort = args.cohort or (QUICK_COHORT if quick else FULL_COHORT)

    streaming = run_streaming(
        cohort=cohort, shard_size=500 if quick else 2000
    )
    kill_resume = run_kill_resume(
        cohort=10_000 if quick else 20_000,
        shard_size=500 if quick else 1000,
    )
    identity = run_replay_identity(cohort=500 if quick else 2000,
                                   shard_size=100 if quick else 500)

    report = {
        "benchmark": "campaign",
        "mode": "quick" if quick else "full",
        "streaming": streaming,
        "kill_resume": kill_resume,
        "replay_identity": identity,
    }
    if not quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")

    if not streaming["rss_within_limit"]:
        print(f"FAIL: peak RSS {streaming['peak_rss_gb']} GB >= "
              f"{RSS_LIMIT_GB} GB")
        return 1
    if not kill_resume["zero_regrades_on_rerun"]:
        print("FAIL: rerun over a completed journal regraded submissions")
        return 1
    if not identity["byte_identical"]:
        print("FAIL: shard outputs differ between fresh, store-replayed "
              "and store-less grading")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
