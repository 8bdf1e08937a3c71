"""The repository benchmark: end-to-end and per-layer numbers, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cold_unique --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run and reports per-layer
metrics instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run (machine, configuration, traffic checks, findings).

Workloads (see :data:`WORKLOADS`):

* ``cold_unique`` — serial batch, plain profile, no store; every
  submission a distinct synth sample across all 12 assignments.
* ``mooc_day`` — ``--cluster`` batch over a fresh SQLite store; repeat-
  and rename-heavy traffic, graded by two grader lifetimes in a row.
* ``channels`` — ``--repair --perf`` batch over seeded-defect and
  slow/fast cohorts.
* ``served_closed_loop`` — ``repro serve --workers 2`` in its own
  process, saturated by two closed-loop HTTP connections; its traced
  run drives it open-loop at a fixed nominal rate instead (``served.py``).

Batch workloads run each repeat in a fresh process (``batch_child.py``)
and pool the repeats; every report is checked against the output oracle
(``oracle.py``) computed once per run, untimed.  Batch ``latency_*``
is the wall time of one ``grade_batch`` call on a poll of
``workloads.POLL`` submissions; served ``latency_*`` runs from send to
reply.  The open-loop p99 is a per-layer metric
(``serve.open_loop_p99_ms``): it hinges on where the service's collector
pauses fall and spreads too widely between runs to bound.

``fail_ratio`` is not a metric, because it is 0 on correct code: the
result line's ``failed`` and ``attempted`` carry it, and the record line
reports it as ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from served import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cold_unique", "mooc_day", "channels", "served_closed_loop")

#: Set-ups per run; ``setup_s`` is their median, and batch repeats split
#: the measured seconds between them.
SETUPS = 3

#: Upper bound on submissions a batch repeat can grade per measured
#: second (the generated stream must outlast the fastest repeat).
STREAM_PER_SECOND = {"cold_unique": 500, "mooc_day": 3000, "channels": 150}

#: Upper bound on requests the closed-loop served run completes per
#: measured second.
SERVED_PER_SECOND = 2000

#: Requests the traced served run sends open-loop, per second of
#: ``--seconds``: over a thousand, so its p99 has ten samples beyond it.
OPEN_LOOP_REQUESTS_PER_SECOND = 100

#: Submissions graded by the traced run, per second of ``--seconds``: a
#: fixed count, so per-layer call counts repeat exactly for one seed.
TRACE_PER_SECOND = {"cold_unique": 96, "mooc_day": 640, "channels": 32}

#: Per-layer metrics: name, unit, better, and the end-to-end metric and
#: workload each should move.
PER_LAYER = (
    ("java.parse.calls", "count", "lower", "throughput_subs_per_s/cpu_ms_per_sub on cold_unique; latency_p50_ms on served_closed_loop"),
    ("java.parse.self_ms", "ms", "lower", "throughput_subs_per_s/cpu_ms_per_sub on cold_unique; latency_p50_ms on served_closed_loop"),
    ("java.parse.errors", "count", "lower", "none: a property of the inputs"),
    ("pdg.build.calls", "count", "lower", "as java.parse"),
    ("pdg.build.self_ms", "ms", "lower", "as java.parse"),
    ("matching.match.calls", "count", "lower", "throughput_subs_per_s on cold_unique (largest share); little on mooc_day"),
    ("matching.match.self_ms", "ms", "lower", "throughput_subs_per_s on cold_unique (largest share); little on mooc_day"),
    ("matching.nodes_visited", "count", "lower", "throughput_subs_per_s on cold_unique"),
    ("matching.candidates_pruned", "count", "higher", "throughput_subs_per_s on cold_unique"),
    ("matching.cache_hit_ratio", "ratio", "higher", "throughput_subs_per_s on cold_unique"),
    ("analysis.checks.calls", "count", "lower", "throughput_subs_per_s on cold_unique (~5% share)"),
    ("analysis.checks.self_ms", "ms", "lower", "throughput_subs_per_s on cold_unique (~5% share)"),
    ("analysis.perf.calls", "count", "lower", "throughput_subs_per_s on channels; nothing elsewhere"),
    ("analysis.perf.self_ms", "ms", "lower", "throughput_subs_per_s on channels; nothing elsewhere"),
    ("analysis.perf.dynamic_skip_ratio", "ratio", "higher", "throughput_subs_per_s on channels"),
    ("repair.suggest.calls", "count", "lower", "throughput_subs_per_s and setup_s (corpus build) on channels"),
    ("repair.suggest.self_ms", "ms", "lower", "throughput_subs_per_s and setup_s (corpus build) on channels"),
    ("repair.suggested_ratio", "ratio", "higher", "none: feedback coverage, not speed"),
    ("interp.run_tests.calls", "count", "lower", "throughput_subs_per_s on channels; must be 0 on cold_unique and mooc_day"),
    ("interp.run_tests.self_ms", "ms", "lower", "throughput_subs_per_s on channels"),
    ("interp.compile_hit_ratio", "ratio", "higher", "throughput_subs_per_s on channels"),
    ("cluster.grade.calls", "count", "lower", "throughput_subs_per_s on mooc_day"),
    ("cluster.grade.self_ms", "ms", "lower", "throughput_subs_per_s on mooc_day"),
    ("cluster.specialized_ratio", "ratio", "higher", "throughput_subs_per_s on mooc_day"),
    ("core.batch.grade.calls", "count", "lower", "throughput_subs_per_s on mooc_day: the in-memory result-cache replay"),
    ("core.batch.grade.self_ms", "ms", "lower", "throughput_subs_per_s on mooc_day: the in-memory result-cache replay"),
    ("core.engine.grade.calls", "count", "lower", "throughput_subs_per_s on cold_unique and mooc_day"),
    ("core.engine.grade.self_ms", "ms", "lower", "throughput_subs_per_s on cold_unique and mooc_day"),
    ("core.cache.hit_ratio", "ratio", "higher", "throughput_subs_per_s and peak_rss_mb on mooc_day; latency_p50_ms on served_closed_loop"),
    ("core.store.get.calls", "count", "lower", "throughput_subs_per_s on mooc_day"),
    ("core.store.get.self_ms", "ms", "lower", "throughput_subs_per_s on mooc_day"),
    ("core.store.put.calls", "count", "lower", "throughput_subs_per_s on mooc_day"),
    ("core.store.put.self_ms", "ms", "lower", "throughput_subs_per_s on mooc_day"),
    ("core.store.hit_ratio", "ratio", "higher", "throughput_subs_per_s on mooc_day"),
    ("serve.open_loop_p99_ms", "ms", "lower", "latency_p99_ms on served_closed_loop: p99 from due at the nominal open-loop rate"),
    ("serve.sched_lag_ms", "ms", "lower", "latency_p99_ms on served_closed_loop"),
    ("serve.server_ms", "ms", "lower", "latency_p99_ms on served_closed_loop"),
    ("serve.transport_ms", "ms", "lower", "latency_p99_ms on served_closed_loop"),
    ("serve.worker_grade_ms", "ms", "lower", "latency_p99_ms on served_closed_loop"),
    ("serve.cache_hit_ratio", "ratio", "higher", "latency_p50_ms on served_closed_loop"),
    ("serve.rejected", "count", "lower", "throughput_subs_per_s on served_closed_loop"),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of the traced run itself"),
    ("trace.unattributed_ms", "ms", "lower", "none: timed wall outside every span"),
)

END_TO_END = (
    "setup_s", "throughput_subs_per_s", "cpu_ms_per_sub", "latency_p50_ms",
    "latency_p99_ms", "peak_rss_mb",
)
UNITS = {
    "setup_s": "s", "throughput_subs_per_s": "1/s", "cpu_ms_per_sub": "ms",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "peak_rss_mb": "MiB",
}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        # a checkout that is not a repository must not report the sha of
        # a repository around it
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


# -- batch workloads -----------------------------------------------------

def _child(job: dict, scratch: Path, env: dict, tag: str) -> dict:
    job_path, out_path = scratch / f"{tag}.job", scratch / f"{tag}.out"
    job_path.write_text(json.dumps(job))
    subprocess.run(
        [sys.executable, str(HERE / "batch_child.py"), str(job_path),
         str(out_path)],
        cwd=ROOT, env=env, check=True, timeout=150,
    )
    return json.loads(out_path.read_text())


def _traffic(items: list[tuple[str, str, str]]) -> dict:
    """Measured duplicate and rename shares of a graded item sequence."""
    from repro.core.pipeline import source_key

    seen: set[tuple[str, str]] = set()
    duplicates = 0
    for name, _, source in items:
        key = (name, source_key(source))
        duplicates += key in seen
        seen.add(key)
    renames = sum(1 for _, kind, _ in items if "rename" in kind)
    return {
        "items": len(items),
        "duplicate_share": ratio(duplicates, len(items)),
        "rename_share": ratio(renames, len(items)),
    }


def run_batch(workload: str, seed: int, seconds: int, trace: bool,
              scratch: Path, env: dict) -> tuple[dict, dict, dict]:
    import workloads
    from oracle import mismatches, reference_digests

    generate = workloads.BATCH_GENERATORS[workload]
    if trace:
        wanted = TRACE_PER_SECOND[workload] * seconds
        polls = generate(seed, wanted)
        limit = -(-wanted // workloads.POLL)
        runs = [("untraced", False), ("traced", True)]
    else:
        polls = generate(seed, STREAM_PER_SECOND[workload] * seconds)
        limit = None
        runs = [(f"repeat{k}", False) for k in range(SETUPS)]
    warmup = workloads.warmup_sources(seed)
    outs = []
    for tag, traced in runs:
        store_dir = scratch / f"store-{tag}"
        outs.append(_child({
            "workload": workload,
            "assignments": workloads.assignments(),
            "warmup": warmup,
            "polls": polls,
            "polls_limit": limit,
            "seconds": seconds / SETUPS,
            "trace": traced,
            "store_dir": str(store_dir),
            "spans_path": str(scratch.parent / f"spans-{workload}-{seed}.jsonl"),
        }, scratch, env, tag))
        shutil.rmtree(store_dir, ignore_errors=True)

    graded = []
    for out in outs:
        graded.append([
            (name, kind, source)
            for name, items in polls[:out["polls"]]
            for kind, source in items
        ])
    channel = workload == "channels"
    reference = reference_digests(
        {(name, source) for items in graded for name, _, source in items},
        repair=channel, perf=channel,
    )
    failed = attempted = 0
    statuses: dict[str, int] = {}
    for items, out in zip(graded, outs):
        pairs = [(name, source) for name, _, source in items]
        attempted += len(pairs)
        failed += mismatches(pairs, out["digests"], reference)
        for status in out["statuses"]:
            statuses[status] = statuses.get(status, 0) + 1
            failed += status in ("error", "timeout")
    traffic = _traffic(graded[0])
    stats = outs[0]["stats"]
    traffic["cache_hit_share"] = ratio(stats["cache_hits"],
                                       stats["submissions"])
    record = {"status_mix": statuses, "traffic": traffic,
              "polls_generated": len(polls),
              "items_generated": sum(len(items) for _, items in polls),
              "items_graded": [len(items) for items in graded]}
    checks = {"stream_outlasted_run":
              trace or all(out["polls"] < len(polls) for out in outs)}
    if workload == "cold_unique":
        checks["no_repeats"] = traffic["duplicate_share"] == 0
        checks["no_cache_hits"] = traffic["cache_hit_share"] == 0
    elif workload == "mooc_day":
        checks["repeat_heavy"] = traffic["duplicate_share"] > 0.5
        checks["renames_present"] = traffic["rename_share"] > 0.1

    if trace:
        metrics = batch_layers(outs[0], outs[1])
        record["findings"] = findings(workload, outs[1])
        if workload in ("cold_unique", "mooc_day"):
            checks["interp_idle"] = metrics["interp.run_tests.calls"] == 0
    else:
        metrics = batch_end_to_end(outs)
    record["checks"] = checks
    correct = failed == 0 and all(checks.values())
    return ({"correct": correct, "attempted": attempted, "failed": failed},
            metrics, record)


def batch_end_to_end(outs: list[dict]) -> dict:
    items = sum(out["stats"]["submissions"] for out in outs)
    timed = sum(out["timed_s"] for out in outs)
    latencies = [1000 * s for out in outs for s in out["poll_latencies_s"]]
    return {
        "setup_s": statistics.median(out["setup_s"] for out in outs),
        "throughput_subs_per_s": items / timed,
        "cpu_ms_per_sub": 1000 * sum(out["cpu_s"] for out in outs) / items,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in outs),
    }


def batch_layers(untraced: dict, traced: dict) -> dict:
    layers = traced["layers"]
    counters = traced["stats"]["counters"]
    stats = traced["stats"]
    metrics = {name: 0.0 for name, *_ in PER_LAYER}
    for layer, (calls, seconds) in layers.items():
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_ms"] = 1000 * seconds
    metrics["java.parse.errors"] = traced["span_errors"].get("java.parse", 0)
    metrics["matching.nodes_visited"] = counters.get("match.nodes_visited", 0)
    metrics["matching.candidates_pruned"] = counters.get(
        "match.candidates_pruned", 0)
    hits = counters.get("match.cache_hits", 0)
    metrics["matching.cache_hit_ratio"] = ratio(
        hits, hits + counters.get("match.cache_misses", 0))
    metrics["analysis.perf.dynamic_skip_ratio"] = ratio(
        counters.get("perf.dynamic_skips", 0), counters.get("perf.runs", 0))
    requests = counters.get("repair.requests", 0)
    metrics["repair.suggested_ratio"] = ratio(
        requests - counters.get("repair.no_suggestion", 0), requests)
    hits = counters.get("interp.compile_hits", 0)
    metrics["interp.compile_hit_ratio"] = ratio(
        hits, hits + counters.get("interp.compile_misses", 0))
    metrics["cluster.specialized_ratio"] = ratio(
        counters.get("cluster.specialized", 0),
        counters.get("cluster.submissions", 0))
    metrics["core.cache.hit_ratio"] = ratio(stats["cache_hits"],
                                            stats["submissions"])
    metrics["core.store.hit_ratio"] = ratio(
        traced["span_hits"].get("core.store.get", 0),
        layers["core.store.get"][0])
    metrics["trace.overhead_ratio"] = traced["timed_s"] / untraced["timed_s"]
    metrics["trace.unattributed_ms"] = 1000 * (
        traced["timed_s"] - traced["root_s"])
    return metrics


#: Predicted largest self-time groups per workload.
PREDICTIONS = {
    "cold_unique": ("matching",),
    "mooc_day": ("cluster", "core"),
    "channels": ("interp", "repair", "analysis.perf"),
}


def findings(workload: str, traced: dict) -> dict:
    """Share of the timed wall per module group, and whether the
    prediction held.  Time outside every span (the driving loop and the
    graders' rebuild at a restart) is a group of its own."""
    groups = {"unattributed": traced["timed_s"] - traced["root_s"]}
    for layer, (_, seconds) in traced["layers"].items():
        # module group: the span name's package, perf apart from analysis
        group = layer if layer == "analysis.perf" else layer.split(".")[0]
        groups[group] = groups.get(group, 0.0) + seconds
    total = sum(groups.values())
    shares = {g: round(ratio(s, total), 4) for g, s in sorted(groups.items())}
    predicted = PREDICTIONS[workload]
    together = sum(shares.get(g, 0.0) for g in predicted)
    others = [s for g, s in shares.items() if g not in predicted]
    return {
        "self_time_shares": shares,
        "predicted_largest": list(predicted),
        "prediction_holds": together > max(others, default=0.0),
    }


# -- served workload -----------------------------------------------------

def _served_outcome(body: bytes, reference: str) -> tuple[str, bool]:
    """A 200 reply's report status, and whether the report is correct."""
    from oracle import canonical_digest

    report = json.loads(body)["report"]
    status = report["status"]
    return status, (status not in ("error", "timeout")
                    and canonical_digest(report) == reference)


def run_served(seed: int, seconds: int, trace: bool, scratch: Path,
               env: dict) -> tuple[dict, dict, dict]:
    import served
    import workloads
    from oracle import reference_digests

    stream = workloads.served(
        seed, (OPEN_LOOP_REQUESTS_PER_SECOND if trace else SERVED_PER_SECOND)
        * seconds)
    payloads = [served.grade_request(name, source)
                for name, _, source in stream]
    warmup = workloads.warmup_sources(
        seed, per_assignment=2 * served.WORKERS)
    log = str(scratch / "serve.log")
    if trace:
        out = served.open_loop_run(str(ROOT), env, log, payloads, warmup)
    else:
        out = served.saturate(str(ROOT), env, log, payloads, warmup,
                              seconds, SETUPS)
    records = out["records"]
    sent = stream[:len(records)]
    reference = reference_digests({(name, src) for name, _, src in sent})
    statuses: dict[str, int] = {}
    valid = []
    for (name, _, source), (_, _, _, code, body) in zip(sent, records):
        status, ok = (_served_outcome(body, reference[(name, source)])
                      if code == 200 else (f"http-{code}", False))
        statuses[status] = statuses.get(status, 0) + 1
        valid.append(ok)
    failed = valid.count(False)
    traffic = _traffic(sent)
    counters = out["metrics"]["serve"]
    traffic["cache_hit_share"] = ratio(counters["serve.cache_hits"],
                                       counters["serve.grade_requests"])
    record = {
        "status_mix": statuses, "traffic": traffic,
        "requests_generated": len(stream), "requests_sent": len(records),
    }
    record["checks"] = {
        "resubmissions_hit_cache": traffic["cache_hit_share"] > 0.3,
        "stream_outlasted_run": trace or len(records) < len(stream),
    }
    record["setup_times_s"] = out["setup_times"]
    latency = served.latencies_ms(records)
    if trace:
        metrics = served_layers(out)
        record["open_loop"] = {
            "rate": served.NOMINAL_RPS,
            "p50_ms": percentile(latency, 50),
            "p99_ms": percentile(latency, 99),
            "lag_max_ms": max(1000 * (went - due)
                              for due, went, _, _, _ in records),
        }
    else:
        metrics = {
            "setup_s": statistics.median(out["setup_times"]),
            "throughput_subs_per_s": len(records) / served.wall(records),
            "cpu_ms_per_sub": 1000 * out["cpu_s"] / len(records),
            "latency_p50_ms": percentile(latency, 50),
            "latency_p99_ms": percentile(latency, 99),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    correct = failed == 0 and all(record["checks"].values())
    return ({"correct": correct, "attempted": len(records), "failed": failed},
            metrics, record)


def served_layers(out: dict) -> dict:
    """Per-layer split of the open-loop run: the client's timestamps and
    the ``/metrics`` counters the run added."""
    import served

    records, snapshot = out["records"], out["metrics"]
    pipeline = snapshot["pipeline"]
    counters = snapshot["serve"]
    phase_ms, phase_calls = pipeline["phase_ms"], pipeline["phase_calls"]
    server_ms = [json.loads(body)["latency_ms"]
                 for *_, code, body in records if code == 200]
    metrics = {name: 0.0 for name, *_ in PER_LAYER}
    metrics["serve.open_loop_p99_ms"] = percentile(
        served.latencies_ms(records), 99)
    metrics["serve.sched_lag_ms"] = statistics.median(
        1000 * (sent - due) for due, sent, _, _, _ in records)
    metrics["serve.server_ms"] = statistics.median(server_ms)
    metrics["serve.transport_ms"] = statistics.median(
        1000 * (done - sent) - server
        for (_, sent, done, _, _), server in zip(records, server_ms)
    )
    metrics["serve.worker_grade_ms"] = 1000 * ratio(
        pipeline["grading_seconds"], pipeline["graded"])
    metrics["serve.cache_hit_ratio"] = ratio(
        counters["serve.cache_hits"], counters["serve.grade_requests"])
    metrics["serve.rejected"] = sum(
        value for name, value in counters.items()
        if name.startswith("serve.rejected"))
    for layer, phases in (("java.parse", ("parse",)),
                          ("pdg.build", ("epdg_build",)),
                          ("matching.match", ("pattern_match",
                                              "constraint_match")),
                          ("analysis.checks", ("analysis",))):
        metrics[f"{layer}.self_ms"] = sum(phase_ms.get(p, 0.0)
                                          for p in phases)
        metrics[f"{layer}.calls"] = phase_calls.get(phases[0], 0)
    # a phase can be entered more than once per grade; every parsed
    # submission runs the matcher exactly once
    metrics["matching.match.calls"] = (phase_calls.get("parse", 0)
                                       - pipeline["parse_errors"])
    metrics["java.parse.errors"] = pipeline["parse_errors"]
    metrics["core.cache.hit_ratio"] = ratio(pipeline["cache_hits"],
                                            pipeline["submissions"])
    # no span wrappers run in the served workload: the split comes from
    # the client's own timestamps and the service's counters
    metrics["trace.overhead_ratio"] = 1.0
    return metrics


# -- process hygiene -----------------------------------------------------

def adopt_orphans() -> None:
    """Make this process the reaper of every process its children leave
    behind (Linux ``PR_SET_CHILD_SUBREAPER``), so :func:`reap_all` finds
    them; elsewhere a no-op."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    pids = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as children:
                pids.extend(map(int, children.read().split()))
    except OSError:
        pass
    return pids


def reap_all() -> None:
    """Kill and wait for every process still under this one, adopted
    orphans included, until none is left."""
    while pids := _children():
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


# -- entry point ---------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    state = ROOT / ".perfbench"
    scratch = state / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(scratch),
               SQLITE_TMPDIR=str(scratch), PYTHONDONTWRITEBYTECODE="1")
    os.environ["TMPDIR"] = str(scratch)
    adopt_orphans()
    started = time.perf_counter()
    try:
        if args.workload == "served_closed_loop":
            outcome, metrics, record = run_served(
                args.seed, args.seconds, bool(args.trace), scratch, env)
        else:
            outcome, metrics, record = run_batch(
                args.workload, args.seed, args.seconds, bool(args.trace),
                scratch, env)
    finally:
        reap_all()
        shutil.rmtree(scratch, ignore_errors=True)
    record["meta"] = metadata(args.workload, args.seed, args.seconds,
                              args.trace)
    record["run_wall_s"] = time.perf_counter() - started
    record["fail_ratio"] = ratio(outcome["failed"], outcome["attempted"])
    units = UNITS if not args.trace else {
        name: unit for name, unit, *_ in PER_LAYER}
    print(json.dumps({"perfbench_run": record}, sort_keys=True))
    print(json.dumps({
        **outcome,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
