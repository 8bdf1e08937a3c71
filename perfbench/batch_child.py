"""The measured process of a batch workload: set-up, then the timed region.

Run as ``python perfbench/batch_child.py JOB OUT`` with ``src`` on
``PYTHONPATH``; ``run.py`` writes the JOB file (workload, polls, warm-up
sources, budget) and reads OUT.  A fresh process per repeat makes every
set-up pay its real cost — imports, KB load, grader construction,
repair-corpus build, warm-up — and makes the process's peak RSS the
grader's own.

Graders are built exactly as ``repro grade-batch`` builds them: one
serial :class:`~repro.core.pipeline.BatchGrader` per assignment with the
default result cache, whose engine runs with ``frontend_cache_size=0``.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time

#: BatchGrader keywords per workload (``grade-batch`` flags).
PROFILES = {
    "cold_unique": {},
    "mooc_day": {"cluster": True, "store_backend": "sqlite"},
    "channels": {"repair": True, "perf": True},
}

#: Workloads whose graders are rebuilt halfway, over the same store.
RESTARTS = {"mooc_day"}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (usage.ru_utime + usage.ru_stime
            + children.ru_utime + children.ru_stime)


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(job: dict) -> dict:
    started = time.perf_counter()
    from repro.core.metrics import PipelineStats
    from repro.core.pipeline import BatchGrader
    from repro.kb import get_assignment

    workload = job["workload"]
    options = dict(PROFILES[workload])
    if options.get("cluster"):
        options["store"] = job["store_dir"]

    def build():
        return {
            name: BatchGrader(get_assignment(name), **options)
            for name in job["assignments"]
        }

    graders = build()
    for name, sources in job["warmup"].items():
        graders[name].grade_batch(sources)
    setup_s = time.perf_counter() - started

    recorder = None
    if job["trace"]:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    polls = job["polls"]
    limit = job.get("polls_limit")
    budget = job["seconds"]
    restart_at = (
        None if workload not in RESTARTS
        else (limit // 2 if limit is not None else budget / 2)
    )
    stats = PipelineStats()
    latencies: list[float] = []
    reports = []
    cpu_start = _cpu_seconds()
    timed_start = time.perf_counter()
    for index in itertools.count():
        elapsed = time.perf_counter() - timed_start
        if (index >= limit) if limit is not None else (elapsed >= budget):
            break
        if index >= len(polls):
            break
        name, items = polls[index]
        if restart_at is not None and (
            index >= restart_at if limit is not None
            else elapsed >= restart_at
        ):
            graders = build()  # a restart: fresh memory, same store
            restart_at = None
        poll_start = time.perf_counter()
        result = graders[name].grade_batch([source for _, source in items])
        latencies.append(time.perf_counter() - poll_start)
        reports.extend(result.reports)
        stats.merge(result.stats)
    timed_s = time.perf_counter() - timed_start
    cpu_s = _cpu_seconds() - cpu_start

    out = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "polls": len(latencies),
        "poll_latencies_s": latencies,
        "stats": stats.to_dict(),
    }
    if recorder is not None:
        recorder.uninstall()
        from spans import layer_totals, root_seconds

        recorder.write(job["spans_path"])
        out["layers"] = {
            name: [calls, seconds]
            for name, (calls, seconds) in layer_totals(recorder.spans).items()
        }
        out["span_errors"] = recorder.errors
        out["span_hits"] = recorder.hits
        out["root_s"] = root_seconds(recorder.spans)
    from oracle import canonical_digest

    # replayed reports are shared objects: digest each object once
    digests: dict[int, str] = {}
    for report in reports:
        if id(report) not in digests:
            digests[id(report)] = canonical_digest(report.to_dict())
    out["digests"] = [digests[id(report)] for report in reports]
    out["statuses"] = [report.status for report in reports]
    return out


def main(argv: list[str]) -> int:
    job_path, out_path = argv
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    out = run(job)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
