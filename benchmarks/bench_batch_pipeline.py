"""Batch pipeline benchmark: serial vs cached vs parallel+cached.

The MOOC workload the paper targets is duplicate-heavy — students
resubmit unchanged files and cohorts converge on identical solutions —
so the batch pipeline's content-keyed cache turns a large fraction of
the stream into replay.  This benchmark builds a synthetic cohort with
a controlled duplicate fraction (60% duplicates by default, well above
the 30% a real MOOC easily exceeds) and compares three configurations:

* ``serial``            — no cache, one submission at a time (baseline)
* ``serial+cache``      — dedupe/replay only
* ``parallel+cache``    — process pool on top of the cache

asserting that parallel+cache achieves >= 2x the serial throughput and
that its reports are byte-identical to the serial baseline's.

It also gates the static-analysis layer's cost: on an uncached serial
run, the ``analysis`` phase (the ``repro.analysis`` submission checks)
must stay under :data:`ANALYSIS_OVERHEAD_LIMIT` of end-to-end batch
wall time.

Run standalone (CI smoke-tests ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_batch_pipeline.py [--quick]

or under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_pipeline.py -q
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.core.pipeline import BatchGrader
from repro.kb import get_assignment
from repro.synth import sample_submissions

#: Fraction of the cohort that duplicates an earlier submission.
DUPLICATE_FRACTION = 0.6
#: Required speedup of parallel+cache over the serial baseline.
REQUIRED_SPEEDUP = 2.0
#: Ceiling on the analysis phase's share of end-to-end batch wall time.
ANALYSIS_OVERHEAD_LIMIT = 0.10


def build_cohort(assignment, size: int, seed: int = 11):
    """``size`` submissions of which ``DUPLICATE_FRACTION`` are repeats."""
    unique = max(1, round(size * (1 - DUPLICATE_FRACTION)))
    originals = sample_submissions(assignment.space(), unique, seed=seed)
    rng = random.Random(seed)
    cohort = [(f"s{i:04d}", originals[i].source) for i in range(unique)]
    while len(cohort) < size:
        i = len(cohort)
        cohort.append((f"s{i:04d}", rng.choice(originals).source))
    rng.shuffle(cohort)
    return cohort


def run_config(assignment, cohort, label, **grader_kwargs):
    """Grade the cohort once; returns (label, elapsed, result)."""
    grader = BatchGrader(assignment, **grader_kwargs)
    started = time.perf_counter()
    result = grader.grade_batch(cohort)
    return label, time.perf_counter() - started, result


def run_comparison(assignment_name="assignment1", size=240, workers=4,
                   verbose=True):
    assignment = get_assignment(assignment_name)
    cohort = build_cohort(assignment, size)
    duplicates = size - len({source for _, source in cohort})
    configs = [
        ("serial", dict(mode="serial", cache=False)),
        ("serial+cache", dict(mode="serial", cache=True)),
        ("parallel+cache", dict(mode="process", workers=workers, cache=True)),
    ]
    rows = [run_config(assignment, cohort, label, **kwargs)
            for label, kwargs in configs]
    baseline = rows[0][1]
    if verbose:
        print(f"cohort: {size} submissions for {assignment_name}, "
              f"{duplicates} duplicates "
              f"({100 * duplicates / size:.0f}% >= 30% required)")
        print(f"{'configuration':16s} {'wall s':>8s} {'subs/s':>9s} "
              f"{'speedup':>8s} {'hit rate':>9s}")
        for label, elapsed, result in rows:
            print(f"{label:16s} {elapsed:8.3f} "
                  f"{result.stats.throughput:9.1f} "
                  f"{baseline / elapsed:7.2f}x "
                  f"{100 * result.stats.cache_hit_rate:8.1f}%")
    serial_result = rows[0][2]
    parallel_label, parallel_elapsed, parallel_result = rows[-1]
    speedup = baseline / parallel_elapsed
    identical = serial_result.rendered() == parallel_result.rendered()
    if verbose:
        print(f"parallel+cache output byte-identical to serial: {identical}")
        print(f"parallel+cache speedup over serial: {speedup:.2f}x "
              f"(required >= {REQUIRED_SPEEDUP:.1f}x)")
    return speedup, identical, duplicates / size, rows


def run_analysis_overhead(assignment_name="assignment1", size=120,
                          verbose=True):
    """Analysis-phase share of an uncached serial batch (the worst case:
    every submission is graded, nothing is replayed from a cache)."""
    assignment = get_assignment(assignment_name)
    cohort = build_cohort(assignment, size)
    _label, elapsed, result = run_config(
        assignment, cohort, "serial", mode="serial", cache=False
    )
    stats = result.stats.to_dict()
    analysis_ms = stats["phase_ms"].get("analysis", 0.0)
    share = (analysis_ms / 1000.0) / elapsed if elapsed > 0 else 0.0
    diagnostics = stats["counters"].get("analysis.diagnostics", 0)
    if verbose:
        print(f"analysis overhead: {analysis_ms:.1f} ms of "
              f"{elapsed * 1000:.1f} ms batch wall "
              f"({100 * share:.1f}%, limit "
              f"{100 * ANALYSIS_OVERHEAD_LIMIT:.0f}%); "
              f"{diagnostics} diagnostics over {size} submissions")
    return share, analysis_ms, diagnostics


# -- pytest entry points -------------------------------------------------

def test_analysis_phase_overhead_bounded():
    share, analysis_ms, _ = run_analysis_overhead(size=80, verbose=False)
    assert share < ANALYSIS_OVERHEAD_LIMIT, (
        f"analysis phase took {100 * share:.1f}% of batch wall time "
        f"({analysis_ms:.1f} ms), limit {100 * ANALYSIS_OVERHEAD_LIMIT:.0f}%"
    )


def test_duplicate_heavy_cohort_parallel_cached_speedup():
    speedup, identical, dup_rate, _ = run_comparison(size=120, verbose=False)
    assert dup_rate >= 0.30
    assert identical, "parallel+cache output differs from serial"
    assert speedup >= REQUIRED_SPEEDUP, (
        f"parallel+cache speedup {speedup:.2f}x < {REQUIRED_SPEEDUP}x"
    )


def test_all_modes_byte_identical():
    assignment = get_assignment("assignment1")
    cohort = build_cohort(assignment, 40)
    cohort.append(("broken", "int x = ;"))
    outputs = [
        run_config(assignment, cohort, label, **kwargs)[2].rendered()
        for label, kwargs in [
            ("serial", dict(mode="serial", cache=False)),
            ("cache", dict(mode="serial", cache=True)),
            ("process", dict(mode="process", workers=2, cache=True)),
        ]
    ]
    assert outputs[0] == outputs[1] == outputs[2]


# -- standalone entry point ----------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small cohort (CI smoke test)")
    parser.add_argument("--assignment", default="assignment1")
    parser.add_argument("--size", type=int, default=None,
                        help="cohort size (default 240, or 80 with --quick)")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)
    size = args.size if args.size is not None else (80 if args.quick else 240)
    speedup, identical, dup_rate, _ = run_comparison(
        args.assignment, size=size, workers=args.workers
    )
    share, analysis_ms, _ = run_analysis_overhead(
        args.assignment, size=size
    )
    if share >= ANALYSIS_OVERHEAD_LIMIT:
        print(f"FAIL: analysis phase is {100 * share:.1f}% of batch "
              f"wall time (limit {100 * ANALYSIS_OVERHEAD_LIMIT:.0f}%)")
        return 1
    if not identical:
        print("FAIL: parallel output is not byte-identical to serial")
        return 1
    if dup_rate < 0.30:
        print(f"FAIL: duplicate rate {dup_rate:.0%} < 30%")
        return 1
    if speedup < REQUIRED_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x < {REQUIRED_SPEEDUP}x")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
