"""Performance-feedback benchmark: detection, false positives, overhead.

The cohort design mirrors the subsystem's premise: the slow variants
(:mod:`repro.synth.perf_models`) are functionally **correct**, so the
functional grader alone waves them through — only the two-sided perf
analyzer can flag them.  Four gates:

* ``detection``   — every seeded-slow submission gets at least one
  escalated (ERROR) perf diagnostic: 100% on the slow cohort;
* ``false positives`` — zero perf diagnostics across all reference
  solutions of all assignments *and* the seeded fast cohort;
* ``overhead``    — a ``--perf`` batch over the clean cohort costs
  less than 10% extra wall time over the same batch without it;
* ``compatibility`` — with perf disabled, reports are byte-identical
  to a grader that never heard of the analyzer.

Run standalone (CI smoke-tests ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_perf_feedback.py [--quick]

or under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_feedback.py -q

Full-run results land in ``BENCH_perf_feedback.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.diagnostics import Severity
from repro.analysis.perf.analyzer import PerfAnalyzer
from repro.core.engine import FeedbackEngine
from repro.core.pipeline import BatchGrader
from repro.kb import all_assignment_names, get_assignment
from repro.synth.perf_models import (
    PERF_SPACES,
    sample_fast_cohort,
    sample_slow_cohort,
)

#: Slow/fast samples per supported assignment in each cohort.
FULL_COUNT = 8
QUICK_COUNT = 2

#: Timed batch repetitions for the overhead gate (best-of to damp
#: scheduler noise; the batches themselves are deterministic).
OVERHEAD_REPEATS = 3

RESULT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_perf_feedback.json"
)


def _perf_engine(assignment) -> FeedbackEngine:
    return FeedbackEngine(
        assignment, channels=[PerfAnalyzer(assignment)]
    )


def run_detection(count: int):
    """Grade the seeded-slow cohorts; score escalated detections."""
    per_assignment = {}
    detected = total = 0
    for name in sorted(PERF_SPACES):
        engine = _perf_engine(get_assignment(name))
        hits = misses = 0
        for submission in sample_slow_cohort(name, count=count):
            # the slow variants pass the functional tests (asserted in
            # tests/synth/test_perf_models.py); detection means the
            # analyzer escalated at least one finding to an error
            report = engine.grade(submission.source)
            if any(d.severity is Severity.ERROR for d in report.perf):
                hits += 1
            else:
                misses += 1
        per_assignment[name] = {"detected": hits, "missed": misses}
        detected += hits
        total += hits + misses
    return {
        "cohort_size": total,
        "detected": detected,
        "rate": round(detected / total, 4) if total else 0.0,
        "per_assignment": per_assignment,
    }


def run_false_positives(count: int):
    """References of every assignment + fast cohorts: zero findings."""
    clean = flagged = 0
    offenders = []
    for name in all_assignment_names():
        assignment = get_assignment(name)
        engine = _perf_engine(assignment)
        sources = list(assignment.reference_solutions)
        if name in PERF_SPACES:
            sources += [
                s.source for s in sample_fast_cohort(name, count=count)
            ]
        for source in sources:
            report = engine.grade(source)
            if report.perf:
                flagged += 1
                offenders.append(
                    {"assignment": name,
                     "checks": [d.check for d in report.perf]}
                )
            else:
                clean += 1
    return {
        "cohort_size": clean + flagged,
        "false_positives": flagged,
        "offenders": offenders,
    }


def _clean_batch(count: int):
    """[(assignment_name, [(label, source), ...])] for the overhead and
    compatibility gates — clean submissions only, so timing differences
    are pure analyzer cost, not feedback-path divergence."""
    batches = []
    for name in sorted(PERF_SPACES):
        assignment = get_assignment(name)
        cohort = [
            (f"ref{i}", source)
            for i, source in enumerate(assignment.reference_solutions)
        ]
        cohort += [
            (f"fast{s.index}", s.source)
            for s in sample_fast_cohort(name, count=count)
        ]
        batches.append((name, cohort))
    return batches


def _time_batches(batches, perf: bool) -> float:
    best = None
    for _ in range(OVERHEAD_REPEATS):
        started = time.perf_counter()
        for name, cohort in batches:
            grader = BatchGrader(
                get_assignment(name), cache=False, perf=perf
            )
            grader.grade_batch(cohort)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def run_overhead(count: int):
    batches = _clean_batch(count)
    plain = _time_batches(batches, perf=False)
    with_perf = _time_batches(batches, perf=True)
    overhead = (with_perf - plain) / plain if plain else 0.0
    return {
        "submissions": sum(len(c) for _, c in batches),
        "plain_seconds": round(plain, 3),
        "perf_seconds": round(with_perf, 3),
        "overhead": round(overhead, 4),
    }


def run_compatibility(count: int):
    """Disabled perf must be invisible: byte-identical JSON payloads."""
    mismatches = 0
    compared = 0
    for name, cohort in _clean_batch(count):
        assignment = get_assignment(name)
        plain = BatchGrader(assignment, cache=False)
        explicit = BatchGrader(assignment, cache=False, perf=False)
        left = plain.grade_batch(cohort).reports
        right = explicit.grade_batch(cohort).reports
        for a, b in zip(left, right):
            compared += 1
            if (
                json.dumps(a.to_dict(), sort_keys=True)
                != json.dumps(b.to_dict(), sort_keys=True)
                or a.render() != b.render()
            ):
                mismatches += 1
    return {"compared": compared, "mismatches": mismatches}


def run_benchmark(count: int = FULL_COUNT, verbose: bool = True):
    results = {
        "detection": run_detection(count),
        "false_positives": run_false_positives(count),
        "overhead": run_overhead(count),
        "compatibility": run_compatibility(count),
    }
    if verbose:
        det = results["detection"]
        fps = results["false_positives"]
        ovh = results["overhead"]
        compat = results["compatibility"]
        print(f"detection:    {det['detected']}/{det['cohort_size']} "
              f"seeded-slow flagged ({det['rate']:.0%})")
        print(f"false pos:    {fps['false_positives']} across "
              f"{fps['cohort_size']} clean submissions")
        print(f"overhead:     {ovh['overhead']:+.1%} "
              f"({ovh['plain_seconds']}s -> {ovh['perf_seconds']}s over "
              f"{ovh['submissions']} submissions)")
        print(f"compat:       {compat['mismatches']} mismatches in "
              f"{compat['compared']} disabled-mode reports")
    return results


def gate(results) -> list[str]:
    """The acceptance gate; returns failure messages (empty = pass)."""
    failures = []
    det = results["detection"]
    if det["rate"] < 1.0:
        failures.append(
            f"detection {det['rate']:.2%} < 100% "
            f"({det['detected']}/{det['cohort_size']})"
        )
    fps = results["false_positives"]
    if fps["false_positives"]:
        failures.append(
            f"{fps['false_positives']} false positive(s): "
            f"{fps['offenders']}"
        )
    ovh = results["overhead"]
    if ovh["overhead"] >= 0.10:
        failures.append(
            f"perf overhead {ovh['overhead']:.1%} >= 10%"
        )
    compat = results["compatibility"]
    if compat["mismatches"]:
        failures.append(
            f"{compat['mismatches']} disabled-mode report(s) not "
            f"byte-identical"
        )
    return failures


# -- pytest entry points -------------------------------------------------

def test_seeded_slow_cohort_is_fully_detected():
    results = run_detection(QUICK_COUNT)
    assert results["rate"] == 1.0, results


def test_clean_cohort_has_zero_false_positives():
    results = run_false_positives(QUICK_COUNT)
    assert results["false_positives"] == 0, results["offenders"]


def test_disabled_mode_is_byte_identical():
    results = run_compatibility(QUICK_COUNT)
    assert results["mismatches"] == 0, results


# -- standalone entry point ----------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small cohorts (CI smoke test); does not "
                             "rewrite BENCH_perf_feedback.json")
    parser.add_argument("--count", type=int, default=None,
                        help="slow/fast samples per assignment (default "
                             f"{FULL_COUNT}, or {QUICK_COUNT} with "
                             "--quick)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_perf_feedback.json")
    args = parser.parse_args(argv)
    count = args.count if args.count is not None else (
        QUICK_COUNT if args.quick else FULL_COUNT
    )
    results = run_benchmark(count)
    failures = gate(results)
    payload = {
        "benchmark": "perf_feedback",
        "mode": "quick" if args.quick else "full",
        "gate": "100% detection, 0 false positives, <10% overhead, "
                "byte-identical when disabled",
        "passed": not failures,
        **results,
    }
    if not args.quick and not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
