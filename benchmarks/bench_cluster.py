"""Clustering benchmark: representative grading vs per-submission grading.

MOOC cohorts are duplicate-heavy in a way the batch pipeline's
content-keyed cache cannot see: resubmissions differ in variable names,
constant spellings, and spacing, so their bytes differ while their
grading is rename-equivalent.  This benchmark builds a synthetic cohort
of ``DISTINCT`` sampled structures, each appearing as ``VARIANTS``
alpha-renamed copies (an order-preserving renaming, so all copies land
in one fingerprint bucket), and compares:

* ``plain``    — ``BatchGrader(assignment)``: every submission grades
  through the full parse/match/analysis path;
* ``cluster``  — ``BatchGrader(assignment, cluster=True)``: one full
  grade per bucket, every other member specialized from the bucket
  record (one lex plus string joins).

The win is super-linear in the duplication factor: the cluster run
costs ``buckets * full_grade + members * lex`` against the plain run's
``members * full_grade``, so doubling the variants per structure nearly
doubles the speedup until the lexer floor dominates.  The full run
(10^4 submissions, 100 variants per structure) must clear
:data:`REQUIRED_SPEEDUP`; every run — any size — must produce reports
byte-identical to per-submission grading, which is the clustering
subsystem's differential gate on real cohort data.

Run standalone (CI smoke-tests ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_cluster.py [--quick]

or under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py -q

Full-run results land in ``BENCH_cluster.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.cluster import rename_submission
from repro.cluster.audit import audit_assignment
from repro.cluster.fingerprint import fingerprint_source
from repro.core.pipeline import BatchGrader
from repro.kb import get_assignment
from repro.synth import sample_submissions

#: Required cluster-over-plain speedup on the full duplicate-heavy run.
REQUIRED_SPEEDUP = 5.0
#: Required speedup on the small ``--quick`` cohort (CI smoke floor).
QUICK_REQUIRED_SPEEDUP = 2.0
#: Default benchmark assignment.  Its full grade is expensive (a long
#: scanner loop with many patterns), which is exactly the workload
#: clustering exists for; cheap assignments bottom out at the lexer
#: floor much earlier.
ASSIGNMENT = "rit-all-g-medals"

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


def _letters(value: int, width: int) -> str:
    """``value`` in fixed-width base-2 over the alphabet ``ab``.

    Fixed width keeps the strings' sort order equal to the numeric
    order, which :func:`build_cohort` relies on to make its renamings
    order-preserving.
    """
    out = []
    for _ in range(width):
        out.append("ab"[value % 2])
        value //= 2
    return "".join(reversed(out))


def build_cohort(assignment, distinct: int, variants: int, seed: int = 7):
    """``distinct * variants`` submissions, ``variants`` per bucket.

    Every renameable spelling of a sampled structure is renamed to
    ``q<variant>_<slot>``; slots are numbered in sorted-spelling order
    and both halves are fixed-width, so the renaming preserves the
    sorted order of the identifier set — all variants of one structure
    share a fingerprint (including the order signature) and land in one
    bucket.
    """
    audit = audit_assignment(assignment)
    samples = sample_submissions(assignment.space(), distinct, seed=seed)
    variant_width = max(1, (max(variants - 1, 1)).bit_length())
    cohort = []
    for i, sample in enumerate(samples):
        sprint = fingerprint_source(sample.source, audit)
        if sprint is None:
            continue
        names = sorted(sprint.spellings)
        slot_width = max(1, (max(len(names) - 1, 1)).bit_length())
        for r in range(variants):
            prefix = "q" + _letters(r, variant_width)
            renaming = {
                name: f"{prefix}_{_letters(j, slot_width)}"
                for j, name in enumerate(names)
            }
            cohort.append(
                (f"s{i:04d}v{r:04d}", rename_submission(sample.source, renaming))
            )
    random.Random(seed).shuffle(cohort)
    return cohort


def run_comparison(assignment_name=ASSIGNMENT, distinct=100, variants=100,
                   seed=7, verbose=True):
    """Grade one cohort plain and clustered; returns the result dict."""
    assignment = get_assignment(assignment_name)
    cohort = build_cohort(assignment, distinct, variants, seed=seed)

    started = time.perf_counter()
    plain = BatchGrader(assignment, cache=False).grade_batch(cohort)
    plain_wall = time.perf_counter() - started

    started = time.perf_counter()
    clustered = BatchGrader(assignment, cache=False, cluster=True).grade_batch(
        cohort
    )
    cluster_wall = time.perf_counter() - started

    identical = all(
        p.render() == c.render() and p.to_dict() == c.to_dict()
        for p, c in zip(plain.reports, clustered.reports)
    )
    counters = {
        key: value
        for key, value in sorted(clustered.stats.counters.items())
        if key.startswith("cluster.")
    }
    buckets = counters.get("cluster.representatives", 0)
    speedup = plain_wall / cluster_wall if cluster_wall > 0 else float("inf")
    results = {
        "assignment": assignment_name,
        "cohort_size": len(cohort),
        "distinct_structures": distinct,
        "variants_per_structure": variants,
        "buckets": buckets,
        "duplicate_rate": round(1 - buckets / len(cohort), 4),
        "plain_wall_seconds": round(plain_wall, 3),
        "cluster_wall_seconds": round(cluster_wall, 3),
        "plain_throughput_per_second": round(len(cohort) / plain_wall, 1),
        "cluster_throughput_per_second": round(len(cohort) / cluster_wall, 1),
        "speedup": round(speedup, 2),
        "byte_identical": identical,
        "counters": counters,
    }
    if verbose:
        print(f"cohort: {len(cohort)} submissions for {assignment_name} "
              f"({distinct} structures x {variants} renamed variants, "
              f"{100 * results['duplicate_rate']:.0f}% duplicate rate)")
        print(f"{'configuration':12s} {'wall s':>8s} {'subs/s':>9s} "
              f"{'speedup':>8s}")
        for label, wall in (("plain", plain_wall), ("cluster", cluster_wall)):
            print(f"{label:12s} {wall:8.3f} {len(cohort) / wall:9.1f} "
                  f"{plain_wall / wall:7.2f}x")
        print(f"cluster output byte-identical to plain: {identical}")
        print(f"buckets: {buckets}, "
              f"specialized: {counters.get('cluster.specialized', 0)}, "
              f"fallbacks: {counters.get('cluster.fallbacks', 0)}")
    return results


# -- pytest entry points -------------------------------------------------

def test_clustered_batch_byte_identical_and_faster():
    results = run_comparison(distinct=12, variants=10, verbose=False)
    assert results["byte_identical"], (
        "clustered reports differ from per-submission grading"
    )
    assert results["counters"].get("cluster.specialized", 0) > 0
    assert results["speedup"] >= QUICK_REQUIRED_SPEEDUP, (
        f"cluster speedup {results['speedup']:.2f}x "
        f"< {QUICK_REQUIRED_SPEEDUP}x on a duplicate-heavy cohort"
    )


def test_low_duplication_cohort_stays_identical():
    """One variant per structure: everything is a representative, the
    differential property must still hold (the documented worst case
    for enabling ``--cluster``)."""
    results = run_comparison(distinct=15, variants=1, verbose=False)
    assert results["byte_identical"]
    assert results["counters"].get("cluster.specialized", 0) == 0


# -- standalone entry point ----------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small cohort (CI smoke test); does not "
                             "rewrite BENCH_cluster.json")
    parser.add_argument("--assignment", default=ASSIGNMENT)
    parser.add_argument("--distinct", type=int, default=None,
                        help="distinct structures (default 100, "
                             "or 12 with --quick)")
    parser.add_argument("--variants", type=int, default=None,
                        help="renamed variants per structure "
                             "(default 100, or 10 with --quick)")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_cluster.json")
    args = parser.parse_args(argv)
    distinct = args.distinct if args.distinct is not None else (
        12 if args.quick else 100
    )
    variants = args.variants if args.variants is not None else (
        10 if args.quick else 100
    )
    required = QUICK_REQUIRED_SPEEDUP if args.quick else REQUIRED_SPEEDUP
    results = run_comparison(args.assignment, distinct=distinct,
                             variants=variants)
    payload = {
        "benchmark": "cluster",
        "mode": "quick" if args.quick else "full",
        "required_speedup": required,
        **results,
    }
    if not args.quick and not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    if not results["byte_identical"]:
        print("FAIL: clustered output is not byte-identical to plain")
        return 1
    if results["speedup"] < required:
        print(f"FAIL: speedup {results['speedup']:.2f}x < {required}x")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
