"""MOOC-scale batch grading: the scenario the paper's intro motivates.

Samples a synthetic cohort from an assignment's error-model space (the
stand-in for a MOOC's submission stream), injects the duplication a
real MOOC exhibits (students resubmitting identical files), and pushes
everything through the batch pipeline (``repro.core.pipeline``): worker
pool, content-keyed result cache, per-phase metrics.  Prints an
instructor dashboard: throughput, cache hit rate, per-phase wall time,
verdict distribution, and the most common mistakes.

    python examples/mooc_batch_grading.py [assignment] [cohort-size] [mode]
"""

import random
import sys

from repro import get_assignment
from repro.core.pipeline import BatchGrader
from repro.matching.feedback import FeedbackStatus
from repro.synth import sample_submissions


def build_cohort(assignment, size: int, seed: int = 42):
    """A cohort with MOOC-style duplication: ~40% unique solutions.

    Students resubmit unchanged files and converge on the same fixes,
    so a realistic stream repeats sources heavily — exactly what the
    pipeline's content-keyed cache exploits.
    """
    space = assignment.space()
    unique = max(1, int(size * 0.4))
    originals = sample_submissions(space, unique, seed=seed)
    rng = random.Random(seed)
    cohort = [(f"student-{i:04d}", rng.choice(originals).source)
              for i in range(size)]
    return cohort


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "assignment1"
    cohort_size = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    mode = sys.argv[3] if len(sys.argv) > 3 else "serial"

    assignment = get_assignment(name)
    cohort = build_cohort(assignment, cohort_size)
    print(f"Assignment {name}: search space of "
          f"{assignment.space().size:,} programs, grading a cohort of "
          f"{len(cohort)} (mode={mode})")

    grader = BatchGrader(assignment, mode=mode)
    result = grader.grade_batch(cohort)

    print()
    print(result.stats.summary())

    print()
    counts = result.status_counts()
    print("Verdicts:", ", ".join(
        f"{count} {status}" for status, count in sorted(counts.items())
    ))

    mistakes: dict[str, int] = {}
    for report in result.reports:
        for comment in report.comments:
            if comment.status is not FeedbackStatus.CORRECT:
                key = f"{comment.source} [{comment.status}]"
                mistakes[key] = mistakes.get(key, 0) + 1
    if mistakes:
        print("\nTop mistakes across the cohort:")
        ranked = sorted(mistakes.items(), key=lambda kv: (-kv[1], kv[0]))
        for source, count in ranked[:8]:
            print(f"  {count:4d}  {source}")

    # Resubmission wave: the whole cohort resubmits unchanged files —
    # the cache answers everything without grading a single one again.
    wave = grader.grade_batch(cohort)
    print(f"\nResubmission wave: {wave.stats.submissions} submissions, "
          f"{wave.stats.graded} graded, cache hit rate "
          f"{100 * wave.stats.cache_hit_rate:.1f}%, "
          f"{wave.stats.throughput:,.0f} submissions/s")


if __name__ == "__main__":
    main()
