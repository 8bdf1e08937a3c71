"""Shared benchmark fixtures and the sampled synthetic cohorts.

Benchmarks regenerate the paper's Table I and the Section VI-C
comparisons.  Spaces with millions of programs are sampled
deterministically (seeded) so every run measures the same submissions;
EXPERIMENTS.md records the paper-vs-measured numbers.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import pytest

from repro.core import FeedbackEngine
from repro.kb import all_assignment_names, get_assignment
from repro.synth import sample_submissions

#: Submissions sampled per assignment for timing benchmarks.
SAMPLE = 30


@pytest.fixture(scope="session", params=all_assignment_names())
def bench_assignment(request):
    return get_assignment(request.param)


@pytest.fixture(scope="session")
def cohorts():
    """Materialized sample cohort per assignment (cached per session)."""
    result = {}
    for name in all_assignment_names():
        assignment = get_assignment(name)
        result[name] = sample_submissions(assignment.space(), SAMPLE, seed=1)
    return result


@pytest.fixture(scope="session")
def engines():
    return {
        name: FeedbackEngine(get_assignment(name))
        for name in all_assignment_names()
    }



@pytest.fixture
def mean_seconds(benchmark: Any) -> Callable[..., tuple[Any, float]]:
    """Run a body under ``benchmark``; its result and mean seconds per call.

    With benchmarking on, the mean is pytest-benchmark's own.  Under
    ``--benchmark-disable`` the fixture runs the body once and keeps no
    stats (``benchmark.stats`` is ``None``), so the mean is that call's
    wall time, taken here.  Keywords go to ``benchmark.pedantic``;
    without them ``benchmark(body)`` calibrates its own rounds.
    """

    def run(body: Callable[[], Any], **pedantic: Any) -> tuple[Any, float]:
        elapsed: list[float] = []

        def timed() -> Any:
            started = time.perf_counter()
            try:
                return body()
            finally:
                elapsed.append(time.perf_counter() - started)

        if pedantic:
            result = benchmark.pedantic(timed, **pedantic)
        else:
            result = benchmark(timed)
        if benchmark.stats is not None:
            return result, benchmark.stats["mean"]
        return result, sum(elapsed) / len(elapsed)

    return run
