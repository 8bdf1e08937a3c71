"""Clustered grading through the serve pool stays byte-identical."""

from __future__ import annotations

import asyncio

from repro.core.profile import GradingProfile
from repro.serve import GradingWorkerPool

from tests.cluster.conftest import make_variant


CLUSTER = GradingProfile(cluster=True)


def run(coro):
    return asyncio.run(coro)


def test_pool_cluster_output_matches_plain(assignment1, audit1):
    base = assignment1.reference_solutions[0]
    members = [base] + [make_variant(base, audit1, v) for v in (1, 2)]

    async def go():
        plain_pool = GradingWorkerPool(workers=1)
        cluster_pool = GradingWorkerPool(workers=1, profile=CLUSTER)
        await plain_pool.start()
        await cluster_pool.start()
        try:
            pairs = []
            for source in members:
                plain = await plain_pool.grade("assignment1", source, 10.0)
                clustered = await cluster_pool.grade(
                    "assignment1", source, 10.0
                )
                pairs.append((plain, clustered))
            return pairs
        finally:
            await plain_pool.stop()
            await cluster_pool.stop()

    for plain, clustered in run(go()):
        assert not plain.killed and not clustered.killed
        assert plain.report.status == clustered.report.status == "ok"
        assert plain.report.render() == clustered.report.render()
        assert plain.report.to_dict() == clustered.report.to_dict()


SOURCE = """\
public class Main {
    static int zorp(int blee) {
        int accum = 0;
        for (int kk = 0; kk < blee; kk++) {
            accum += kk;
        }
        return accum;
    }
}
"""


def test_cluster_counters_surface_through_the_pool(audit1):
    # distinct spellings, one bucket: the crafted source has renameable
    # identifiers, so the two members differ in bytes
    members = [make_variant(SOURCE, audit1, v) for v in (1, 2)]
    assert members[0] != members[1]

    async def go():
        pool = GradingWorkerPool(workers=1, profile=CLUSTER)
        await pool.start()
        try:
            return [
                await pool.grade("assignment1", source, 10.0)
                for source in members
            ]
        finally:
            await pool.stop()

    first, second = run(go())
    assert first.collector is not None
    assert first.collector.counters.get("cluster.representatives") == 1
    # the second member lands in the warm bucket and is specialized
    assert second.collector.counters.get("cluster.specialized") == 1


def test_pool_buckets_persist_in_the_cache_dir(assignment1, audit1, tmp_path):
    # a second pool over the same cache dir — a restarted service —
    # specializes an alpha-renamed resubmission from the stored bucket
    first, renamed = (make_variant(SOURCE, audit1, v) for v in (1, 2))
    assert first != renamed

    async def grade_once(source):
        pool = GradingWorkerPool(
            workers=1, store_root=str(tmp_path), profile=CLUSTER
        )
        await pool.start()
        try:
            return await pool.grade("assignment1", source, 10.0)
        finally:
            await pool.stop()

    cold = run(grade_once(first))
    warm = run(grade_once(renamed))
    assert cold.collector.counters.get("cluster.representatives") == 1
    assert warm.collector.counters.get("cluster.store_hits") == 1
    assert warm.collector.counters.get("cluster.specialized") == 1

    from repro.core.engine import FeedbackEngine

    expected = FeedbackEngine(assignment1).grade(renamed)
    assert warm.report.to_dict() == expected.to_dict()
    assert warm.report.render() == expected.render()
