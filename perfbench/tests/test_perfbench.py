"""Tests of the benchmark itself: inputs, oracle, span arithmetic, schema.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.core.pipeline import source_key  # noqa: E402

GENERATORS = [
    lambda seed: workloads.cold_unique(seed, 60),
    lambda seed: workloads.mooc_day(seed, 120),
    lambda seed: workloads.channels(seed, 40),
    lambda seed: workloads.served(seed, 80),
]


@pytest.mark.parametrize("generate", GENERATORS)
def test_generators_are_deterministic_per_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_cold_unique_has_no_repeats_and_skips_warmup_sources():
    polls = workloads.cold_unique(3, 240)
    keys = [source_key(source) for _, items in polls for _, source in items]
    assert len(keys) == 240
    assert len(set(keys)) == len(keys)
    warm = {
        source_key(source)
        for sources in workloads.warmup_sources(3).values()
        for source in sources
    }
    assert not warm & set(keys)
    assert {name for name, _ in polls} == set(workloads.assignments())


def test_mooc_day_is_repeat_and_rename_heavy():
    polls = workloads.mooc_day(3, 600)
    items = [(name, kind, source) for name, batch in polls
             for kind, source in batch]
    traffic = run._traffic(items)
    assert traffic["duplicate_share"] > 0.5
    assert traffic["rename_share"] > 0.1


def test_renamed_variants_share_a_cluster_bucket():
    from repro.cluster.audit import audit_assignment
    from repro.cluster.fingerprint import fingerprint_source
    from repro.kb import get_assignment

    name = "esc-LAB-3-P1-V1"
    audit = audit_assignment(get_assignment(name))
    rename = workloads._renamer(name)
    source = get_assignment(name).space().submission(4242).source
    first, second = rename(source, 1), rename(source, 2)
    assert first != second
    assert (fingerprint_source(first, audit).digest
            == fingerprint_source(second, audit).digest)


def test_oracle_flags_a_tampered_report():
    from repro.core.pipeline import BatchGrader
    from repro.kb import get_assignment

    name = "assignment1"
    sources = [source for n, batch in workloads.cold_unique(5, 48)
               if n == name for _, source in batch][:2]
    items = [(name, source) for source in sources]
    reference = oracle.reference_digests(items)
    reports = BatchGrader(get_assignment(name)).grade_batch(sources).reports
    honest = [oracle.canonical_digest(r.to_dict()) for r in reports]
    assert oracle.mismatches(items, honest, reference) == 0
    tampered = reports[0].to_dict()
    tampered["score"] += 1
    digests = [oracle.canonical_digest(tampered), honest[1]]
    assert oracle.mismatches(items, digests, reference) == 1


def test_canonical_digest_survives_an_http_round_trip():
    payload = {"b": [1, 2.5, "x"], "a": {"z": None, "y": True}}
    assert oracle.canonical_digest(payload) == oracle.canonical_digest(
        json.loads(json.dumps(payload, indent=3)))


def test_self_time_subtracts_only_direct_children():
    tree = [
        spans.Span("core.engine.grade", 0.0, 10.0, None, "s1"),
        spans.Span("java.parse", 1.0, 3.0, 0, "s1"),
        spans.Span("matching.match", 4.0, 9.0, 0, "s1"),
        spans.Span("interp.run_tests", 5.0, 6.0, 2, "s1"),
        spans.Span("interp.run_tests", 5.5, 7.0, 2, "s1"),  # overlaps
        spans.Span("core.store.get", 12.0, 13.0, None, "s2"),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 1.0, 1.5, 1.0]
    totals = spans.layer_totals(tree)
    assert totals["interp.run_tests"] == (2, 2.5)
    assert totals["repair.suggest"] == (0, 0.0)
    assert spans.root_seconds(tree) == 11.0


def test_findings_count_time_outside_every_span():
    traced = {
        "timed_s": 10.0, "root_s": 4.0,
        "layers": {"matching.match": (5, 3.0), "cluster.grade": (5, 0.5),
                   "core.batch.grade": (9, 0.5)},
    }
    found = run.findings("mooc_day", traced)
    assert found["self_time_shares"] == {
        "cluster": 0.05, "core": 0.05, "matching": 0.3, "unattributed": 0.6}
    assert not found["prediction_holds"]


def test_metrics_delta_subtracts_counters_section_by_section():
    import served

    before = {"graded": 48, "phase_ms": {"parse": 10.0}, "mode": "serve"}
    after = {"graded": 1248, "phase_ms": {"parse": 70.0, "analysis": 4.0},
             "mode": "serve"}
    assert served._minus(after, before) == {
        "graded": 1200, "phase_ms": {"parse": 60.0, "analysis": 4.0},
        "mode": "serve"}


def test_recorder_nests_spans_and_restores_entry_points():
    from repro.core.engine import FeedbackEngine
    from repro.java import parser
    from repro.kb import get_assignment

    original = parser.parse_submission
    recorder = spans.Recorder()
    recorder.install()
    try:
        engine = FeedbackEngine(get_assignment("assignment1"),
                                frontend_cache_size=0)
        engine.grade(get_assignment("assignment1").reference_solutions[0])
    finally:
        recorder.uninstall()
    assert parser.parse_submission is original
    names = [span.name for span in recorder.spans]
    assert names[0] == "core.engine.grade"
    assert {"java.parse", "pdg.build", "matching.match",
            "analysis.checks"} <= set(names)
    assert all(span.parent == 0 for span in recorder.spans[1:])
    assert len({span.submission for span in recorder.spans}) == 1


def test_closed_loop_records_a_prefix_of_the_payloads_in_order():
    import asyncio

    import served

    class Echo:
        async def request(self, payload):
            await asyncio.sleep(0.001 * (payload[0] % 3))
            return 200, payload

    payloads = [bytes([i]) for i in range(200)]
    records = asyncio.run(served.closed_loop([Echo(), Echo()], payloads,
                                             seconds=0.05))
    assert 0 < len(records) < len(payloads)
    assert [body for *_, body in records] == payloads[:len(records)]
    assert all(due == sent <= done for due, sent, done, _, _ in records)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc")
def test_reap_all_stops_orphaned_grandchildren():
    import subprocess

    script = (
        "import subprocess, time, run\n"
        "run.adopt_orphans()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 &'], check=True)\n"
        "time.sleep(0.2)\n"
        "print(len(run._children()))\n"
        "run.reap_all()\n"
        "print(len(run._children()))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=HERE,
                         capture_output=True, text=True, check=True,
                         timeout=30).stdout.split()
    assert out == ["1", "0"]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, *_ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["unit"] for m in spec["end_to_end"]} <= set(run.UNITS.values())
