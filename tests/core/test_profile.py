"""Grading profiles: every path builds its grader and scopes its store alike."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.analysis.perf.model import perf_analysis_fingerprint
from repro.core import pipeline
from repro.core.campaign import CampaignRunner
from repro.core.pipeline import BatchGrader
from repro.core.profile import GradingProfile, build_grader
from repro.core.storage import ResultStore, kb_fingerprint
from repro.serve import pool as serve_pool
from repro.serve.server import GradingService, ServiceConfig

PROFILES = [
    GradingProfile(cluster=cluster, repair=repair, perf=perf)
    for cluster, repair, perf in itertools.product((False, True), repeat=3)
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_scope(assignment, profile: GradingProfile) -> str:
    """Scope values as earlier revisions computed them (plus the new pair)."""
    kb = kb_fingerprint(assignment)
    perf = f"perf:{perf_analysis_fingerprint()}:{assignment.perf!r}"
    if profile.repair and profile.perf:
        return _sha(f"{kb}:{perf}:repair")
    if profile.repair:
        return _sha(f"{kb}:repair")
    if profile.perf:
        return _sha(f"{kb}:{perf}")
    return kb


class TestScopePin:
    @pytest.mark.parametrize(
        "profile", PROFILES,
        ids=lambda p: f"cluster={p.cluster}-repair={p.repair}-perf={p.perf}",
    )
    def test_every_path_opens_the_same_scope(
        self, assignment1, tmp_path, monkeypatch, profile
    ):
        expected = expected_scope(assignment1, profile)
        assert profile.scope(assignment1) == expected
        opened: dict[str, str] = {}
        path = [""]

        def build(assignment, profile_, store=None):
            assert profile_ == profile
            opened[path[0]] = store.fingerprint
            return build_grader(assignment, profile_, store)

        monkeypatch.setattr(pipeline, "build_grader", build)
        monkeypatch.setattr(serve_pool, "build_grader", build)

        def via(name, call, *args, **kwargs):
            path[0] = name
            call(*args, **kwargs)

        flags = dict(
            cluster=profile.cluster, repair=profile.repair, perf=profile.perf
        )
        via("batch", BatchGrader, assignment1, store=tmp_path, **flags)
        via(
            "process-worker", pipeline._init_process_worker,
            assignment1, profile, None, str(tmp_path),
        )
        via("campaign", CampaignRunner, assignment1, tmp_path, **flags)
        graders = serve_pool._Graders(profile, str(tmp_path))
        job = ("assignment1", assignment1.reference_solutions[0], None, 0)
        via("serve-process", graders.run, job)

        service = GradingService(ServiceConfig(cache_dir=tmp_path, **flags))
        opened["serve-parent"] = service._tier("assignment1").store.fingerprint

        assert opened == dict.fromkeys(
            ["batch", "process-worker", "campaign", "serve-process",
             "serve-parent"],
            expected,
        )

    def test_mismatched_store_is_rejected(self, assignment1, tmp_path):
        plain = ResultStore(tmp_path, assignment1)
        repair = ResultStore(tmp_path, assignment1, repair=True)
        perf = ResultStore(tmp_path, assignment1, perf=True)
        for store, flags in [
            (plain, {"repair": True}),
            (repair, {}),
            (plain, {"perf": True}),
            (perf, {}),
            (repair, {"repair": True, "perf": True}),
        ]:
            with pytest.raises(ValueError, match="store scope"):
                BatchGrader(assignment1, store=store, **flags)
        with pytest.raises(ValueError, match="store scope"):
            build_grader(assignment1, GradingProfile(perf=True), plain)
