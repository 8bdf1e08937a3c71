"""Streaming campaign runner: grade arbitrarily large cohorts safely.

A grading *campaign* is the offline counterpart of the serving layer:
one assignment, one knowledge-base version, and a submission stream
that can be far larger than memory — the million-submission cohort the
paper's MOOC setting implies.  :class:`CampaignRunner` consumes any
iterable of ``(label, source)`` pairs **in bounded memory** by slicing
it into fixed-size shards and feeding each shard to a
:class:`~repro.core.pipeline.BatchGrader` (cluster-aware, any worker
mode), with three properties the one-shot ``grade-batch`` path cannot
give:

* **Checkpoint/resume.**  After each shard is graded and its reports
  are persisted, the runner journals a shard record — content digest,
  submission count, and the shard's
  :class:`~repro.core.metrics.PipelineStats` — into the result store
  under the campaign id.  A re-run of the same campaign skips every
  journaled shard (validating its digest against the incoming stream,
  so a changed manifest fails loudly instead of resuming into the
  wrong data) and merges the checkpointed stats back in, making an
  interrupted million-submission run resumable with **zero regrades**.
* **Transactional shards.**  Each shard's reports are written in one
  store transaction once the shard is graded (one commit per thousand
  reports), and a crash mid-shard rolls back to misses rather than
  torn entries.  Process workers' own bucket and corpus writes run
  outside it, so they never wait on the parent's write lock.  The
  journal record is written only *after* the shard's reports and
  output file are durable, so a checkpoint never claims work that did
  not land.
* **KB-scoped journal.**  Journal records live in the store under the
  same KB fingerprint as the reports they checkpoint; editing the
  knowledge base invalidates both together, and a resumed campaign
  under a new KB regrades from scratch instead of trusting stale
  checkpoints.

Usage::

    from repro.core.campaign import CampaignRunner, synthetic_stream
    from repro.kb import get_assignment

    assignment = get_assignment("assignment1")
    runner = CampaignRunner(assignment, "/var/cache/repro", shard_size=1000)
    result = runner.run(
        synthetic_stream(assignment, 1_000_000),
        campaign_id="cohort-2026",
    )
    print(result.stats.summary())

The CLI front end is ``repro grade-campaign`` (manifest files or
``--synthetic`` streams); ``benchmarks/bench_campaign.py`` drives the
million-submission acceptance run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.assignment import Assignment
from repro.core.metrics import PipelineStats
from repro.core.pipeline import BatchGrader
from repro.core.profile import GradingProfile
from repro.core.storage import ResultStore, _safe_component
from repro.errors import ReproError

#: Default submissions per shard: large enough to amortize the per-shard
#: transaction and journal write, small enough that one shard's labels,
#: sources, and reports stay comfortably in memory.
DEFAULT_SHARD_SIZE = 1000


class CampaignError(ReproError):
    """A campaign cannot start or resume safely."""


@dataclass
class CampaignResult:
    """Everything one :meth:`CampaignRunner.run` call produced.

    ``stats`` aggregates the *whole* campaign — checkpointed shards
    replayed from the journal plus shards graded by this run — while
    ``run_stats`` covers only the work this invocation performed, which
    is what makes "resume finished with zero regrades" a checkable
    property (``run_stats.graded == 0``).
    """

    campaign_id: str
    assignment_name: str
    stats: PipelineStats = field(default_factory=PipelineStats)
    run_stats: PipelineStats = field(default_factory=PipelineStats)
    shards_total: int = 0
    shards_resumed: int = 0
    shards_graded: int = 0
    submissions: int = 0
    wall_seconds: float = 0.0
    #: ``False`` when ``max_shards`` stopped the run before the stream
    #: was exhausted — the checkpoint state a resume picks up from.
    completed: bool = True

    def to_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "assignment": self.assignment_name,
            "shards_total": self.shards_total,
            "shards_resumed": self.shards_resumed,
            "shards_graded": self.shards_graded,
            "submissions": self.submissions,
            "wall_seconds": round(self.wall_seconds, 6),
            "completed": self.completed,
            "stats": self.stats.to_dict(),
            "run_stats": self.run_stats.to_dict(),
        }


def _shard_digest(shard: Sequence[tuple[str, str]]) -> str:
    """Order-sensitive content digest of one shard's submissions."""
    hasher = hashlib.sha256()
    for label, source in shard:
        hasher.update(label.encode("utf-8", "surrogatepass"))
        hasher.update(b"\x00")
        hasher.update(source.encode("utf-8", "surrogatepass"))
        hasher.update(b"\x01")
    return hasher.hexdigest()


def _chunked(
    submissions: Iterable[tuple[str, str]], size: int
) -> Iterator[list[tuple[str, str]]]:
    """Slice a lazy stream into lists of at most ``size`` items."""
    shard: list[tuple[str, str]] = []
    for item in submissions:
        shard.append(item)
        if len(shard) >= size:
            yield shard
            shard = []
    if shard:
        yield shard


class CampaignRunner:
    """Grades a submission stream in resumable, transactional shards.

    Parameters mirror :class:`~repro.core.pipeline.BatchGrader` — the
    runner owns one grader for the whole campaign, so the in-memory
    result cache and (in cluster mode) the bucket registry warm up
    across shards.  ``store`` is required: the journal and the reports
    live there, and it is what makes the campaign resumable.
    """

    def __init__(
        self,
        assignment: Assignment,
        store: ResultStore | str | os.PathLike,
        *,
        shard_size: int = DEFAULT_SHARD_SIZE,
        mode: str = "serial",
        workers: int | None = None,
        cluster: bool = False,
        max_seconds: float | None = None,
        repair: bool = False,
        perf: bool = False,
    ):
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self.assignment = assignment
        self.shard_size = shard_size
        if isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = GradingProfile(repair=repair, perf=perf).open_store(
                store, assignment
            )
        self.grader = BatchGrader(
            assignment,
            mode=mode,
            workers=workers,
            cache=True,
            max_seconds=max_seconds,
            store=self.store,
            cluster=cluster,
            repair=repair,
            perf=perf,
        )

    # ------------------------------------------------------------------

    def run(
        self,
        submissions: Iterable[tuple[str, str]],
        *,
        campaign_id: str = "campaign",
        resume: bool = True,
        max_shards: int | None = None,
        output_dir: str | os.PathLike | None = None,
    ) -> CampaignResult:
        """Grade the stream; journal each shard; resume past checkpoints.

        ``max_shards`` stops the run after that many shards have been
        *processed* (graded or resumed) — deliberate checkpoint-and-exit
        semantics for benchmarks and crash drills.  ``output_dir``
        additionally writes one JSONL file per shard
        (``shard-<index>.jsonl``; one ``{"label", "key", "report"}``
        object per line, in input order) — the campaign's deliverable,
        byte-identical whichever worker mode produced it and whether
        its reports were graded or replayed from the store.

        Raises :class:`CampaignError` when the journal disagrees with
        the incoming stream (different ``shard_size``, or a shard whose
        digest no longer matches its checkpoint): resuming would
        silently mislabel reports, so it refuses.
        """
        if not campaign_id or _safe_component(campaign_id) != campaign_id:
            raise CampaignError(
                f"campaign id {campaign_id!r} must be non-empty and use "
                "only letters, digits, '-', '_', and '.'"
            )
        if max_shards is not None and max_shards <= 0:
            raise ValueError("max_shards must be positive")
        started = time.perf_counter()
        out_dir = Path(output_dir) if output_dir is not None else None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)

        result = CampaignResult(
            campaign_id=campaign_id,
            assignment_name=self.assignment.name,
        )
        self._check_header(campaign_id, resume)

        for index, shard in enumerate(_chunked(submissions, self.shard_size)):
            if max_shards is not None and index >= max_shards:
                result.completed = False
                break
            digest = _shard_digest(shard)
            shard_key = f"{campaign_id}/shard-{index:08d}"
            checkpoint = self.store.get_campaign(shard_key) if resume else None
            if checkpoint is not None:
                self._resume_shard(
                    index, shard, digest, checkpoint, out_dir, result
                )
            else:
                self._grade_shard(
                    index, shard, digest, shard_key, out_dir, result
                )
            result.shards_total += 1
            result.submissions += len(shard)

        result.wall_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # internals

    def _check_header(self, campaign_id: str, resume: bool) -> None:
        """Validate or create the campaign's header record.

        The header pins the shard geometry: resuming with a different
        ``shard_size`` would re-slice the stream so no digest could
        match, which must be an explicit error, not a silent full
        regrade.
        """
        header_key = f"{campaign_id}/header"
        header = self.store.get_campaign(header_key) if resume else None
        if header is not None:
            recorded = header.get("shard_size")
            if recorded != self.shard_size:
                raise CampaignError(
                    f"campaign {campaign_id!r} was journaled with "
                    f"shard_size={recorded}, cannot resume with "
                    f"shard_size={self.shard_size}"
                )
            return
        self.store.put_campaign(
            header_key,
            {
                "shard_size": self.shard_size,
                "assignment": self.assignment.name,
            },
        )

    def _resume_shard(
        self,
        index: int,
        shard: list[tuple[str, str]],
        digest: str,
        checkpoint: dict,
        out_dir: Path | None,
        result: CampaignResult,
    ) -> None:
        """Replay a journaled shard: stats from the checkpoint, no grading."""
        if checkpoint.get("digest") != digest:
            raise CampaignError(
                f"campaign {result.campaign_id!r} shard {index} does not "
                "match its checkpoint (the manifest changed); rerun with "
                "a new campaign id or --no-resume"
            )
        result.stats.merge(PipelineStats.from_dict(checkpoint.get("stats", {})))
        result.shards_resumed += 1
        result.run_stats.record_counter("campaign.shards_resumed")
        result.run_stats.record_counter(
            "campaign.submissions_resumed", len(shard)
        )
        if out_dir is not None and not self._output_path(out_dir, index).is_file():
            # The reports are in the store; regenerate the missing file
            # by replaying them (store hits — still zero regrades).
            batch = self.grader.grade_batch(shard)
            self.run_stats_merge(result, batch.stats)
            self._write_output(out_dir, index, batch)

    def _grade_shard(
        self,
        index: int,
        shard: list[tuple[str, str]],
        digest: str,
        shard_key: str,
        out_dir: Path | None,
        result: CampaignResult,
    ) -> None:
        """Grade one shard transactionally, then journal its checkpoint.

        ``grade_batch`` writes the shard's reports in one store
        transaction once the shard is graded.
        """
        batch = self.grader.grade_batch(shard)
        if out_dir is not None:
            self._write_output(out_dir, index, batch)
        # Journal strictly after the reports (and output file) are
        # durable: a crash between them re-grades one shard from a warm
        # store, which is cheap — the opposite order could checkpoint
        # work that never landed.
        self.store.put_campaign(
            shard_key,
            {
                "digest": digest,
                "count": len(shard),
                "stats": batch.stats.to_dict(),
            },
        )
        result.stats.merge(batch.stats)
        self.run_stats_merge(result, batch.stats)
        result.shards_graded += 1
        result.run_stats.record_counter("campaign.shards_graded")

    @staticmethod
    def run_stats_merge(result: CampaignResult, stats: PipelineStats) -> None:
        """Fold one batch's stats into the fresh-work aggregate."""
        result.run_stats.mode = stats.mode
        result.run_stats.workers = stats.workers
        result.run_stats.merge(stats)

    @staticmethod
    def _output_path(out_dir: Path, index: int) -> Path:
        return out_dir / f"shard-{index:08d}.jsonl"

    def _write_output(self, out_dir: Path, index: int, batch) -> None:
        """Atomically write one shard's reports as JSONL, input order."""
        path = self._output_path(out_dir, index)
        lines = [
            json.dumps(
                {
                    "label": item.label,
                    "key": item.key,
                    "report": item.report.to_dict(),
                },
                separators=(",", ":"),
            )
            for item in batch.items
        ]
        tmp_path = path.parent / f"{path.name}.{os.getpid()}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp_path, path)


# ----------------------------------------------------------------------
# submission streams


def iter_manifest(path: str | os.PathLike) -> Iterator[tuple[str, str]]:
    """Stream ``(label, source)`` pairs from a JSONL manifest, lazily.

    Each line is a JSON object with a ``label`` (optional; defaults to
    the line number) and either an inline ``source`` or a ``path`` to a
    Java file resolved relative to the manifest.  The file is read one
    line at a time, so manifests can be arbitrarily large.
    """
    manifest = Path(path)
    base = manifest.parent
    with open(manifest, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise CampaignError(
                    f"{manifest}:{number}: not valid JSON ({error})"
                ) from None
            if not isinstance(record, dict):
                raise CampaignError(
                    f"{manifest}:{number}: expected a JSON object"
                )
            label = str(record.get("label", f"line-{number:08d}"))
            if "source" in record:
                source = record["source"]
                if not isinstance(source, str):
                    raise CampaignError(
                        f"{manifest}:{number}: 'source' must be a string"
                    )
            elif "path" in record:
                source_path = base / str(record["path"])
                try:
                    source = source_path.read_text(
                        encoding="utf-8", errors="surrogateescape"
                    )
                except OSError as error:
                    raise CampaignError(
                        f"{manifest}:{number}: cannot read "
                        f"{source_path} ({error})"
                    ) from None
            else:
                raise CampaignError(
                    f"{manifest}:{number}: needs 'source' or 'path'"
                )
            yield label, source


def synthetic_stream(
    assignment: Assignment,
    count: int,
    seed: int = 11,
    unique: int = 200,
    duplicate_fraction: float = 0.6,
) -> Iterator[tuple[str, str]]:
    """Generate a duplicate-heavy synthetic cohort, lazily.

    Mirrors the MOOC workload shape the paper targets: a bounded pool
    of distinct solutions (drawn from the assignment's synthesis
    space) covered by a much larger stream of resubmissions.  The
    first ``unique`` items enumerate the pool once (so every distinct
    source appears), then the remainder samples the pool at random —
    ``duplicate_fraction`` of the *pool-eligible* stream positions are
    repeats by construction.  Deterministic for a given seed, which is
    what lets an interrupted synthetic campaign resume against the
    digest journal.
    """
    from repro.synth import sample_submissions

    unique = max(1, min(unique, count, round(count * (1 - duplicate_fraction)) or 1))
    originals = sample_submissions(assignment.space(), unique, seed=seed)
    rng = random.Random(seed)
    for i in range(count):
        if i < len(originals):
            source = originals[i].source
        else:
            source = rng.choice(originals).source
        yield f"synthetic-{i:08d}", source
