"""Command-line interface: grade submissions from the shell.

Usage::

    repro list
    repro show assignment1
    repro grade assignment1 Submission.java
    repro grade assignment1 -            # read the submission from stdin
    repro grade-batch assignment1 submissions/ --stats
    repro grade-batch assignment1 --synthetic 200 --mode process --stats
    repro grade-batch assignment1 submissions/ --cluster --stats
    repro grade-campaign assignment1 manifest.jsonl --cache-dir cache/
    repro grade-campaign assignment1 --synthetic 1000000 --cache-dir cache/
    repro store info cache/
    repro repair corpus build assignment1 --cache-dir cache/
    repro repair corpus info assignment1 --cache-dir cache/
    repro serve --port 8652 --workers 4 [--cluster]
    repro lint-kb [assignment ...] [--json -] [--fail-on error]
    repro test assignment1 Submission.java
    repro epdg assignment1 Submission.java [--dot]
    repro export-kb out_dir/

Instructors get the whole pipeline without writing Python: ``grade``
prints the personalized feedback, ``grade-batch`` runs the batch
pipeline (worker pools + result cache, see ``docs/SCALING.md``) over
files, directories, or a synthetic cohort, ``grade-campaign`` streams
arbitrarily large manifests through checkpointed shards (resumable;
see ``docs/SCALING.md``), ``store`` inspects the persistent result
store, ``repair`` manages the repair channel's per-assignment corpus
of verified correct solutions (the ``--repair`` flag on
grade-batch/grade-campaign/serve turns the channel on; see
``docs/REPAIR.md``), the ``--perf`` flag on the same
three commands adds performance diagnostics (loop anti-patterns
cross-checked against measured cost shapes; see ``docs/ANALYSIS.md``),
``lint-kb`` statically
validates the pattern/constraint knowledge base (the CI gate; see
``docs/ANALYSIS.md``), ``test`` runs the functional suite, ``epdg``
dumps the dependence graph, and ``export-kb`` writes the knowledge base
as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import sys

from repro import FeedbackEngine, all_assignment_names, get_assignment
from repro.errors import JavaSyntaxError, ReproError
from repro.java import parse_submission
from repro.kb import all_patterns
from repro.patterns import constraint_to_dict, pattern_to_dict
from repro.pdg import extract_all_epdgs, to_dot
from repro.testing import run_tests_on_source


def _read_source(path: str) -> str:
    """A submission file (``-``: stdin) as UTF-8 text, newlines universal.

    A byte that is not UTF-8 decodes to a lone surrogate
    (``surrogateescape``): in code it grades ``parse-error`` like any
    other unlexable character, instead of aborting the command.
    """
    if path != "-":
        return pathlib.Path(path).read_text(
            encoding="utf-8", errors="surrogateescape"
        )
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:  # an in-memory text stream: already decoded
        return sys.stdin.read()
    stdin = io.TextIOWrapper(buffer, encoding="utf-8", errors="surrogateescape")
    try:
        return stdin.read()
    finally:
        stdin.detach()  # leave sys.stdin open


def _cmd_list(_args) -> int:
    print(f"{'assignment':22s} {'P':>3} {'C':>3} {'S':>10}  title")
    for name in all_assignment_names():
        assignment = get_assignment(name)
        size = assignment.space().size if assignment.space_factory else 0
        print(f"{name:22s} {assignment.pattern_count:3d} "
              f"{assignment.constraint_count:3d} {size:10,d}  "
              f"{assignment.title}")
    return 0


def _cmd_show(args) -> int:
    assignment = get_assignment(args.assignment)
    print(f"{assignment.name}: {assignment.title}")
    print(assignment.statement)
    print()
    for method in assignment.expected_methods:
        print(f"expected method: {method.name}")
        for pattern, count in method.patterns:
            expected = "any" if count is None else count
            print(f"  pattern {pattern.name} (expected {expected}): "
                  f"{pattern.description}")
        for constraint in method.constraints:
            print(f"  constraint {constraint.name}")
    print()
    print("reference solution:")
    print(assignment.reference_solutions[0])
    return 0


def _cmd_grade(args) -> int:
    assignment = get_assignment(args.assignment)
    engine = FeedbackEngine(assignment)
    report = engine.grade(_read_source(args.submission))
    print(report.render())
    return 0 if report.is_positive else 1


def _collect_batch(args) -> list[tuple[str, str]]:
    """The cohort for ``grade-batch``: files, directories, or synthetic."""
    cohort: list[tuple[str, str]] = []
    for entry in args.submissions:
        path = pathlib.Path(entry)
        if path.is_dir():
            for java in sorted(path.glob("*.java")):
                cohort.append((java.name, _read_source(str(java))))
        else:
            cohort.append((path.name if entry != "-" else "<stdin>",
                           _read_source(entry)))
    if args.synthetic:
        from repro.synth import sample_submissions

        assignment = get_assignment(args.assignment)
        cohort.extend(
            (f"synthetic-{s.index}", s.source)
            for s in sample_submissions(
                assignment.space(), args.synthetic, seed=args.seed
            )
        )
    if not cohort:
        raise ReproError(
            "grade-batch needs submission files/directories or --synthetic N"
        )
    return cohort


def _cmd_grade_batch(args) -> int:
    from repro.core.pipeline import BatchGrader

    assignment = get_assignment(args.assignment)
    grader = BatchGrader(
        assignment,
        mode=args.mode,
        workers=args.workers,
        cache=not args.no_cache,
        store=args.cache_dir,
        cluster=args.cluster,
        repair=args.repair,
        perf=args.perf,
    )
    result = grader.grade_batch(_collect_batch(args))
    if args.json:
        payload = {
            "assignment": result.assignment_name,
            "stats": result.stats.to_dict(),
            "submissions": [
                {"label": item.label, "from_cache": item.from_cache,
                 **item.report.to_dict()}
                for item in result.items
            ],
        }
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            pathlib.Path(args.json).write_text(text + "\n")
    elif args.render:
        for item in result.items:
            print(f"=== {item.label} ===")
            print(item.report.render())
            print()
    else:
        for item in result.items:
            report = item.report
            cached = " (cached)" if item.from_cache else ""
            print(f"{item.label}: {report.status} "
                  f"{report.score:g}/{report.max_score:g}{cached}")
    if args.stats:
        print()
        print(result.stats.summary())
    return 1 if result.stats.errors else 0


def _cmd_grade_campaign(args) -> int:
    from repro.core.campaign import (
        CampaignRunner,
        iter_manifest,
        synthetic_stream,
    )

    assignment = get_assignment(args.assignment)
    if args.manifest is None and not args.synthetic:
        raise ReproError(
            "grade-campaign needs a manifest file or --synthetic N"
        )
    if args.manifest is not None and args.synthetic:
        raise ReproError(
            "grade-campaign takes a manifest file or --synthetic N, not both"
        )
    runner = CampaignRunner(
        assignment,
        args.cache_dir,
        shard_size=args.shard_size,
        mode=args.mode,
        workers=args.workers,
        cluster=args.cluster,
        max_seconds=args.max_seconds,
        repair=args.repair,
        perf=args.perf,
    )
    if args.manifest is not None:
        stream = iter_manifest(args.manifest)
    else:
        stream = synthetic_stream(
            assignment, args.synthetic, seed=args.seed
        )
    result = runner.run(
        stream,
        campaign_id=args.campaign_id,
        resume=not args.no_resume,
        max_shards=args.max_shards,
        output_dir=args.output_dir,
    )
    if args.json != "-":
        stopped = "" if result.completed else " (stopped at --max-shards)"
        print(
            f"campaign {result.campaign_id!r}: {result.submissions} "
            f"submissions in {result.shards_total} shards "
            f"({result.shards_resumed} resumed, {result.shards_graded} "
            f"graded) in {result.wall_seconds:.1f}s{stopped}"
        )
        if args.stats:
            print()
            print(result.stats.summary())
    if args.json:
        text = json.dumps(result.to_dict(), indent=2)
        if args.json == "-":
            print(text)
        else:
            pathlib.Path(args.json).write_text(text + "\n")
    return 1 if result.run_stats.errors else 0


def _cmd_store(args) -> int:
    import sqlite3

    from repro.core.storage import database_path

    db = database_path(pathlib.Path(args.directory))
    print(f"store root: {args.directory}")
    if not db.is_file():
        print(f"database: {db} (not created yet)")
        return 0
    size = db.stat().st_size
    try:
        with sqlite3.connect(db) as conn:
            rows = conn.execute(
                "SELECT kind, COUNT(*) FROM records GROUP BY kind"
            ).fetchall()
    except sqlite3.Error as error:
        raise ReproError(f"cannot read {db}: {error}") from None
    print(f"database: {db} ({size:,d} bytes)")
    for kind, count in sorted(rows):
        print(f"  {kind}: {count:,d} records")
    return 0


def _cmd_repair(args) -> int:
    from repro.core.profile import GradingProfile
    from repro.repair.corpus import RepairCorpus

    assignment = get_assignment(args.assignment)
    store = GradingProfile(repair=True).open_store(
        args.cache_dir, assignment
    )
    if args.corpus_command == "build":
        corpus = RepairCorpus.build(
            assignment, synth_samples=args.synth_samples
        )
        saved = corpus.save(store)
        counts = corpus.origin_counts()
        print(
            f"built repair corpus for {assignment.name}: {saved} verified "
            f"solutions ({counts.get('reference', 0)} reference, "
            f"{counts.get('synth', 0)} synthetic)"
        )
        return 0
    # info
    print(f"store root: {store.root}")
    print(f"repair records in scope: {store.repair_count():,d}")
    corpus = RepairCorpus.load(assignment, store)
    if corpus is None:
        print("corpus: not built (run `repro repair corpus build`)")
    else:
        counts = corpus.origin_counts()
        print(
            f"corpus: {len(corpus)} verified solutions "
            f"({counts.get('reference', 0)} reference, "
            f"{counts.get('synth', 0)} synthetic)"
        )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import GradingService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_capacity=args.queue,
        default_deadline_seconds=args.deadline,
        max_deadline_seconds=max(args.deadline, args.max_deadline),
        cache_size=args.cache_size,
        cache_dir=args.cache_dir,
        cluster=args.cluster,
        repair=args.repair,
        perf=args.perf,
        drain_timeout_seconds=args.drain_timeout,
        debug_hooks=args.debug_hooks,
    )
    if args.workers is not None:
        config.workers = max(1, args.workers)

    service = GradingService(config)

    async def run() -> int:
        await service.start()
        print(
            f"repro grading service on http://{config.host}:{service.port} "
            f"({config.workers} process workers, "
            f"queue {config.queue_capacity}, "
            f"deadline {config.default_deadline_seconds:g}s)",
            flush=True,
        )
        return await service.serve_forever()

    return asyncio.run(run())


def _cmd_lint_kb(args) -> int:
    from repro.analysis import lint_knowledge_base

    report = lint_knowledge_base(args.assignments or None)
    if args.json:
        text = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(text)
        else:
            pathlib.Path(args.json).write_text(text + "\n")
            print(report.render())
    else:
        print(report.render())
    thresholds = {"info": 0, "warning": 1, "error": 2}
    if args.fail_on == "never":
        return 0
    return 1 if report.worst_rank() >= thresholds[args.fail_on] else 0


def _cmd_test(args) -> int:
    assignment = get_assignment(args.assignment)
    report = run_tests_on_source(
        _read_source(args.submission), assignment.tests
    )
    print(report.summary())
    for result in report.failures:
        label = f"{result.test.method}{result.test.arguments}"
        if result.error:
            print(f"  FAIL {label}: {result.error}")
        else:
            print(f"  FAIL {label}: expected "
                  f"{result.test.expected_stdout!r}, got "
                  f"{result.actual_stdout!r}")
    return 0 if report.passed else 1


def _cmd_epdg(args) -> int:
    source = _read_source(args.submission)
    graphs = extract_all_epdgs(parse_submission(source))
    for name, graph in graphs.items():
        if args.dot:
            print(to_dot(graph))
        else:
            print(graph)
            print()
    return 0


def _cmd_export_kb(args) -> int:
    out = pathlib.Path(args.directory)
    (out / "patterns").mkdir(parents=True, exist_ok=True)
    (out / "assignments").mkdir(parents=True, exist_ok=True)
    for name, pattern in all_patterns().items():
        path = out / "patterns" / f"{name}.json"
        path.write_text(json.dumps(pattern_to_dict(pattern), indent=2))
    for name in all_assignment_names():
        assignment = get_assignment(name)
        payload = {
            "name": assignment.name,
            "title": assignment.title,
            "statement": assignment.statement,
            "reference_solutions": assignment.reference_solutions,
            "expected_methods": [
                {
                    "name": method.name,
                    "patterns": [
                        {"pattern": pattern.name, "expected": count}
                        for pattern, count in method.patterns
                    ],
                    "constraints": [
                        constraint_to_dict(c) for c in method.constraints
                    ],
                }
                for method in assignment.expected_methods
            ],
        }
        path = out / "assignments" / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2))
    total = len(all_patterns()) + len(all_assignment_names())
    print(f"wrote {total} knowledge-base files under {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Personalized feedback for introductory Java "
                    "assignments (ICDE 2017 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the twelve assignments"
                   ).set_defaults(func=_cmd_list)

    show = sub.add_parser("show", help="show one assignment's spec")
    show.add_argument("assignment")
    show.set_defaults(func=_cmd_show)

    grade = sub.add_parser("grade", help="grade a submission")
    grade.add_argument("assignment")
    grade.add_argument("submission", help="Java file, or - for stdin")
    grade.set_defaults(func=_cmd_grade)

    batch = sub.add_parser(
        "grade-batch",
        help="grade many submissions with workers + result cache",
    )
    batch.add_argument("assignment")
    batch.add_argument(
        "submissions", nargs="*",
        help="Java files and/or directories of *.java files",
    )
    batch.add_argument(
        "--synthetic", type=int, default=0, metavar="N",
        help="also grade N submissions sampled from the assignment's "
             "synthetic error-model space",
    )
    batch.add_argument("--seed", type=int, default=42,
                       help="sampling seed for --synthetic (default 42)")
    batch.add_argument(
        "--mode", choices=["serial", "process"], default="serial",
        help="worker model (default serial; results are identical in all "
             "modes)",
    )
    batch.add_argument("--workers", type=int, default=None,
                       help="pool size for process mode "
                            "(default: CPU count)")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the content-keyed result cache")
    batch.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent on-disk result cache shared "
                            "across runs and processes (entries are "
                            "invalidated automatically when the "
                            "knowledge base changes)")
    batch.add_argument("--cluster", action="store_true",
                       help="bucket structurally duplicate submissions "
                            "and grade one representative per bucket "
                            "(output-preserving; see docs/CLUSTERING.md)")
    batch.add_argument("--repair", action="store_true",
                       help="add verified minimal-fix suggestions to "
                            "rejected submissions' reports "
                            "(see docs/REPAIR.md)")
    batch.add_argument("--perf", action="store_true",
                       help="add performance diagnostics (loop "
                            "anti-patterns cross-checked against "
                            "measured cost shapes; see docs/ANALYSIS.md)")
    batch.add_argument("--stats", action="store_true",
                       help="print per-phase timing, cache hit rate, and "
                            "throughput (PipelineStats)")
    batch.add_argument("--render", action="store_true",
                       help="print full feedback per submission instead of "
                            "one summary line")
    batch.add_argument("--json", metavar="FILE",
                       help="write reports + stats as JSON (- for stdout)")
    batch.set_defaults(func=_cmd_grade_batch)

    campaign = sub.add_parser(
        "grade-campaign",
        help="grade an arbitrarily large cohort in resumable shards",
    )
    campaign.add_argument("assignment")
    campaign.add_argument(
        "manifest", nargs="?", default=None,
        help="JSONL manifest: one {\"label\", \"source\"|\"path\"} "
             "object per line (paths resolve relative to the manifest)",
    )
    campaign.add_argument(
        "--synthetic", type=int, default=0, metavar="N",
        help="grade N synthetic submissions instead of a manifest "
             "(duplicate-heavy stream from the assignment's "
             "synthesis space)",
    )
    campaign.add_argument("--seed", type=int, default=11,
                          help="seed for --synthetic (default 11)")
    campaign.add_argument("--cache-dir", metavar="DIR", required=True,
                          help="result store holding the reports and the "
                               "campaign journal (required: it is what "
                               "makes the campaign resumable)")
    campaign.add_argument("--campaign-id", default="campaign",
                          help="journal namespace; reusing an id resumes "
                               "it (default 'campaign')")
    campaign.add_argument("--shard-size", type=int, default=1000,
                          help="submissions per checkpointed shard "
                               "(default 1000)")
    campaign.add_argument(
        "--mode", choices=["serial", "process"], default="serial",
        help="worker model within each shard (default serial)",
    )
    campaign.add_argument("--workers", type=int, default=None,
                          help="pool size for process mode")
    campaign.add_argument("--cluster", action="store_true",
                          help="cluster-aware grading within shards "
                               "(see docs/CLUSTERING.md)")
    campaign.add_argument("--repair", action="store_true",
                          help="add verified minimal-fix suggestions to "
                               "rejected submissions' reports "
                               "(see docs/REPAIR.md)")
    campaign.add_argument("--perf", action="store_true",
                          help="add performance diagnostics to reports "
                               "(see docs/ANALYSIS.md)")
    campaign.add_argument("--max-seconds", type=float, default=None,
                          help="per-submission wall-clock budget")
    campaign.add_argument("--max-shards", type=int, default=None,
                          help="stop after this many shards (checkpoint "
                               "and exit; a rerun resumes)")
    campaign.add_argument("--no-resume", action="store_true",
                          help="ignore existing checkpoints for this "
                               "campaign id")
    campaign.add_argument("--output-dir", metavar="DIR", default=None,
                          help="write one JSONL report file per shard")
    campaign.add_argument("--stats", action="store_true",
                          help="print merged PipelineStats for the whole "
                               "campaign")
    campaign.add_argument("--json", metavar="FILE",
                          help="write the campaign result as JSON "
                               "(- for stdout)")
    campaign.set_defaults(func=_cmd_grade_campaign)

    store = sub.add_parser(
        "store",
        help="inspect a persistent result store",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    info = store_sub.add_parser(
        "info", help="show a store's database and its record counts",
    )
    info.add_argument("directory", help="store root (a --cache-dir)")
    info.set_defaults(func=_cmd_store)

    repair = sub.add_parser(
        "repair",
        help="manage the repair channel (see docs/REPAIR.md)",
    )
    repair_sub = repair.add_subparsers(dest="repair_command", required=True)
    corpus = repair_sub.add_parser(
        "corpus",
        help="build or inspect the verified-solution corpus",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_build = corpus_sub.add_parser(
        "build",
        help="verify reference + synthetic solutions and persist them",
    )
    corpus_build.add_argument("assignment")
    corpus_build.add_argument("--cache-dir", metavar="DIR", required=True,
                              help="result store the corpus persists into "
                                   "(shared with --repair grading runs)")
    corpus_build.add_argument("--synth-samples", type=int, default=16,
                              help="synthetic correct solutions to sample "
                                   "beyond the references (default 16)")
    corpus_build.set_defaults(func=_cmd_repair)
    corpus_info = corpus_sub.add_parser(
        "info", help="show the persisted corpus for one assignment",
    )
    corpus_info.add_argument("assignment")
    corpus_info.add_argument("--cache-dir", metavar="DIR", required=True,
                             help="result store to inspect")
    corpus_info.set_defaults(func=_cmd_repair)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio grading service (see docs/SERVING.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8652,
                       help="listen port (0 for ephemeral; default 8652)")
    serve.add_argument("--workers", type=int, default=None,
                       help="grading worker processes (default: up to 4)")
    # accepted for compatibility with existing scripts; process workers
    # are the only pool
    serve.add_argument("--pool-mode", choices=["process"],
                       help=argparse.SUPPRESS)
    serve.add_argument("--queue", type=int, default=64,
                       help="admitted requests allowed to wait for a "
                            "worker before 429 (default 64)")
    serve.add_argument("--deadline", type=float, default=10.0,
                       help="default per-request grading deadline in "
                            "seconds (default 10)")
    serve.add_argument("--max-deadline", type=float, default=30.0,
                       help="cap on client-requested deadlines "
                            "(default 30)")
    serve.add_argument("--cache-size", type=int, default=8192,
                       help="per-assignment result-cache entries "
                            "(default 8192)")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent on-disk result cache shared "
                            "with grade-batch and across restarts")
    serve.add_argument("--cluster", action="store_true",
                       help="bucket structurally duplicate submissions "
                            "per worker and specialize one "
                            "representative's report "
                            "(output-preserving; see docs/CLUSTERING.md)")
    serve.add_argument("--repair", action="store_true",
                       help="add verified minimal-fix suggestions to "
                            "rejected submissions' reports "
                            "(see docs/REPAIR.md)")
    serve.add_argument("--perf", action="store_true",
                       help="add performance diagnostics (loop "
                            "anti-patterns cross-checked against "
                            "measured cost shapes; see docs/ANALYSIS.md)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to wait for in-flight work on "
                            "SIGTERM (default 30)")
    serve.add_argument("--debug-hooks", action="store_true",
                       help="honor the debug_sleep_seconds request "
                            "field (load testing only)")
    serve.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint-kb",
        help="statically validate the knowledge base (CI gate)",
    )
    lint.add_argument(
        "assignments", nargs="*",
        help="assignment names to lint (default: all twelve)",
    )
    lint.add_argument("--json", metavar="FILE",
                      help="write the machine-readable lint report as "
                           "JSON (- for stdout)")
    lint.add_argument("--fail-on",
                      choices=["error", "warning", "info", "never"],
                      default="error",
                      help="lowest severity that makes the exit status "
                           "non-zero (default error)")
    lint.set_defaults(func=_cmd_lint_kb)

    test = sub.add_parser("test", help="run the functional tests")
    test.add_argument("assignment")
    test.add_argument("submission", help="Java file, or - for stdin")
    test.set_defaults(func=_cmd_test)

    epdg = sub.add_parser("epdg", help="print a submission's EPDGs")
    epdg.add_argument("assignment", nargs="?",
                      help="unused; kept for symmetry")
    epdg.add_argument("submission", help="Java file, or - for stdin")
    epdg.add_argument("--dot", action="store_true",
                      help="emit Graphviz DOT instead of text")
    epdg.set_defaults(func=_cmd_epdg)

    export = sub.add_parser("export-kb",
                            help="write the knowledge base as JSON")
    export.add_argument("directory")
    export.set_defaults(func=_cmd_export_kb)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except JavaSyntaxError as error:
        print(f"error: submission does not compile: {error}",
              file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
