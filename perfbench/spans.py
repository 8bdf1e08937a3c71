"""In-memory spans around each layer's public entry point.

The traced run installs wrappers from this file only; nothing under
``src/`` knows it is being traced.  Each wrapper records one span —
name, start, end, parent span and submission id — on a
:class:`Recorder`.  The batch traced run is serial and in-process, so
spans nest: a span's parent is the innermost span open when it started.

A layer's *self time* is its spans' durations minus the part of each
interval that its direct children cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

from repro.core.pipeline import source_key

#: (span name, module, attribute) of every wrapped entry point.  A dotted
#: attribute is a method, patched on its class; a plain one is a
#: function, patched in every loaded ``repro`` module that imported it.
#: The interpreter is entered through ``run_tests``, which both
#: ``run_tests_on_source`` (repair verification) and the perf analyzer's
#: probe ladder call.
ENTRY_POINTS = (
    ("java.parse", "repro.java.parser", "parse_submission"),
    ("pdg.build", "repro.pdg.builder", "extract_all_epdgs"),
    ("matching.match", "repro.matching.submission", "match_graphs"),
    ("analysis.checks", "repro.analysis.checks", "run_checks"),
    ("analysis.perf", "repro.analysis.perf.analyzer", "PerfAnalyzer.analyze"),
    ("repair.suggest", "repro.repair.engine", "RepairEngine.suggest"),
    ("interp.run_tests", "repro.testing.functional", "run_tests"),
    ("cluster.grade", "repro.cluster.grader", "ClusterGrader.grade"),
    ("core.batch.grade", "repro.core.pipeline", "BatchGrader.grade_batch"),
    ("core.engine.grade", "repro.core.engine", "FeedbackEngine.grade"),
    ("core.store.get", "repro.core.storage", "ResultStore.get"),
    ("core.store.get", "repro.core.storage", "ResultStore.get_cluster"),
    ("core.store.put", "repro.core.storage", "ResultStore.put"),
    ("core.store.put", "repro.core.storage", "ResultStore.put_cluster"),
)

#: Layer names in :data:`ENTRY_POINTS` order, without repeats.
LAYERS = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    submission: str


def _submission_of(args: tuple) -> str | None:
    """Submission id from an entry point's arguments, when it has one.

    Sources are keyed by content, store calls by the key they carry, so
    a submission's store lookup, grade and store write share one id.  A
    batch of one source is keyed as that source.
    """
    for arg in args:
        if isinstance(arg, list) and len(arg) == 1:
            arg = arg[0]
        if isinstance(arg, str):
            is_key = len(arg) == 64 and "\n" not in arg
            return (arg if is_key else source_key(arg))[:16]
    return None


class Recorder:
    """Collects spans and per-layer outcome counts in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self._open: list[int] = []
        self._anonymous = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        recorder = self
        method = "." in fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._open
            parent = stack[-1] if stack else None
            if parent is not None:
                submission = recorder.spans[parent].submission
            else:
                submission = _submission_of(args[1:] if method else args)
                if submission is None:
                    recorder._anonymous += 1
                    submission = f"#{recorder._anonymous}"
            span = Span(name, time.perf_counter(), 0.0, parent, submission)
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                recorder.errors[name] = recorder.errors.get(name, 0) + 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if result is not None:
                recorder.hits[name] = recorder.hits.get(name, 0) + 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for name, module_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                self._patch(owner, method, name)
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") \
                        and getattr(loaded, attribute, None) is original:
                    self._patched.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapper)

    def _patch(self, owner, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps([
                    span.name, round(span.start, 7), round(span.end, 7),
                    span.parent, span.submission,
                ]) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append(span.end - span.start - _covered(clipped))
    return result


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """``{layer: (calls, self seconds)}`` for every layer in :data:`LAYERS`."""
    totals = {layer: [0, 0.0] for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {layer: (calls, seconds) for layer, (calls, seconds)
            in totals.items()}


def root_seconds(spans: list[Span]) -> float:
    """Wall time covered by root spans (the rest is unattributed)."""
    return _covered([(s.start, s.end) for s in spans if s.parent is None])
