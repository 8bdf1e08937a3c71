"""Per-assignment corpus of functionally-verified correct solutions.

The repair channel suggests fixes by aligning a failing submission
against *known-correct* solutions, so the quality bar for corpus
admission is functional, not structural: every candidate — the KB's
reference solutions and synthetic variants sampled from the
assignment's :class:`~repro.synth.spaces.SubmissionSpace` — must pass
the assignment's full test suite through :mod:`repro.testing` before it
is admitted.  Synthetic candidates are drawn from
``SubmissionSpace.correct_indices`` (reference-option-first DFS order),
which front-loads near-reference variants and gives the corpus cheap
structural diversity.

Persistence rides the :mod:`repro.core.storage` result store as record kind
``"repair"``: one record per entry keyed by the solution's content key,
plus an index record under :data:`INDEX_KEY` listing the entry keys.
The store envelope already scopes records by KB fingerprint, so a
knowledge-base edit orphans the corpus together with the reports graded
against it.  Loading is corruption-tolerant in the store's usual sense
— an unreadable, truncated, or key-mismatched entry record is silently
dropped (degrading toward "no suggestion"), and a missing or unreadable
index reads as "no corpus"; a wrong suggestion can additionally never
escape because the engine re-verifies every repaired source before
emitting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.assignment import Assignment
from repro.core.pipeline import source_key
from repro.core.storage import ResultStore
from repro.instrumentation import count
from repro.testing import run_tests_on_source
from repro.testing.functional import DEFAULT_TEST_BUDGET

#: Store key of the corpus index record (lists the entry keys).
INDEX_KEY = "corpus"

#: Default number of synthetic candidates sampled per build.
DEFAULT_SYNTH_SAMPLES = 16

#: Recognized entry origins.
ORIGINS = ("reference", "synth")


@dataclass(frozen=True)
class CorpusEntry:
    """One verified correct solution: content key, source, provenance."""

    key: str
    source: str
    origin: str

    def to_record(self) -> dict[str, Any]:
        return {"source": self.source, "origin": self.origin}

    @classmethod
    def from_record(
        cls, key: str, record: Mapping[str, Any] | None
    ) -> "CorpusEntry | None":
        """Decode a stored record, or ``None`` when it cannot be trusted.

        Beyond shape checks, the content key is recomputed from the
        stored source: a record whose bytes were swapped or truncated
        past the JSON layer no longer hashes to its key and is dropped
        rather than ever aligned against.
        """
        if not isinstance(record, Mapping):
            return None
        source = record.get("source")
        origin = record.get("origin")
        if not isinstance(source, str) or not source:
            return None
        if not isinstance(origin, str):
            return None
        if source_key(source) != key:
            return None
        return cls(key=key, source=source, origin=origin)


class RepairCorpus:
    """The verified solutions of one assignment, in admission order.

    ``verdicts`` maps each source text :meth:`build` ran the test suite
    on to whether it passed; a corpus read back by :meth:`load` ran
    nothing and has none.
    """

    def __init__(
        self,
        assignment: Assignment,
        entries: list[CorpusEntry],
        verdicts: Mapping[str, bool] | None = None,
    ):
        self.assignment = assignment
        self.entries = entries
        self.verdicts: Mapping[str, bool] = verdicts or {}

    def __len__(self) -> int:
        return len(self.entries)

    def origin_counts(self) -> dict[str, int]:
        counts = {origin: 0 for origin in ORIGINS}
        for entry in self.entries:
            counts[entry.origin] = counts.get(entry.origin, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(
        cls,
        assignment: Assignment,
        synth_samples: int = DEFAULT_SYNTH_SAMPLES,
        step_budget: int = DEFAULT_TEST_BUDGET,
    ) -> "RepairCorpus":
        """Assemble and functionally verify the corpus for ``assignment``.

        Every candidate runs the assignment's test suite; only passing
        sources are admitted (``repair.corpus_rejected`` counts the
        rest).  Duplicates — a reference solution that the space also
        generates, say — are collapsed by content key, first origin
        wins.
        """
        candidates: list[tuple[str, str]] = [
            (source, "reference") for source in assignment.reference_solutions
        ]
        if synth_samples > 0 and assignment.space_factory is not None:
            space = assignment.space()
            for index in space.correct_indices(limit=synth_samples):
                candidates.append((space.submission(index).source, "synth"))
        entries: list[CorpusEntry] = []
        verdicts: dict[str, bool] = {}
        seen: set[str] = set()
        for source, origin in candidates:
            count("repair.corpus_candidates")
            key = source_key(source)
            if key in seen:
                continue
            seen.add(key)
            passed = run_tests_on_source(
                source, assignment.tests, step_budget=step_budget
            ).passed
            verdicts[source] = passed
            if not passed:
                count("repair.corpus_rejected")
                continue
            count("repair.corpus_admitted")
            entries.append(CorpusEntry(key=key, source=source, origin=origin))
        return cls(assignment, entries, verdicts)

    # ------------------------------------------------------------------
    # persistence

    def save(self, store: ResultStore) -> int:
        """Persist every entry plus the index record; returns entry count.

        Entry records go first so a writer killed mid-save leaves either
        no index (no corpus: the next consumer rebuilds) or an index
        whose entries are all already durable — never an index pointing
        at nothing but air.  Individual write failures are best-effort
        like every store write; the loader drops what it cannot read.
        """
        for entry in self.entries:
            store.put_repair(entry.key, entry.to_record())
        store.put_repair(
            INDEX_KEY,
            {
                "entries": [entry.key for entry in self.entries],
                "count": len(self.entries),
            },
        )
        return len(self.entries)

    @classmethod
    def load(
        cls, assignment: Assignment, store: ResultStore
    ) -> "RepairCorpus | None":
        """Read the corpus back, dropping anything unreadable.

        Returns ``None`` when no index record exists (nothing was ever
        built for this assignment+KB scope); otherwise a corpus holding
        every entry that survived envelope validation and the content
        re-hash — possibly empty, which the engine treats as "no
        suggestion available".
        """
        index = store.get_repair(INDEX_KEY)
        if index is None:
            return None
        keys = index.get("entries")
        if not isinstance(keys, list):
            return None
        entries: list[CorpusEntry] = []
        for key in keys:
            if not isinstance(key, str):
                count("repair.corpus_dropped")
                continue
            entry = CorpusEntry.from_record(key, store.get_repair(key))
            if entry is None:
                count("repair.corpus_dropped")
                continue
            entries.append(entry)
        return cls(assignment, entries)
