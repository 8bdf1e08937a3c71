"""Corpus-backed minimal-fix suggestions (``repro.repair``).

The paper's pattern feedback tells students *what is wrong*; this
package tells them *what to change*, following the search-align-repair
recipe (Wang et al.; Singh et al., PAPERS.md):

1. :mod:`repro.repair.corpus` — a per-assignment corpus of
   functionally-verified correct solutions, seeded from the KB's
   reference solutions plus synth sampling and persisted in the
   :mod:`repro.core.storage` result store (record kind ``repair``);
2. :mod:`repro.repair.search` — nearest-neighbor search over the corpus
   by EPDG distance, with cheap signature pre-filtering and a
   deadline-aware budget;
3. :mod:`repro.repair.align` / :mod:`repro.repair.edits` — bipartite
   node alignment of the best candidates against the failing
   submission, yielding a ranked minimal edit script with the student's
   own identifiers substituted back;
4. :mod:`repro.repair.engine` — the channel itself:
   :class:`~repro.repair.engine.RepairEngine` plugs into
   :class:`~repro.core.engine.FeedbackEngine` as the opt-in ``repair``
   pipeline phase, and every suggestion it emits is machine-verified
   (the repaired source passes :mod:`repro.testing`) first.

Submodules are resolved lazily: :mod:`repro.core.report` imports
:mod:`repro.repair.model` (a dependency-free leaf), and an eager import
of the heavier submodules here would close an import cycle back through
``repro.core``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.repair.model import RepairEdit, RepairSuggestion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.repair.corpus import CorpusEntry, RepairCorpus
    from repro.repair.engine import RepairConfig, RepairEngine

__all__ = [
    "CorpusEntry",
    "RepairConfig",
    "RepairCorpus",
    "RepairEdit",
    "RepairEngine",
    "RepairSuggestion",
]

_LAZY = {
    "CorpusEntry": "repro.repair.corpus",
    "RepairCorpus": "repro.repair.corpus",
    "RepairConfig": "repro.repair.engine",
    "RepairEngine": "repro.repair.engine",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
