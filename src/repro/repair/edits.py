"""Edit-script extraction: from an alignment to student-facing edits.

Two responsibilities:

1. **Identifier substitution.**  The candidate solved the assignment
   with its own variable names; telling a student who wrote ``total``
   to add a statement about ``sum`` is noise.  Aligned pairs whose
   shapes agree vote on a candidate→student variable mapping (matching
   identifier occurrence positions inside the paired contents), the
   votes are resolved into a deterministic injective mapping over the
   candidate's *defined* variables, and every candidate-side text —
   edit ``after`` strings and the full repaired source — is rewritten
   through :func:`repro.cluster.specialize.rename_submission` (token
   splicing: simultaneous, never touches string literals); an empty
   mapping leaves every text as it is, unlexed.  A mapping target that
   would capture an existing candidate identifier which is not itself
   being renamed away is dropped rather than risked.  Identifiers are
   read with the lexer's identifier class, so ``$`` and non-ASCII
   names vote and are capture-checked like any other.

2. **Edit-script assembly.**  Matched pairs with differing content
   become ``rewrite`` edits, unmatched candidate nodes ``insert``,
   unmatched submission nodes ``delete`` — ranked rewrites first (the
   most actionable), then inserts, then deletes, each sub-ordered by
   method and node id.  The fully-applied result (``repaired_source``,
   the renamed candidate source) is what the engine verifies against
   the functional tests before any of this reaches a report.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.cluster.specialize import rename_submission
from repro.pdg.graph import Epdg
from repro.repair.align import IDENTIFIER, MethodAlignment
from repro.repair.model import EDIT_OPS, RepairEdit


def _occurrences(content: str, variables: frozenset[str]) -> list[str]:
    """The node's variable occurrences, in textual order."""
    return [
        token
        for token in IDENTIFIER.findall(content)
        if token in variables
    ]


def _rename(text: str, mapping: dict[str, str]) -> str:
    """``text`` through the mapping; an empty mapping changes nothing."""
    return rename_submission(text, mapping) if mapping else text


def variable_mapping(
    alignments: Iterable[MethodAlignment],
    candidate_graphs: Mapping[str, Epdg],
    candidate_source: str,
) -> dict[str, str]:
    """Candidate→student identifier mapping from the aligned pairs.

    Only shape-equal pairs vote (position-for-position over their
    variable occurrences); votes are resolved greedily by descending
    count with alphabetical tie-breaks, injectively on both sides, and
    restricted to variables the candidate actually *defines* — method
    names and field accesses never get renamed.  Identity votes still
    claim their slot, which protects a shared name from being mapped
    elsewhere.
    """
    defined: set[str] = set()
    for graph in candidate_graphs.values():
        for node in graph.nodes:
            defined.update(node.defines)
    votes: dict[tuple[str, str], int] = {}
    for alignment in alignments:
        for left, right in alignment.pairs:
            if not alignment.same_shape(left, right):
                continue
            left_seq = _occurrences(left.content, left.variables)
            right_seq = _occurrences(right.content, right.variables)
            if len(left_seq) != len(right_seq):
                continue
            for student_var, candidate_var in zip(left_seq, right_seq):
                if candidate_var in defined:
                    pair = (candidate_var, student_var)
                    votes[pair] = votes.get(pair, 0) + 1
    mapping: dict[str, str] = {}
    used_targets: set[str] = set()
    for (candidate_var, student_var), _ in sorted(
        votes.items(), key=lambda item: (-item[1], item[0])
    ):
        if candidate_var in mapping or student_var in used_targets:
            continue
        mapping[candidate_var] = student_var
        used_targets.add(student_var)
    # Capture safety: renaming x -> y is only sound if y either does not
    # occur in the candidate at all or is itself renamed away (the token
    # splice is simultaneous, so swaps are fine).  Drop offenders in
    # deterministic order; dropping shrinks the key set, so re-check
    # until stable.
    candidate_identifiers = set(IDENTIFIER.findall(candidate_source))
    while True:
        offenders = sorted(
            source
            for source, target in mapping.items()
            if target != source
            and target in candidate_identifiers
            and target not in mapping
        )
        if not offenders:
            break
        for source in offenders:
            del mapping[source]
    return {
        source: target
        for source, target in mapping.items()
        if source != target
    }


def edit_script(
    alignments: Iterable[MethodAlignment], mapping: Mapping[str, str]
) -> tuple[RepairEdit, ...]:
    """Ranked statement edits from the alignment, identifiers mapped."""
    rename = dict(mapping)
    edits: list[tuple[int, str, int, RepairEdit]] = []
    rank = {op: i for i, op in enumerate(EDIT_OPS)}
    for alignment in alignments:
        for left, right in alignment.pairs:
            after = _rename(right.content, rename)
            if left.content == after:
                continue
            edits.append(
                (
                    rank["rewrite"],
                    alignment.method,
                    left.node_id,
                    RepairEdit(
                        op="rewrite",
                        method=alignment.method,
                        node_type=right.type.value,
                        before=left.content,
                        after=after,
                    ),
                )
            )
        for right in alignment.unmatched_right:
            edits.append(
                (
                    rank["insert"],
                    alignment.method,
                    right.node_id,
                    RepairEdit(
                        op="insert",
                        method=alignment.method,
                        node_type=right.type.value,
                        after=_rename(right.content, rename),
                    ),
                )
            )
        for left in alignment.unmatched_left:
            edits.append(
                (
                    rank["delete"],
                    alignment.method,
                    left.node_id,
                    RepairEdit(
                        op="delete",
                        method=alignment.method,
                        node_type=left.type.value,
                        before=left.content,
                    ),
                )
            )
    edits.sort(key=lambda item: item[:3])
    return tuple(edit for *_, edit in edits)


def repaired_source(
    candidate_source: str, mapping: Mapping[str, str]
) -> str:
    """The edit script fully applied: the candidate in the student's names."""
    return _rename(candidate_source, dict(mapping))
