"""Nearest-neighbor candidate search over the repair corpus.

Exact EPDG alignment (:mod:`repro.repair.align`) is the expensive step,
so candidates are ranked first by a cheap structural **signature
distance** and only the closest few are aligned.  A method's signature
is a fixed-length integer vector — node count, edge counts per type,
node counts per :class:`~repro.pdg.graph.NodeType`, distinct-variable
count, and a capped degree-profile histogram — and the distance between
two submissions is the L1 distance summed over the union of their
method names (a method absent on one side compares against the zero
vector, so missing or extra methods cost their full weight).  The
signature is invariant under identifier renaming, matching the
alignment's own indifference to variable names.

Ranking is deterministic: ties break on the candidate's content key.
The caller polls :func:`repro.instrumentation.check_deadline` between
alignments, so search degrades to best-so-far under a deadline instead
of overshooting it.
"""

from __future__ import annotations

from typing import Mapping

from repro.pdg.graph import EdgeType, Epdg, NodeType

#: Node types with a signature slot (every type a builder can emit).
SIGNATURE_TYPES = (
    NodeType.ASSIGN,
    NodeType.BREAK,
    NodeType.CALL,
    NodeType.COND,
    NodeType.DECL,
    NodeType.RETURN,
)

#: Degree-profile histogram: 4 profile components × degree buckets 0-3+.
_HISTOGRAM_BUCKETS = 16

#: Total signature vector length (kept in sync with method_signature).
SIGNATURE_LENGTH = 3 + len(SIGNATURE_TYPES) + 1 + _HISTOGRAM_BUCKETS

_ZERO = (0,) * SIGNATURE_LENGTH


def method_signature(graph: Epdg) -> tuple[int, ...]:
    """Fixed-length structural vector of one method's EPDG."""
    ctrl = sum(1 for e in graph.edges if e.type is EdgeType.CTRL)
    data = len(graph.edges) - ctrl
    values = [len(graph.nodes), ctrl, data]
    values.extend(
        len(graph.nodes_of_type(node_type)) for node_type in SIGNATURE_TYPES
    )
    variables: set[str] = set()
    histogram = [0] * _HISTOGRAM_BUCKETS
    for node in graph.nodes:
        variables.update(node.variables)
        profile = graph.degree_profile(node.node_id)
        for component in range(4):
            histogram[component * 4 + min(profile[component], 3)] += 1
    values.append(len(variables))
    values.extend(histogram)
    return tuple(values)


def submission_signature(
    graphs: Mapping[str, Epdg],
) -> dict[str, tuple[int, ...]]:
    """Per-method signatures for a whole submission."""
    return {name: method_signature(graph) for name, graph in graphs.items()}


def signature_distance(
    left: Mapping[str, tuple[int, ...]],
    right: Mapping[str, tuple[int, ...]],
) -> int:
    """L1 distance over the union of method names."""
    total = 0
    for name in left.keys() | right.keys():
        a = left.get(name, _ZERO)
        b = right.get(name, _ZERO)
        total += sum(abs(x - y) for x, y in zip(a, b))
    return total


def rank_candidates(
    submission: Mapping[str, tuple[int, ...]],
    candidates: Mapping[str, Mapping[str, tuple[int, ...]]],
    top: int,
) -> list[tuple[int, str]]:
    """The ``top`` closest candidate keys, as ``(distance, key)`` pairs.

    Sorted ascending by distance, then key — so the ordering (and
    therefore which candidates get aligned under a tight budget) is
    stable across runs.
    """
    ranked = sorted(
        (signature_distance(submission, signature), key)
        for key, signature in candidates.items()
    )
    return ranked[: max(top, 0)]
