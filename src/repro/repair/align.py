"""Bipartite statement alignment between submission and candidate EPDGs.

Given the failing submission's graphs and one corpus candidate's, this
module decides which statements correspond.  Nodes are bucketed by
``(method, NodeType)`` — a Cond never aligns with a Return — and within
each bucket a maximum-weight injective assignment is solved, where the
weight of pairing submission node *u* with candidate node *v* rewards,
in decreasing order: identical content, identical **shape** (content
with the node's own variables wildcarded, so ``x = x + 1`` and
``n = n + 1`` count as the same statement), similar degree profiles,
and matching defines/uses arity.  Pairs below :data:`MIN_PAIR_WEIGHT`
are disallowed; nodes left unmatched on the submission side become
*delete* edits downstream, unmatched candidate nodes become *inserts*,
and matched pairs with differing content become *rewrites*
(:mod:`repro.repair.edits`).

Shapes are computed once per node (:func:`graph_shapes`), not once per
pair: the engine keeps each corpus candidate's table for the engine's
lifetime and computes the submission's once per request.

Small buckets are solved exactly with the subset dynamic program of
the matcher's method-assignment sweep, run as a loop over the reachable
``(node, used-set)`` states (smallest-id tie-break, so results are
deterministic); buckets past :data:`EXACT_LIMIT` fall back to a
deterministic greedy matching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import sub
from typing import Mapping, Sequence

from repro.patterns.template import ANY_IDENTIFIER, BOUNDARY_BEFORE
from repro.pdg.graph import Epdg, GraphNode, NodeType

#: Minimum pairing weight: below this, leaving both nodes unmatched is
#: considered more honest than claiming they correspond.
MIN_PAIR_WEIGHT = 0.75

#: Largest per-side bucket size solved with the exact subset-memo DP
#: (state count is ``left × 2^right``; 12 keeps it under ~50k states).
EXACT_LIMIT = 12

#: Weight components.
_W_CONTENT = 4.0
_W_SHAPE = 2.0
_W_ARITY = 0.5


#: One identifier-character run, as the lexer reads identifiers (``$``
#: and non-ASCII letters included).  The boundary keeps runs maximal, so
#: a literal such as ``1e5`` or ``0x1F`` is one run, never ``e5``/``x1F``.
IDENTIFIER = re.compile(BOUNDARY_BEFORE + ANY_IDENTIFIER)

#: Per method name, the shape of every node, indexed by node id.
Shapes = Mapping[str, Sequence[str]]


def node_shape(node: GraphNode) -> str:
    """Node content with its own variables wildcarded to ``_``.

    Only identifiers the EPDG builder recognized as variables of this
    node are replaced, so keywords, called method names, and literals
    keep contributing to the shape.
    """
    variables = node.variables
    if not variables:
        return node.content
    return IDENTIFIER.sub(
        lambda match: "_" if match[0] in variables else match[0],
        node.content,
    )


def graph_shapes(graphs: Mapping[str, Epdg]) -> dict[str, tuple[str, ...]]:
    """:func:`node_shape` of every node of every method, computed once."""
    return {
        method: tuple(node_shape(node) for node in graph.nodes)
        for method, graph in graphs.items()
    }


def pair_weight(
    left: GraphNode,
    right: GraphNode,
    left_profile: tuple[int, int, int, int],
    right_profile: tuple[int, int, int, int],
    same_shape: bool,
) -> float:
    """Affinity of pairing submission node ``left`` with candidate ``right``.

    ``same_shape`` says whether the two nodes' shapes are equal.
    """
    weight = 0.0
    if left.content == right.content:
        weight += _W_CONTENT
    elif same_shape:
        weight += _W_SHAPE
    degree_gap = sum(map(abs, map(sub, left_profile, right_profile)))
    weight += 1.0 / (1.0 + degree_gap)
    if len(left.defines) == len(right.defines) and (
        len(left.uses) == len(right.uses)
    ):
        weight += _W_ARITY
    return weight


@dataclass
class MethodAlignment:
    """Alignment result for one method name."""

    method: str
    #: Matched ``(submission_node, candidate_node)`` pairs.
    pairs: list[tuple[GraphNode, GraphNode]] = field(default_factory=list)
    #: Submission-only nodes (downstream: delete edits).
    unmatched_left: list[GraphNode] = field(default_factory=list)
    #: Candidate-only nodes (downstream: insert edits).
    unmatched_right: list[GraphNode] = field(default_factory=list)
    #: Node shapes of each side's method graph, indexed by node id.
    left_shapes: Sequence[str] = ()
    right_shapes: Sequence[str] = ()

    def same_shape(self, left: GraphNode, right: GraphNode) -> bool:
        """Whether an aligned pair's shapes are equal."""
        return (
            self.left_shapes[left.node_id]
            == self.right_shapes[right.node_id]
        )


def align_graphs(
    submission: Mapping[str, Epdg],
    candidate: Mapping[str, Epdg],
    submission_shapes: Shapes,
    candidate_shapes: Shapes,
) -> list[MethodAlignment]:
    """Align every method of the submission against the candidate.

    Methods are matched by name (the corpus and the submission grade
    against the same published headers); a method present on only one
    side contributes all its nodes as unmatched.  Results are ordered
    by method name for determinism.  The shape tables are each side's
    :func:`graph_shapes`.
    """
    alignments: list[MethodAlignment] = []
    for method in sorted(submission.keys() | candidate.keys()):
        left_graph = submission.get(method)
        right_graph = candidate.get(method)
        alignment = MethodAlignment(method=method)
        if left_graph is None:
            assert right_graph is not None
            alignment.unmatched_right.extend(right_graph.nodes)
        elif right_graph is None:
            alignment.unmatched_left.extend(left_graph.nodes)
        else:
            alignment.left_shapes = submission_shapes[method]
            alignment.right_shapes = candidate_shapes[method]
            _align_method(left_graph, right_graph, alignment)
        alignments.append(alignment)
    return alignments


def _align_method(
    left_graph: Epdg, right_graph: Epdg, alignment: MethodAlignment
) -> None:
    types = sorted(
        {node.type for node in left_graph.nodes}
        | {node.type for node in right_graph.nodes},
        key=lambda t: t.value,
    )
    for node_type in types:
        _align_bucket(left_graph, right_graph, node_type, alignment)


def _align_bucket(
    left_graph: Epdg,
    right_graph: Epdg,
    node_type: NodeType,
    alignment: MethodAlignment,
) -> None:
    lefts = left_graph.nodes_of_type(node_type)
    rights = right_graph.nodes_of_type(node_type)
    if not lefts or not rights:
        alignment.unmatched_left.extend(lefts)
        alignment.unmatched_right.extend(rights)
        return
    right_profiles = [right_graph.degree_profile(v.node_id) for v in rights]
    weights: list[list[float]] = []
    for u in lefts:
        left_profile = left_graph.degree_profile(u.node_id)
        weights.append([
            pair_weight(
                u, v, left_profile, right_profile, alignment.same_shape(u, v)
            )
            for v, right_profile in zip(rights, right_profiles)
        ])
    if max(len(lefts), len(rights)) <= EXACT_LIMIT:
        matching = _solve_exact(weights)
    else:
        matching = _solve_greedy(weights)
    used_rights: set[int] = set()
    for i, u in enumerate(lefts):
        j = matching[i]
        if j is None:
            alignment.unmatched_left.append(u)
        else:
            used_rights.add(j)
            alignment.pairs.append((u, rights[j]))
    alignment.unmatched_right.extend(
        v for j, v in enumerate(rights) if j not in used_rights
    )


def _solve_exact(weights: list[list[float]]) -> list[int | None]:
    """Maximum-weight injective matching allowing unmatched nodes.

    The subset DP of the matcher's assignment solver
    (:func:`repro.matching.submission._solve_assignment`), extended with
    a *skip* option per left node and a weight floor
    (:data:`MIN_PAIR_WEIGHT`): ``best[i][used]`` is the largest total
    weight left nodes ``i..`` can add when the right nodes in bit set
    ``used`` are taken.  It is filled backwards over the sets reachable
    from the empty one, then read forwards; reconstruction prefers the
    smallest-index pairing, then skipping, so ties resolve the same way
    on every run.
    """
    n_left = len(weights)
    # admissible (bit, weight) options per left node, in right-id order
    options = [
        [(1 << j, w) for j, w in enumerate(row) if w >= MIN_PAIR_WEIGHT]
        for row in weights
    ]
    # reachable[i]: the used-sets that can be current at left node i
    reachable: list[set[int]] = [{0}]
    for row_options in options:
        before = reachable[-1]
        after = set(before)
        for bit, _ in row_options:
            after.update([used | bit for used in before if not used & bit])
        reachable.append(after)
    best: list[dict[int, float]] = [{} for _ in range(n_left)]
    best.append(dict.fromkeys(reachable[n_left], 0.0))
    for index in range(n_left - 1, -1, -1):
        below = best[index + 1]
        table = best[index]
        row_options = options[index]
        for used in reachable[index]:
            found = below[used]  # leave this node unmatched
            for bit, w in row_options:
                if not used & bit:
                    value = w + below[used | bit]
                    if value > found:
                        found = value
            table[used] = found

    matching: list[int | None] = []
    used = 0
    for index in range(n_left):
        target = best[index][used]
        below = best[index + 1]
        chosen: int | None = None
        for bit, w in options[index]:
            if not used & bit and w + below[used | bit] == target:
                chosen = bit.bit_length() - 1
                used |= bit
                break
        matching.append(chosen)
    return matching


def _solve_greedy(weights: list[list[float]]) -> list[int | None]:
    """Deterministic greedy fallback for oversized buckets.

    Candidate pairs sorted by descending weight (ties: smaller ids
    first) and taken injectively — not optimal, but stable, linear in
    the number of admissible pairs, and good enough that the verify
    step downstream still gates every emitted suggestion.
    """
    edges = sorted(
        (-row[j], i, j)
        for i, row in enumerate(weights)
        for j in range(len(row))
        if row[j] >= MIN_PAIR_WEIGHT
    )
    matching: list[int | None] = [None] * len(weights)
    used_rights: set[int] = set()
    for _, i, j in edges:
        if matching[i] is None and j not in used_rights:
            matching[i] = j
            used_rights.add(j)
    return matching
