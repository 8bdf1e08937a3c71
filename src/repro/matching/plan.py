"""Compiled search plans for Algorithm 1.

A pattern in the knowledge base is matched against thousands of
submission EPDGs, but the backtracking search used to re-derive the same
pattern-side facts on every call (and on every search step):
``edges_touching`` scanned the full edge list per visited node, and the
connectivity-first node ordering was recomputed from scratch at every
backtracking level.  :func:`compile_plan` extracts everything that
depends only on the pattern **once** and caches it on the pattern
object:

* **adjacency lists** — for each pattern node, the edges touching it as
  ``(edge_type, other_node, is_outgoing)`` triples, ready for the
  consistency check of Algorithm 1 line 13;
* **degree requirements** — how many out/in edges of each type the
  pattern demands of a node's image; since ι is injective, a graph node
  with a smaller degree profile can never complete an embedding, so the
  search space Φ drops it before the search starts;
* **variable sets** per node, so the matcher never unions
  ``expr``/``approx`` variables in the loop;
* the node's **expression templates** (``expr`` and, if present,
  ``approx``), whose γ-free forms drop candidates by content.

Two quantities still depend on the graph and are computed per match
call (they are :math:`O(|U|^2)` on patterns with at most a handful of
nodes):

* the **static node order** — the connectivity-first heuristic only
  looks at *which* nodes are already matched, never at how they are
  mapped, so the order the dynamic heuristic would pick is identical in
  every branch of the search and can be fixed up front (see
  :meth:`SearchPlan.static_order`);
* **arity floors** — once the order is fixed, the set of pattern
  variables bound before node ``u`` is matched is exactly the union of
  the variables of the nodes ordered before it.  Any candidate with
  fewer variables than ``u`` must newly bind cannot satisfy the
  injective binding step, so Φ drops it (see
  :meth:`SearchPlan.arity_floors`).  This reproduces a check the search
  would make anyway, which keeps the optimized matcher's output
  byte-identical to the naive one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.patterns.model import Pattern
from repro.patterns.template import ExprTemplate
from repro.pdg.graph import EdgeType


@dataclass(frozen=True)
class NodePlan:
    """Precomputed per-pattern-node facts."""

    node_id: int
    #: Edges touching this node: ``(edge_type, other_node_id, is_outgoing)``.
    adjacency: tuple[tuple[EdgeType, int, bool], ...]
    #: Required minimum degree profile of any image:
    #: ``(out_ctrl, out_data, in_ctrl, in_data)``.
    degree_requirement: tuple[int, int, int, int]
    #: All variables of the node (exact ∪ approximate expression).
    variables: frozenset[str]
    #: ``expr`` and, if the node has one, ``approx``: an image's content
    #: must match the γ-free form of at least one of them.
    templates: tuple[ExprTemplate, ...]


@dataclass(frozen=True)
class SearchPlan:
    """Everything Algorithm 1 needs that depends only on the pattern."""

    node_plans: tuple[NodePlan, ...]

    def static_order(self, space_sizes: dict[int, int]) -> tuple[int, ...]:
        """The node order the connectivity-first heuristic would follow.

        Replays the dynamic selection — prefer nodes adjacent to an
        already-matched node, break ties by smaller search space, then
        by node id — which depends only on the *set* of matched nodes,
        not on the candidate mappings, and therefore takes the same
        sequence of decisions in every search branch.  ``space_sizes``
        must be the *unpruned* (type-only) Φ sizes so the order is
        identical to the one the unoptimized matcher used.
        """
        remaining = {plan.node_id for plan in self.node_plans}
        chosen: set[int] = set()
        order: list[int] = []
        while remaining:
            def key(node_id: int) -> tuple[int, int, int]:
                adjacent = any(
                    other in chosen
                    for _, other, _ in self.node_plans[node_id].adjacency
                )
                return (0 if adjacent else 1, space_sizes[node_id], node_id)
            best = min(remaining, key=key)
            remaining.discard(best)
            chosen.add(best)
            order.append(best)
        return tuple(order)

    def arity_floors(self, order: tuple[int, ...]) -> dict[int, int]:
        """Minimum ``|v.variables|`` an image of each node must have.

        When node ``u`` is matched, every variable of every earlier node
        in ``order`` is already bound, so ``u`` must newly bind exactly
        ``|vars(u) - vars(earlier)|`` variables — injectively, into the
        candidate's own variables.  A candidate with fewer variables
        fails the binding step in *every* branch, so dropping it from Φ
        is exact, not heuristic.
        """
        floors: dict[int, int] = {}
        bound: set[str] = set()
        for node_id in order:
            plan = self.node_plans[node_id]
            floors[node_id] = len(plan.variables - bound)
            bound |= plan.variables
        return floors


def compile_plan(pattern: Pattern) -> SearchPlan:
    """Compile (and cache on the pattern) the search plan.

    Patterns are authored once in the knowledge base and never mutated
    after construction, so the plan is cached on the instance itself —
    the registry's ``lru_cache`` keeps assignments (and thus patterns)
    alive for the process lifetime, making compilation a one-time cost.
    """
    cached = pattern.__dict__.get("_search_plan")
    if cached is not None:
        return cached
    adjacency: list[list[tuple[EdgeType, int, bool]]] = [
        [] for _ in pattern.nodes
    ]
    requirements = [[0, 0, 0, 0] for _ in pattern.nodes]
    for edge in pattern.edges:
        adjacency[edge.source].append((edge.type, edge.target, True))
        adjacency[edge.target].append((edge.type, edge.source, False))
        out_slot = 0 if edge.type is EdgeType.CTRL else 1
        in_slot = 2 if edge.type is EdgeType.CTRL else 3
        requirements[edge.source][out_slot] += 1
        requirements[edge.target][in_slot] += 1
    plan = SearchPlan(
        node_plans=tuple(
            NodePlan(
                node_id=node.node_id,
                adjacency=tuple(adjacency[node.node_id]),
                degree_requirement=tuple(requirements[node.node_id]),
                variables=node.variables,
                templates=(node.expr,) if node.approx is None
                else (node.expr, node.approx),
            )
            for node in pattern.nodes
        )
    )
    pattern.__dict__["_search_plan"] = plan
    return plan
