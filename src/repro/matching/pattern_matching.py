"""Algorithm 1: subgraph pattern matching with variable mappings.

The search backtracks over pattern nodes, pruning candidates with

1. the type-based search space Φ (``Untyped`` pattern nodes admit every
   graph node), served by the EPDG's type buckets instead of a scan;
2. structural consistency — every pattern edge between the new node and
   already-matched nodes must exist in the graph (we check both edge
   directions, a correctness tightening of the paper's line 13 which only
   inspects outgoing edges);
3. variable-mapping consistency — unbound pattern variables are bound to
   unbound submission variables by trying injective assignments, after
   which the node's exact expression ``r`` (mark: correct) or approximate
   expression ``r̂`` (mark: incorrect) must match the node content.

Where the paper requires ``|X| = |Y|`` before trying combinations, we try
all injective partial assignments when ``|X| ≤ |Y|``: the relaxation is
needed to accept the paper's own worked example (node ``u5`` of pattern
``p_o``), and reduces to the paper's rule when the sizes agree.

The default ``"connectivity"`` order runs off a **compiled search plan**
(:mod:`repro.matching.plan`): pattern adjacency lists and degree
requirements are extracted once per pattern, the connectivity-first node
order is fixed up front (it never depends on *how* nodes are mapped,
only on which are matched), and Φ is additionally pruned by degree
profiles, variable-arity floors and node content.  All three prunes are
exact — they only drop candidates the backtracking would reject in
every branch — and the order is fixed from the unpruned Φ sizes, so the
embeddings, including their discovery order, are identical to the
unpruned search.  ``"naive"`` keeps the paper's literal line 11 (any
unmatched node, declaration order) with no pruning, serving as the
reference for the ablation benchmark and the differential test suite.
"""

from __future__ import annotations

from itertools import permutations

from repro.instrumentation import check_deadline, count
from repro.matching.embeddings import Embedding
from repro.matching.plan import SearchPlan, compile_plan
from repro.patterns.model import Pattern, PatternNode
from repro.pdg.graph import Epdg, NodeType

#: Safety valve on the number of embeddings per (pattern, graph) pair.
#: Real patterns yield a handful; the cap only guards pathological inputs.
MAX_EMBEDDINGS = 512


class EmbeddingList(list):
    """A ``list[Embedding]`` that also records search truncation.

    ``truncated`` is ``True`` when the :data:`MAX_EMBEDDINGS` safety
    valve stopped the search, i.e. the result may be incomplete.  The
    subclass keeps the public ``match_pattern`` contract (callers treat
    the result as a plain list) while letting Algorithm 2 surface the
    truncation instead of silently dropping work.
    """

    truncated: bool = False


def match_pattern(
    pattern: Pattern, graph: Epdg, order: str = "connectivity"
) -> EmbeddingList:
    """Compute all embeddings of ``pattern`` in ``graph`` (Algorithm 1).

    ``order`` selects the node-ordering heuristic: ``"connectivity"``
    (default — compiled plan with static connectivity-first order and
    degree/arity/content pruning) or ``"naive"`` (the paper's line 11: any
    unmatched node, in declaration order, no pruning).  Both return the
    same embeddings; the ablation benchmark measures the cost
    difference.
    """
    if not pattern.nodes:
        return EmbeddingList()
    space = _search_space(pattern, graph)
    if any(not candidates for candidates in space.values()):
        return EmbeddingList()
    plan = compile_plan(pattern)
    if order == "naive":
        node_order = tuple(range(len(pattern.nodes)))
    else:
        sizes = {u_id: len(candidates) for u_id, candidates in space.items()}
        node_order = plan.static_order(sizes)
        pruned = _prune_space(plan, graph, space, node_order)
        count("match.candidates_pruned", pruned)
        if any(not candidates for candidates in space.values()):
            return EmbeddingList()
    state = _SearchState(pattern, graph, plan, space, node_order)
    state.search(0, {}, {}, {})
    count("match.nodes_visited", state.nodes_visited)
    result = EmbeddingList(state.embeddings)
    if len(result) >= MAX_EMBEDDINGS:
        result.truncated = True
        count("match.embeddings_truncated")
    return result


def _search_space(pattern: Pattern, graph: Epdg) -> dict[int, list[int]]:
    """Φ: the graph nodes each pattern node may map to, by node type.

    Served from the EPDG's type buckets — candidate lists stay in node
    id order, exactly as the previous full-graph scan produced them.
    """
    space: dict[int, list[int]] = {}
    for u in pattern.nodes:
        if u.type is NodeType.UNTYPED:
            space[u.node_id] = [v.node_id for v in graph.nodes]
        else:
            space[u.node_id] = [
                v.node_id for v in graph.nodes_of_type(u.type)
            ]
    return space


def _prune_space(
    plan: SearchPlan,
    graph: Epdg,
    space: dict[int, list[int]],
    node_order: tuple[int, ...],
) -> int:
    """Drop Φ candidates that can never complete an embedding.

    Three exact filters (they remove only candidates the backtracking
    search would reject in every branch, so results — and their order —
    are unchanged):

    * **degree**: ι is injective, so a pattern node with ``k`` outgoing
      Data edges needs an image with at least ``k`` outgoing Data edges
      (likewise for each direction × type);
    * **arity**: with the node order fixed, the variables bound before
      node ``u`` is matched are known statically, so ``u`` must bind its
      remaining variables injectively into the candidate's variables —
      impossible when the candidate has fewer variables than that;
    * **content**: the search accepts a candidate only if its content
      matches ``expr`` or ``approx`` under some γ, and every such match
      is also a match of the template's γ-free form
      (:meth:`ExprTemplate.may_match`), so a candidate matching neither
      γ-free form is rejected in every branch.

    No verdict is cached across calls: caching ``may_match`` per
    (template, content) saved only ~6% more CPU (``docs/PERFORMANCE.md``),
    and the cache would grow with student-controlled content.

    Returns the number of candidates removed.
    """
    floors = plan.arity_floors(node_order)
    pruned = 0
    for node_plan in plan.node_plans:
        requirement = node_plan.degree_requirement
        floor = floors[node_plan.node_id]
        templates = node_plan.templates
        candidates = space[node_plan.node_id]
        kept = []
        for v_id in candidates:
            profile = graph.degree_profile(v_id)
            v = graph.node(v_id)
            if (
                profile[0] >= requirement[0]
                and profile[1] >= requirement[1]
                and profile[2] >= requirement[2]
                and profile[3] >= requirement[3]
                and len(v.variables) >= floor
                and any(t.may_match(v.content) for t in templates)
            ):
                kept.append(v_id)
        pruned += len(candidates) - len(kept)
        space[node_plan.node_id] = kept
    return pruned


class _SearchState:
    def __init__(
        self,
        pattern: Pattern,
        graph: Epdg,
        plan: SearchPlan,
        space: dict[int, list[int]],
        node_order: tuple[int, ...],
    ):
        self._pattern = pattern
        self._graph = graph
        self._plan = plan
        self._space = space
        self._order = node_order
        self.embeddings: list[Embedding] = []
        self._seen: set[tuple] = set()
        self.nodes_visited = 0  # instrumentation for the ablation bench

    # -- consistency checks ----------------------------------------------

    def _edges_consistent(self, u_id: int, v_id: int, iota: dict[int, int]) -> bool:
        has_edge = self._graph.has_edge
        for edge_type, other, outgoing in self._plan.node_plans[u_id].adjacency:
            mapped = iota.get(other)
            if mapped is None:
                continue
            if outgoing:
                if not has_edge(v_id, mapped, edge_type):
                    return False
            elif not has_edge(mapped, v_id, edge_type):
                return False
        return True

    # -- main search ------------------------------------------------------

    def search(
        self,
        depth: int,
        iota: dict[int, int],
        gamma: dict[str, str],
        marks: dict[int, bool],
    ) -> None:
        self.nodes_visited += 1
        # the search dominates grading time, so it is the one loop that
        # must observe the ambient deadline; every 128 expansions keeps
        # the check off the hot path while bounding overshoot
        if self.nodes_visited & 127 == 0:
            check_deadline()
        if len(self.embeddings) >= MAX_EMBEDDINGS:
            return
        if depth == len(self._order):
            embedding = Embedding.build(iota, gamma, marks)
            # distinct (ι, γ) pairs are all kept: constraints may need a
            # specific variable mapping even when the node mapping repeats
            key = (embedding.iota, embedding.gamma)
            if key not in self._seen:
                self._seen.add(key)
                self.embeddings.append(embedding)
            return
        u_id = self._order[depth]
        u = self._pattern.nodes[u_id]
        used_graph_nodes = set(iota.values())
        for v_id in self._space[u_id]:
            if v_id in used_graph_nodes:
                continue
            if not self._edges_consistent(u_id, v_id, iota):
                continue
            v = self._graph.node(v_id)
            for extension, correct in self._variable_matches(u, v, gamma):
                iota[u_id] = v_id
                marks[u_id] = correct
                gamma.update(extension)
                self.search(depth + 1, iota, gamma, marks)
                for name in extension:
                    del gamma[name]
                del iota[u_id]
                del marks[u_id]

    # -- variable combinations --------------------------------------------

    def _variable_matches(self, u: PatternNode, v, gamma: dict[str, str]):
        """Yield ``(new_bindings, correct)`` for every viable combination.

        ``new_bindings`` extends γ injectively from the node's unbound
        pattern variables into the graph node's unbound variables.
        """
        unbound_pattern = sorted(
            self._plan.node_plans[u.node_id].variables - gamma.keys()
        )
        bound_submission = set(gamma.values())
        unbound_submission = sorted(v.variables - bound_submission)
        if len(unbound_pattern) > len(unbound_submission):
            return
        tried = 0
        for arrangement in permutations(unbound_submission, len(unbound_pattern)):
            # arrangements that never match yield nothing back to
            # ``search``, so this loop needs its own deadline check
            tried += 1
            if tried & 511 == 0:
                check_deadline()
            extension = dict(zip(unbound_pattern, arrangement))
            trial = {**gamma, **extension}
            if u.expr.matches(v.content, trial):
                yield extension, True
            elif u.approx is not None and u.approx.matches(v.content, trial):
                yield extension, False
