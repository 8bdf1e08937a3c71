"""Graph model for extended program dependence graphs (Defs. 1-3).

The :class:`Epdg` maintains incremental indexes alongside the raw node
and edge stores so the matcher's hot queries never scan the whole graph:

* a **type bucket** per :class:`NodeType` (the search space Φ of
  Algorithm 1 is exactly a type bucket);
* a **content index** mapping canonical content strings to nodes
  (:meth:`Epdg.find_by_content` used to scan every node);
* **degree profiles** counting in/out edges per :class:`EdgeType` for
  every node, which the compiled search plans use to prune candidates
  that cannot possibly carry a pattern node's edges;
* an **edge-bits map** from ``(source, target)`` to the bits of the edge
  types between them, so :meth:`Epdg.has_edge` — called at every search
  step — neither builds nor hashes a :class:`GraphEdge`.

``nodes``/``edges`` return *cached immutable views* — the backtracking
matcher reads them inside its inner loop, and the previous
copy-per-access behaviour dominated small-pattern match time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property


class NodeType(enum.Enum):
    """Graph node types from Definition 1 (plus ``Untyped`` for patterns)."""

    ASSIGN = "Assign"
    BREAK = "Break"
    CALL = "Call"
    COND = "Cond"
    DECL = "Decl"
    RETURN = "Return"
    UNTYPED = "Untyped"

    def __str__(self) -> str:
        return self.value


class EdgeType(enum.Enum):
    """Graph edge types from Definition 2."""

    CTRL = "Ctrl"
    DATA = "Data"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class GraphNode:
    """A node ``v = (t_v, c)``: a typed Java expression in the submission.

    ``defines``/``uses`` cache the variable sets of the expression so the
    matcher and constraint checker never re-parse node content.
    """

    node_id: int
    type: NodeType
    content: str
    defines: frozenset[str] = frozenset()
    uses: frozenset[str] = frozenset()

    @cached_property
    def variables(self) -> frozenset[str]:
        """All variables mentioned by the node (definitions and uses).

        Cached: the matcher reads this inside its candidate-filter and
        γ-extension hot loops, and rebuilding the union froze a new set on
        every access.  ``cached_property`` stores the result in the
        instance ``__dict__``, which works on a frozen dataclass because it
        bypasses the frozen ``__setattr__``.
        """
        if not self.uses:
            return self.defines
        if not self.defines:
            return self.uses
        return self.defines | self.uses

    @property
    def name(self) -> str:
        """Display name, matching the paper's ``v0, v1, ...`` convention."""
        return f"v{self.node_id}"

    def __str__(self) -> str:
        return f"{self.name}[{self.type}] {self.content}"


@dataclass(frozen=True)
class GraphEdge:
    """An edge ``e = (v_s, v_t, t_e)`` between two graph nodes."""

    source: int
    target: int
    type: EdgeType

    def __str__(self) -> str:
        arrow = "->" if self.type is EdgeType.DATA else "=>"
        return f"v{self.source} {arrow} v{self.target} [{self.type}]"


#: Index positions inside a degree profile tuple.
_OUT_CTRL, _OUT_DATA, _IN_CTRL, _IN_DATA = range(4)
#: Bit of each edge type in the edge-bits map.
_CTRL_BIT, _DATA_BIT = 1, 2


class Epdg:
    """An extended program dependence graph ``g = (V, E)`` for one method."""

    def __init__(self, method_name: str):
        self.method_name = method_name
        self._nodes: list[GraphNode] = []
        self._out: dict[int, set[GraphEdge]] = {}
        self._in: dict[int, set[GraphEdge]] = {}
        # incremental indexes (see module docstring)
        self._by_type: dict[NodeType, list[GraphNode]] = {}
        self._by_content: dict[str, list[GraphNode]] = {}
        self._degrees: list[list[int]] = []  # [out_ctrl, out_data, in_ctrl, in_data]
        self._edge_bits: dict[tuple[int, int], int] = {}
        # cached immutable views, invalidated by mutation
        self._nodes_view: tuple[GraphNode, ...] | None = None
        self._edges_view: frozenset[GraphEdge] | None = None

    # ------------------------------------------------------------------
    # construction

    def add_node(self, node: GraphNode) -> GraphNode:
        if node.node_id != len(self._nodes):
            raise ValueError(
                f"node ids must be dense: expected {len(self._nodes)}, "
                f"got {node.node_id}"
            )
        self._nodes.append(node)
        self._out.setdefault(node.node_id, set())
        self._in.setdefault(node.node_id, set())
        self._by_type.setdefault(node.type, []).append(node)
        self._by_content.setdefault(node.content, []).append(node)
        self._degrees.append([0, 0, 0, 0])
        self._nodes_view = None
        return node

    def add_edge(self, source: int, target: int, edge_type: EdgeType) -> None:
        edge = GraphEdge(source, target, edge_type)
        bits = self._edge_bits.get((source, target), 0)
        bit = _CTRL_BIT if edge_type is EdgeType.CTRL else _DATA_BIT
        if bits & bit:
            return
        if source >= len(self._nodes) or target >= len(self._nodes):
            raise ValueError(f"edge endpoints out of range: {edge}")
        self._out[source].add(edge)
        self._in[target].add(edge)
        self._edge_bits[source, target] = bits | bit
        out_slot = _OUT_CTRL if edge_type is EdgeType.CTRL else _OUT_DATA
        in_slot = _IN_CTRL if edge_type is EdgeType.CTRL else _IN_DATA
        self._degrees[source][out_slot] += 1
        self._degrees[target][in_slot] += 1
        self._edges_view = None

    # ------------------------------------------------------------------
    # queries

    @property
    def nodes(self) -> tuple[GraphNode, ...]:
        """All nodes in id order, as a cached immutable view."""
        if self._nodes_view is None:
            self._nodes_view = tuple(self._nodes)
        return self._nodes_view

    @property
    def edges(self) -> frozenset[GraphEdge]:
        """All edges, as a cached immutable view."""
        if self._edges_view is None:
            self._edges_view = frozenset().union(*self._out.values())
        return self._edges_view

    def node(self, node_id: int) -> GraphNode:
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def has_edge(self, source: int, target: int, edge_type: EdgeType) -> bool:
        bit = _CTRL_BIT if edge_type is EdgeType.CTRL else _DATA_BIT
        return self._edge_bits.get((source, target), 0) & bit != 0

    def out_edges(self, node_id: int) -> set[GraphEdge]:
        return set(self._out.get(node_id, ()))

    def in_edges(self, node_id: int) -> set[GraphEdge]:
        return set(self._in.get(node_id, ()))

    def successors(self, node_id: int, edge_type: EdgeType | None = None) -> list[int]:
        return sorted(
            e.target
            for e in self._out.get(node_id, ())
            if edge_type is None or e.type is edge_type
        )

    def predecessors(self, node_id: int, edge_type: EdgeType | None = None) -> list[int]:
        return sorted(
            e.source
            for e in self._in.get(node_id, ())
            if edge_type is None or e.type is edge_type
        )

    def nodes_of_type(self, node_type: NodeType) -> list[GraphNode]:
        """All nodes of ``node_type``, in id order (indexed lookup)."""
        return list(self._by_type.get(node_type, ()))

    def find_by_content(self, content: str) -> list[GraphNode]:
        """All nodes whose canonical content equals ``content`` exactly."""
        return list(self._by_content.get(content, ()))

    def degree_profile(self, node_id: int) -> tuple[int, int, int, int]:
        """``(out_ctrl, out_data, in_ctrl, in_data)`` edge counts of a node.

        The compiled search plans compare these against a pattern node's
        edge requirements: a graph node with fewer edges of some
        direction/type than the pattern node demands can never complete
        an (injective) embedding, so Φ drops it up front.
        """
        return tuple(self._degrees[node_id])

    def out_degree(self, node_id: int, edge_type: EdgeType | None = None) -> int:
        profile = self._degrees[node_id]
        if edge_type is None:
            return profile[_OUT_CTRL] + profile[_OUT_DATA]
        return profile[_OUT_CTRL if edge_type is EdgeType.CTRL else _OUT_DATA]

    def in_degree(self, node_id: int, edge_type: EdgeType | None = None) -> int:
        profile = self._degrees[node_id]
        if edge_type is None:
            return profile[_IN_CTRL] + profile[_IN_DATA]
        return profile[_IN_CTRL if edge_type is EdgeType.CTRL else _IN_DATA]

    def __str__(self) -> str:
        lines = [f"EPDG of {self.method_name}: {len(self._nodes)} nodes, "
                 f"{len(self.edges)} edges"]
        for node in self._nodes:
            lines.append(f"  {node}")
        for edge in sorted(self.edges, key=lambda e: (e.source, e.target, e.type.value)):
            lines.append(f"  {edge}")
        return "\n".join(lines)
