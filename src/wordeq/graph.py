"""
Solution-graph construction: depth-first unfolding of system states with
folding back to an equal-labelled ancestor, under node/depth budgets.

A node whose label textually equals the label of one of its ancestors is
closed by a back edge to that ancestor instead of being expanded; its
subtree would repeat the ancestor's.  Equal labels on *different* paths
are deliberately not merged (the default), so back edges always point to
proper ancestors.  They do share one expansion per build: the narrowings
and child labels of a label are computed the first time a node with that
label is expanded, and every later node with an equal label gets its own
new children from that table.  A global memoizing mode is available behind
a flag; it changes the graph shape but not the verdict or the accepted
programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from .core import Equation, Narrowing, SystemState
from .narrow import compatible_narrowings, step
from .parse import serialize_equation
from .rewrite import Scheme, simplify

INTERNAL = "internal"
TLEAF = "tleaf"
FLEAF = "fleaf"

FOLD_ANCESTOR = "ancestor"
FOLD_MEMO = "memo"


@dataclass(frozen=True)
class Budget:
    """The limits of one build; ``timeout_ms`` (wall time, ``None`` for no
    limit) is checked before every expansion."""

    max_nodes: int = 1_000_000
    max_depth: int = 10_000
    timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or self.max_depth < 1:
            raise ValueError("budget limits must be positive")
        if self.timeout_ms is not None and not self.timeout_ms >= 0:  # NaN too
            raise ValueError("timeout must not be negative or NaN")


class Node(NamedTuple):
    id: int
    label: SystemState
    depth: int

    @property
    def kind(self) -> str:
        """TLEAF for an accepted label; FLEAF for a contradiction or a label
        no narrowing is compatible with; INTERNAL otherwise."""
        if self.label.is_accepted:
            return TLEAF
        if self.label.is_contradiction or not compatible_narrowings(self.label):
            return FLEAF
        return INTERNAL


@dataclass
class SolutionGraph:
    root: int
    nodes: List[Node]
    system: Tuple[Equation, ...]
    scheme: Scheme
    children: Dict[int, List[Tuple[Narrowing, int]]] = field(default_factory=dict)
    fold_target: Dict[int, int] = field(default_factory=dict)

    @property
    def tree_edges(self) -> List[Tuple[int, Narrowing, int]]:
        """(parent, narrowing, child) triples in expansion order."""
        return [(parent, n, child) for parent, out in self.children.items() for n, child in out]

    @property
    def back_edges(self) -> List[Tuple[int, int]]:
        """(folded node, target) pairs in fold order."""
        return list(self.fold_target.items())

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def edges_from(self, node_id: int) -> List[Tuple[Optional[Narrowing], int]]:
        """Outgoing walkable edges: tree edges (with narrowing), then the
        back edge (without) if the node is folded."""
        out: List[Tuple[Optional[Narrowing], int]] = list(self.children.get(node_id, ()))
        if node_id in self.fold_target:
            out.append((None, self.fold_target[node_id]))
        return out

    def t_leaves(self) -> List[Node]:
        return [n for n in self.nodes if n.label.is_accepted]

    def max_depth(self) -> int:
        return max(n.depth for n in self.nodes)


@dataclass
class BuildOutcome:
    graph: SolutionGraph
    reason: Optional[str] = None  # why expansion stopped, when incomplete

    @property
    def complete(self) -> bool:
        return self.reason is None


SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


def build(
    system: List[Equation],
    scheme: Scheme,
    budget: Budget = Budget(),
    *,
    early_stop: bool = False,
    fold: str = FOLD_ANCESTOR,
) -> BuildOutcome:
    """Build the (partial) solution graph of an equation system.

    The root is the simplified input; expansion is depth first, children
    in narrowing order, so node numbering and the serialized graph are
    deterministic.  Exceeding the budget, its timeout included, stops
    expansion and is reported in the outcome, not raised.  With
    ``early_stop`` the build halts at the first accepting leaf.
    """
    if not system:
        raise ValueError("empty system")
    if fold not in (FOLD_ANCESTOR, FOLD_MEMO):
        raise ValueError(f"unknown fold mode {fold!r}")
    deadline = None if budget.timeout_ms is None else time.monotonic() + budget.timeout_ms / 1000.0

    root_label = simplify(scheme, SystemState.of(system))
    nodes = [Node(0, root_label, 0)]
    graph = SolutionGraph(0, nodes, tuple(system), scheme)
    reason: Optional[str] = None
    halted = False

    ENTER, EXIT = 0, 1
    stack: List[Tuple[int, object]] = [(ENTER, 0)]
    # Labels a node may fold to: those on its path (ancestor mode), or
    # those of every node visited before it (memo mode).
    fold_to: Dict[SystemState, int] = {}
    # The narrowings and child labels of every label expanded so far; a
    # node whose label is already here reuses them instead of unfolding.
    expansions: Dict[SystemState, List[Tuple[Narrowing, SystemState]]] = {}
    ancestor = fold == FOLD_ANCESTOR

    while stack:
        op, arg = stack.pop()
        if op == EXIT:
            del fold_to[arg]
            continue
        node = nodes[arg]
        label = node.label
        if not label.is_eqs:
            continue
        target = fold_to.get(label)
        if target is not None:
            graph.fold_target[node.id] = target
            continue
        if not ancestor:
            fold_to[label] = node.id
        if halted:
            reason = reason or "early_stop"
            continue
        if deadline is not None and time.monotonic() > deadline:
            halted = True
            reason = reason or "timeout"
            continue
        if node.depth >= budget.max_depth:
            reason = reason or "max_depth"
            continue
        # The budget is checked before anything is unfolded; a dead end adds
        # no nodes, so it never exceeds it.
        expansion = expansions.get(label)
        narrowings = compatible_narrowings(label) if expansion is None else expansion
        if len(nodes) + len(narrowings) > budget.max_nodes:
            halted = True
            reason = reason or "max_nodes"
            continue
        if expansion is None:
            expansion = expansions[label] = [(n, step(label, n, scheme)) for n in narrowings]
        if not expansion:
            continue
        children = graph.children[node.id] = []
        for n, child_label in expansion:
            children.append((n, len(nodes)))
            nodes.append(Node(len(nodes), child_label, node.depth + 1))
            if early_stop and child_label.is_accepted:
                halted = True
        if ancestor:
            fold_to[label] = node.id
            stack.append((EXIT, label))
        for _, child_id in reversed(children):
            stack.append((ENTER, child_id))

    return BuildOutcome(graph, reason)


def verdict(outcome: BuildOutcome) -> str:
    """SAT as soon as an accepting leaf exists (valid even when the graph
    is partial); UNSAT only for complete graphs without one."""
    if outcome.graph.t_leaves():
        return SAT
    return UNSAT if outcome.complete else UNKNOWN


def _node_dot(node: Node) -> str:
    if node.label.is_accepted:
        return f'  n{node.id} [shape=doublecircle, label="T"];'
    if node.label.is_contradiction:
        return f'  n{node.id} [shape=diamond, label="F"];'
    text = "\\n".join(serialize_equation(e) for e in node.label.equations)
    if node.kind == FLEAF:
        return f'  n{node.id} [shape=diamond, label="F: {text}"];'
    return f'  n{node.id} [shape=box, label="{text}"];'


def to_dot(graph: SolutionGraph, prune: bool = False) -> str:
    """Deterministic DOT text; back edges are dashed.

    With ``prune``, nodes from which no accepting leaf is reachable are
    dropped for readability.
    """
    tree_edges = graph.tree_edges
    back_edges = graph.back_edges
    keep = set(range(len(graph.nodes)))
    if prune:
        reverse: Dict[int, List[int]] = {}
        for parent, _, child in tree_edges:
            reverse.setdefault(child, []).append(parent)
        for src, dst in back_edges:
            reverse.setdefault(dst, []).append(src)
        keep = {n.id for n in graph.t_leaves()}
        frontier = list(keep)
        while frontier:
            nid = frontier.pop()
            for prev in reverse.get(nid, ()):
                if prev not in keep:
                    keep.add(prev)
                    frontier.append(prev)
    lines = ["digraph solution_graph {", "  rankdir=TB;"]
    for node in graph.nodes:
        if node.id in keep:
            lines.append(_node_dot(node))
    for parent, narrowing, child in tree_edges:
        if parent in keep and child in keep:
            lines.append(f'  n{parent} -> n{child} [label="{narrowing}"];')
    for src, dst in back_edges:
        if src in keep and dst in keep:
            lines.append(f"  n{src} -> n{dst} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
