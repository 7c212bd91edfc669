"""
Solution-graph construction: depth-first unfolding of system states with
folding back to an equal-labelled ancestor, under node/depth budgets.

A node whose label textually equals the label of one of its ancestors is
closed by a back edge to that ancestor instead of being expanded; its
subtree would repeat the ancestor's.  Equal labels on *different* paths
are deliberately not merged, so back edges always point to proper
ancestors.  They do share one expansion per build: the narrowings
and child labels of a label are computed the first time a node with that
label is expanded, and every later node with an equal label gets its own
new children from that table.  One table keyed by a label's equation tuple
holds, per label, the node of the current path expanded with it, the one
object equal labels share, and that expansion; narrowings are cached per
first-term pair.  Equal equations in different labels share the equation
memo of ``rewrite``, made and dropped in ``build``.  A graph is ``labels``
(node id -> label), an expansion log of two ``array('l')``, ``expanded``
(the expanded nodes in expansion order) and ``firsts`` (the first child of
each; its children are consecutive ids in narrowing order), ``folds`` (a
folded node's target) and ``witness``: the program of the tree path to the
T-leaf of least ``(depth, id)``, recorded by the build when it makes that
leaf.  ``nodes``, the ``Node(id, label, depth)`` list, is derived from the
log on each read.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, count, islice
from typing import Dict, List, NamedTuple, Optional, Tuple

from .core import ACCEPTED, Equation, Narrowing, Program, SystemState
from .narrow import compatible_narrowings, step
from .parse import serialize_equation
from .rewrite import Scheme, simplify


@dataclass(frozen=True)
class Budget:
    """The limits of one build; ``timeout_ms`` (wall time, ``None`` for no
    limit) is checked before every expansion.  A dead end meets no limit."""

    max_nodes: int = 1_000_000
    max_depth: int = 10_000
    timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.max_nodes >= 1 and self.max_depth >= 1):  # NaN too
            raise ValueError("budget limits must be positive")
        if self.timeout_ms is not None and not self.timeout_ms >= 0:  # NaN too
            raise ValueError("timeout must not be negative or NaN")


class Node(NamedTuple):
    id: int
    label: SystemState
    depth: int


@dataclass
class SolutionGraph:
    labels: List[SystemState]  # node id -> label
    system: Tuple[Equation, ...]
    expanded: array = field(default_factory=partial(array, "l"))  # expanded nodes in expansion order
    firsts: array = field(default_factory=partial(array, "l"))  # their first children
    folds: Dict[int, int] = field(default_factory=dict)  # folded node -> target
    witness: Optional[Program] = None  # the tree path to the least (depth, id) T-leaf
    root = 0

    @cached_property
    def _first_child(self) -> Dict[int, int]:  # made once: callers call out_edges per node
        return dict(zip(self.expanded, self.firsts))

    def out_edges(self, nid: int) -> List[Tuple[Optional[Narrowing], int]]:
        """A node's tree edges ``(narrowing, child)`` in narrowing order, or a
        folded node's one back edge ``(None, target)``; none for other nodes."""
        if nid in self.folds:
            return [(None, self.folds[nid])]
        first = self._first_child.get(nid)
        if first is None:
            return []
        return list(zip(compatible_narrowings(self.labels[nid]), count(first)))

    @property
    def tree_edges(self) -> List[Tuple[int, Narrowing, int]]:
        """(parent, narrowing, child) triples in expansion order."""
        return [(src, n, dst) for src, first in zip(self.expanded, self.firsts)
                for n, dst in zip(compatible_narrowings(self.labels[src]), count(first))]

    @property
    def back_edges(self) -> List[Tuple[int, int]]:
        """(folded node, target) pairs in fold order."""
        return list(self.folds.items())

    def _depths(self) -> List[int]:
        """Node id -> depth.  First children grow in expansion order and tile
        ids ``1..N-1``: a node's children run up to the next expansion's first."""
        depths = [0]
        ends = chain(islice(self.firsts, 1, None), [len(self.labels)])
        for nid, end in zip(self.expanded, ends):
            depths += [depths[nid] + 1] * (end - len(depths))
        return depths

    @property
    def nodes(self) -> List[Node]:
        """The nodes, made anew on each read."""
        new_node = partial(tuple.__new__, Node)  # a Node, without Node's Python-level __new__
        return list(map(new_node, zip(count(), self.labels, self._depths())))

    def t_leaves(self) -> List[int]:
        """The ids of the accepting leaves."""
        return [nid for nid, label in enumerate(self.labels) if label.is_accepted]

    def max_depth(self) -> int:
        return max(self._depths())


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
) -> BuildOutcome:
    """Build the (partial) solution graph of an equation system.

    The root is the simplified input; expansion is depth first, children
    in narrowing order, so node numbering and the serialized graph are
    deterministic.  Exceeding the budget, its timeout included, stops
    expansion and is reported in the outcome, not raised.  With
    ``early_stop`` the build halts at the first accepting leaf.  ``scheme``
    is a ``Scheme`` member or its value, such as ``"count"``.
    """
    if not system:
        raise ValueError("empty system")
    if scheme.__class__ is not Scheme:  # a member's Scheme() call costs a few per cent of a small build
        scheme = Scheme(scheme)
    deadline = None if budget.timeout_ms is None else time.monotonic() + budget.timeout_ms / 1000.0

    root_label = simplify(scheme, SystemState.of(system))
    labels = [root_label]
    graph = SolutionGraph(labels, tuple(system), witness=() if root_label is ACCEPTED else None)
    if not root_label.is_eqs:  # accepted or contradictory: nothing to expand
        return BuildOutcome(graph)
    reason: Optional[str] = None
    halted = False

    # By equation list: [the node of the current path expanded with it or -1,
    # its first label (equal labels share that object, so a graph holds each
    # label once), its narrowings, its child labels (None until expanded), the
    # offset of its first accepting child (-1 for none), that node's first child].
    table: Dict[Tuple[Equation, ...], list] = {root_label.equations: [-1, root_label, None, None, -1, 0]}
    memo: dict = {}  # (equation, variable, target) -> pieces; see the rewrite module
    path: List[list] = []  # the entries of the expanded nodes on the current path
    best = budget.max_depth  # the depth of the expansion that made the witness's T-leaf, if any
    folds = graph.folds
    expanded, firsts = [], []  # the expansion log, in lists until the build ends

    stack = [0]  # node ids to enter, and -1 to leave the last node of the path
    while stack:
        nid = stack.pop()
        if nid < 0:
            path.pop()[0] = -1
            continue
        label = labels[nid]
        eqs = label.equations
        if not eqs:  # a leaf: leaf states hold no equations (__new__); _unfold accepts []
            continue
        entry = table[eqs]
        if entry[0] >= 0:
            folds[nid] = entry[0]
            continue
        if halted:
            reason = reason or "early_stop"
            continue
        if deadline is not None and time.monotonic() > deadline:
            halted = True
            reason = reason or "timeout"
            continue
        narrowings = entry[2]
        if narrowings is None:
            narrowings = entry[2] = compatible_narrowings(label)
        if not narrowings:  # a dead end: there is nothing to expand, at any depth
            continue
        depth = len(path)  # a node is entered with exactly its expanded ancestors on the path
        if depth >= budget.max_depth:
            reason = reason or "max_depth"
            continue
        # The budget is checked before anything is unfolded.
        first = len(labels)
        end = first + len(narrowings)
        if end > budget.max_nodes:
            halted = True
            reason = reason or "max_nodes"
            continue
        made = entry[3]
        if made is None:
            made = entry[3] = []
            for n in narrowings:
                c = step(label, n, scheme, memo)
                known = c.equations and table.get(c.equations)  # () for a leaf
                if known is None:
                    table[c.equations] = [-1, c, None, None, -1, 0]
                made.append(known[1] if known else c)
            entry[4] = next((i for i, c in enumerate(made) if c is ACCEPTED), -1)
        expanded.append(nid)
        firsts.append(first)
        labels += made
        entry[0], entry[5] = nid, first
        path.append(entry)
        if entry[4] >= 0 and depth < best:
            # T-leaves are made in id order: the first at a depth has its least id.
            best, halted = depth, early_stop
            steps = [parent[2][child[0] - parent[5]] for parent, child in zip(path, path[1:])]
            graph.witness = (*steps, narrowings[entry[4]])
        stack.append(-1)
        stack.extend(range(end - 1, first - 1, -1))

    graph.expanded, graph.firsts = array("l", expanded), array("l", firsts)
    return BuildOutcome(graph, reason)


def verdict(outcome: BuildOutcome) -> str:
    """SAT as soon as an accepting leaf exists, that is, the build recorded a
    witness (valid even when the graph is partial); UNSAT only for complete
    graphs without one."""
    if outcome.graph.witness is not None:
        return SAT
    return UNSAT if outcome.complete else UNKNOWN


def _node_dot(nid: int, label: SystemState) -> str:
    if label.is_accepted:
        return f'  n{nid} [shape=doublecircle, label="T"];'
    if label.is_contradiction:
        return f'  n{nid} [shape=diamond, label="F"];'
    text = "\\n".join(serialize_equation(e) for e in label.equations)
    if not compatible_narrowings(label):  # a dead end: an F-leaf too
        return f'  n{nid} [shape=diamond, label="F: {text}"];'
    return f'  n{nid} [shape=box, label="{text}"];'


def to_dot(graph: SolutionGraph, prune: bool = False) -> str:
    """Deterministic DOT text; back edges are dashed.

    With ``prune``, nodes from which no accepting leaf is reachable are
    dropped for readability.
    """
    tree_edges = graph.tree_edges
    back_edges = graph.back_edges
    keep = set(range(len(graph.labels)))
    if prune:
        reverse: Dict[int, List[int]] = {}
        for src in range(len(graph.labels)):
            for _, dst in graph.out_edges(src):
                reverse.setdefault(dst, []).append(src)
        keep = set(graph.t_leaves())
        frontier = list(keep)
        while frontier:
            nid = frontier.pop()
            for prev in reverse.get(nid, ()):
                if prev not in keep:
                    keep.add(prev)
                    frontier.append(prev)
    lines = ["digraph solution_graph {", "  rankdir=TB;"]
    for nid, label in enumerate(graph.labels):
        if nid in keep:
            lines.append(_node_dot(nid, label))
    for parent, narrowing, child in tree_edges:
        if parent in keep and child in keep:
            lines.append(f'  n{parent} -> n{child} [label="{narrowing}"];')
    for src, dst in back_edges:
        if src in keep and dst in keep:
            lines.append(f"  n{src} -> n{dst} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
