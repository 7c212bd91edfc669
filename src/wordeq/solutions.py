"""
Witness programs and bounded solution sets extracted from a solution
graph.

Every walk from the root to an accepting leaf (back edges may be taken;
they contribute no narrowing) spells a program whose composition is a
solution of the system.  A variable whose composed value still contains
variables at the leaf is unconstrained there: the accepting state has
textually equal sides, so any simultaneous ground instantiation of the
remaining variables solves the system.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .core import (
    Narrowing,
    Program,
    Word,
    apply_to_word,
    compose_value,
    ground_words,
    letter_count,
    variables_of,
)
from .graph import TLEAF, SolutionGraph


@dataclass(frozen=True)
class Solution:
    """An assignment of words to variables, sorted by variable name.

    ``residual_free`` lists the variables whose value is not ground; any
    ground word may be substituted for them (simultaneously in all
    values).
    """

    items: Tuple[Tuple[str, Word], ...]
    residual_free: FrozenSet[str] = frozenset()

    @staticmethod
    def of(assignment: Dict[str, Word], residual_free: Iterable[str] = ()) -> "Solution":
        return Solution(tuple(sorted(assignment.items())), frozenset(residual_free))

    def as_dict(self) -> Dict[str, Word]:
        return dict(self.items)

    @property
    def is_ground(self) -> bool:
        return not self.residual_free

    def __str__(self) -> str:
        return ", ".join(f"{var}={value}" for var, value in self.items)


def extract_program(graph: SolutionGraph, path: Sequence[int]) -> Program:
    """Program spelled by a root-to-T-leaf walk given as node ids.

    Consecutive nodes must be joined by a tree edge (whose narrowing is
    collected) or by the source node's back edge (which contributes
    nothing).
    """
    if not path or path[0] != graph.root:
        raise ValueError("walk must start at the root")
    steps: List[Narrowing] = []
    for src, dst in zip(path, path[1:]):
        for narrowing, child in graph.edges_from(src):
            if child == dst:
                if narrowing is not None:
                    steps.append(narrowing)
                break
        else:
            raise ValueError(f"no edge from node {src} to node {dst}")
    if graph.node(path[-1]).kind != TLEAF:
        raise ValueError("walk does not end at an accepting leaf")
    return tuple(steps)


def path_solution(p: Program, variables: Iterable[str]) -> Solution:
    """Composed values of the given variables under the program.

    Variables whose composed value still contains variables are reported
    as residual-free, their partially composed value included.
    """
    assignment = {x: compose_value(p, x) for x in variables}
    residual = [x for x, value in assignment.items() if variables_of(value)]
    return Solution.of(assignment, residual)


def min_witness(graph: SolutionGraph) -> Optional[Program]:
    """Program of a shortest (in edges) accepting walk, if any."""
    parent: Dict[int, Tuple[int, Optional[Narrowing]]] = {}
    seen = {graph.root}
    queue = deque([graph.root])
    goal: Optional[int] = None
    while queue:
        nid = queue.popleft()
        if graph.node(nid).kind == TLEAF:
            goal = nid
            break
        for narrowing, child in graph.edges_from(nid):
            if child not in seen:
                seen.add(child)
                parent[child] = (nid, narrowing)
                queue.append(child)
    if goal is None:
        return None
    steps: List[Narrowing] = []
    nid = goal
    while nid != graph.root:
        nid, narrowing = parent[nid]
        if narrowing is not None:
            steps.append(narrowing)
    return tuple(reversed(steps))


def enumerate_solutions(
    graph: SolutionGraph,
    max_value_len: int,
    max_path_len: int,
    alphabet: Optional[Sequence[str]] = None,
) -> Set[Solution]:
    """Ground solutions reachable by accepting walks of bounded length.

    Walks of up to ``max_path_len`` edges are enumerated (back edges
    unrolled); residual variables are instantiated with every ground word
    within the value bound; solutions exceeding the bound are dropped.

    Walk states that repeat an already-seen (node, composed values) pair
    are pruned: their futures coincide, and breadth-first order means the
    first visit had at least as much path budget left.  Branches whose
    composed letters already exceed the value bound are pruned too, since
    instantiation never removes letters.  Negative bounds are rejected
    with ``ValueError``.
    """
    if max_value_len < 0 or max_path_len < 0:
        raise ValueError("enumeration bounds must not be negative")
    variables = sorted(set().union(*(e.variables() for e in graph.system)) if graph.system else ())
    if alphabet is None:
        alphabet = sorted(set().union(*(e.letters() for e in graph.system)) if graph.system else ())
    alphabet = sorted(alphabet)

    solutions: Set[Solution] = set()
    start = (graph.root, tuple(variables))
    seen = {start}
    frontier = [start]
    steps = 0
    while frontier:
        for nid, values in frontier:
            if graph.node(nid).kind == TLEAF:
                _instantiate(variables, values, alphabet, max_value_len, solutions)
        if steps == max_path_len:
            break
        steps += 1
        next_frontier = []
        for nid, values in frontier:
            for narrowing, child in graph.edges_from(nid):
                if narrowing is None:
                    succ = (child, values)
                else:
                    new_values = tuple(apply_to_word(narrowing, v) for v in values)
                    if any(letter_count(v) > max_value_len for v in new_values):
                        continue
                    succ = (child, new_values)
                if succ not in seen:
                    seen.add(succ)
                    next_frontier.append(succ)
        frontier = next_frontier
    return solutions


def _instantiate(
    variables: Sequence[str],
    values: Sequence[Word],
    alphabet: Sequence[str],
    max_value_len: int,
    out: Set[Solution],
) -> None:
    residual = sorted(set(c for v in values for c in v if c.islower()))
    if not residual:
        if all(len(v) <= max_value_len for v in values):
            out.add(Solution.of(dict(zip(variables, values))))
        return
    choices = ground_words(alphabet, max_value_len)
    stack: List[Tuple[int, Tuple[Word, ...]]] = [(0, tuple(values))]
    while stack:
        index, vals = stack.pop()
        if index == len(residual):
            if all(len(v) <= max_value_len for v in vals):
                out.add(Solution.of(dict(zip(variables, vals))))
            continue
        var = residual[index]
        for word in choices:
            stack.append((index + 1, tuple(v.replace(var, word) for v in vals)))
    return
