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

from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from math import prod
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from .core import (
    MAX_GROUND_WORDS,
    Program,
    Word,
    apply_to_word,
    check_alphabet,
    compose_value,
    ground_words,
    letter_count,
    system_letters,
    system_variables,
)
from .graph import SolutionGraph


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

    def __str__(self) -> str:
        return ", ".join(f"{var}={value}" for var, value in self.items)


def path_solution(p: Program, variables: Iterable[str]) -> Solution:
    """Composed values of the given variables under the program.

    Variables whose composed value still contains variables are reported
    as residual-free, their partially composed value included.
    """
    assignment = {x: compose_value(p, x) for x in variables}
    residual = [x for x, value in assignment.items() if any(c.islower() for c in value)]
    return Solution.of(assignment, residual)


def min_witness(graph: SolutionGraph) -> Optional[Program]:
    """Program of a shortest (in edges) accepting walk, if any: the one
    ``build`` recorded.

    Back edges only reach ancestors, so a breadth-first walk reaches every
    node first along its tree path, at its depth, and meets the nodes of one
    depth in id order: the walk it finds is the tree path to the T-leaf of
    least ``(depth, id)``.  ``build`` makes T-leaves in id order and records
    the path to the first one at a depth below every earlier one's.
    """
    return graph.witness


def enumerate_solutions(
    graph: SolutionGraph,
    max_value_len: int,
    max_path_len: int,
    alphabet: Optional[Sequence[str]] = None,
) -> Set[Solution]:
    """Ground solutions reachable by accepting walks of bounded length.

    Walks of up to ``max_path_len`` edges (back edges unrolled) are states
    (node, values, empty), visited breadth first.  ``empty`` holds the
    variables the value bound forces empty, erased from the values: a value
    with ``n`` letters and ``k > max_value_len - n`` occurrences of ``x`` is
    at least ``n + k |x|`` long.  Letters enter a value only by ``x -> A x``,
    which then fits the room left, so no value exceeds ``max_value_len``
    letters.  Repeated states (the first visit had as much path budget left)
    are pruned.  Negative bounds and non-letter alphabet symbols raise
    ``ValueError``.
    """
    if max_value_len < 0 or max_path_len < 0:
        raise ValueError("enumeration bounds must not be negative")
    variables = system_variables(graph.system)
    if alphabet is None:
        alphabet = system_letters(graph.system)
    words = cache(partial(ground_words, check_alphabet(alphabet)))
    labels, out_edges = graph.labels, cache(graph.out_edges)
    found: Set[Tuple[Word, ...]] = set()
    frontier = [_normal(graph.root, tuple(variables), frozenset(), max_value_len)]
    seen = set(frontier)
    depth = 0
    while frontier:
        next_frontier = []
        for nid, values, empty in frontier:
            if labels[nid].is_accepted:
                _instantiate(values, words, max_value_len, found)
            elif depth < max_path_len:
                for narrowing, child in out_edges(nid):
                    if narrowing is None:
                        succ = (child, values, empty)
                    else:  # h = h' . n must keep every variable of ``empty`` empty
                        forced, x, target = empty, narrowing.var, narrowing.target
                        if x in empty:
                            if target.isupper():
                                continue
                            forced = empty | {target} if target else empty - {x}
                        new_values = tuple(apply_to_word(narrowing, v) for v in values)
                        succ = _normal(child, new_values, forced, max_value_len)
                    if succ not in seen:
                        seen.add(succ)
                        next_frontier.append(succ)
        frontier, depth = next_frontier, depth + 1
    return {Solution.of(dict(zip(variables, values))) for values in found}


def _normal(nid: int, values: Tuple[Word, ...], empty: FrozenSet[str], max_value_len: int):
    """The walk state with every forced variable added to ``empty`` and all of
    ``empty`` erased from the values: a variable left in a value ``v`` occurs
    at most ``max_value_len - letters(v)`` times, so ``x -> A x`` fits."""
    for v in values:
        if len(v) > max_value_len:  # else it has no more variables than room
            spare = max_value_len - letter_count(v)
            empty = empty.union(x for x in set(v) if x.islower() and v.count(x) > spare)
    if empty:
        table = dict.fromkeys(map(ord, empty))
        values = tuple(v.translate(table) for v in values)
    return nid, values, empty


def _instantiate(values: Tuple[Word, ...], words: Callable, max_value_len: int, out: Set) -> None:
    """Add every ground instance of the leaf values within the value bound.  A
    residual variable takes only ``words(r // k)``, the ground words up to the
    least ``r // k`` over the values with room ``r`` holding it ``k`` times.
    ``ValueError`` rather than try more than ``MAX_GROUND_WORDS`` instances."""
    residual = sorted({c for v in values for c in v if c.islower()})
    room = [max_value_len - letter_count(v) for v in values]
    caps = [min(r // v.count(x) for v, r in zip(values, room) if x in v) for x in residual]
    choices = [words(cap) for cap in caps]
    if prod(map(len, choices)) > MAX_GROUND_WORDS:
        raise ValueError(f"more than {MAX_GROUND_WORDS} ground instances of a solution")
    keys = [ord(x) for x in residual]
    for combo in product(*choices):
        table = dict(zip(keys, combo))
        ground = tuple(v.translate(table) for v in values)
        if all(len(v) <= max_value_len for v in ground):
            out.add(ground)
