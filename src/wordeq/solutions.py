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
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .core import (
    LETTERS,
    MAX_GROUND_WORDS,
    Program,
    Word,
    apply_to_word,
    check_alphabet,
    ground_words,
    letter_count,
    system_letters,
    system_variables,
)
from .graph import SolutionGraph


@dataclass(frozen=True)
class Solution:
    """An assignment of words to variables, sorted by variable name."""

    items: Tuple[Tuple[str, Word], ...]

    @staticmethod
    def of(assignment: Dict[str, Word]) -> "Solution":
        return Solution(tuple(sorted(assignment.items())))

    def __str__(self) -> str:
        return ", ".join(f"{var}={value}" for var, value in self.items)


def min_witness(graph: SolutionGraph) -> Optional[Program]:
    """Program of a shortest (in edges) accepting walk, if any: the one
    ``build`` recorded.  Back edges only reach ancestors, so a breadth-first
    walk meets every node first along its tree path, the nodes of one depth
    in id order, and finds the tree path to the T-leaf of least ``(depth, id)``.
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
    (node, values, empty), visited breadth first; a repeated state is
    pruned, as its first visit had as much path budget left.  ``empty``
    holds the variables the value bound forces empty, erased from the
    values: a value with ``n`` letters and ``k > max_value_len - n``
    occurrences of ``x`` is at least ``n + k |x|`` long.  Letters enter a
    value only by ``x -> A x``, which then fits the room left, so no value
    exceeds ``max_value_len`` letters.  Negative bounds and non-letter
    alphabet symbols raise ``ValueError``.
    """
    if max_value_len < 0 or max_path_len < 0:
        raise ValueError("enumeration bounds must not be negative")
    variables = system_variables(graph.system)
    if alphabet is None:
        alphabet = system_letters(graph.system)
    words = cache(partial(ground_words, check_alphabet(alphabet)))  # x y = y x, both bounds 14, over AB: 1.05x
    labels, out_edges = graph.labels, graph.out_edges
    # each node's out-edges tabled when the walk first meets it: enumerate 1.21x
    edges = cache(lambda nid: None if labels[nid].is_accepted else [(n, n and n.target, c) for n, c in out_edges(nid)])
    found, done = set(), set()  # the ground value tuples, and the leaf ones instantiated so far
    frontier = [_normal(graph.root, tuple(variables), frozenset(), max_value_len)]
    seen = set(frontier)
    depth = 0
    while frontier:
        next_frontier = []
        for nid, values, empty in frontier:
            out = edges(nid)
            if out is None and values not in done:  # a T-leaf
                done.add(values)
                found.update(_instantiate(values, words, max_value_len))
            elif out and depth < max_path_len:
                for narrowing, target, child in out:
                    if narrowing is None:
                        succ = (child, values, empty)
                    elif narrowing.var not in empty:
                        new_values = tuple([apply_to_word(narrowing, v) for v in values])
                        succ = _normal(child, new_values, empty, max_value_len)
                    elif not target:  # x is forced empty (h = h' . n keeps it so): x -> frees it,
                        succ = (child, values, empty - {narrowing.var})
                    elif target.islower():  # x -> y x forces y empty too,
                        succ = _normal(child, values, empty | {target}, max_value_len)
                    else:  # and x -> A x cannot keep it empty
                        continue
                    if succ not in seen:
                        seen.add(succ)
                        next_frontier.append(succ)
        frontier, depth = next_frontier, depth + 1
    return {Solution(tuple(zip(variables, values))) for values in found}


def _normal(nid: int, values: Tuple[Word, ...], empty: FrozenSet[str], max_value_len: int):
    """The walk state with every forced variable added to ``empty`` and all of
    ``empty`` erased from the values: a variable left in a value ``v`` occurs
    at most ``max_value_len - letters(v)`` times, so ``x -> A x`` fits."""
    for v in values:
        if len(v) > max_value_len:  # else it has no more variables than room
            spare = max_value_len - letter_count(v)
            empty = empty.union([x for x in set(v) - LETTERS if v.count(x) > spare])
    if empty:  # enumerate 1.08x
        table = dict.fromkeys(map(ord, empty))
        values = tuple([v.translate(table) for v in values])
    return nid, values, empty


def _instantiate(values: Tuple[Word, ...], words: Callable, max_value_len: int) -> List[Tuple[Word, ...]]:
    """The ground instances of the leaf values within the value bound.  A
    residual variable takes only ``words(r // k)``, the ground words up to the
    least ``r // k`` over the values with room ``r`` holding it ``k`` times.
    ``ValueError`` rather than try more than ``MAX_GROUND_WORDS`` instances."""
    residual = sorted(set("".join(values)) - LETTERS)
    if not residual:  # a walk state holds no more letters than the bound: enumerate 1.06x
        return [values]
    choices = [words(min((max_value_len - letter_count(v)) // v.count(x) for v in values if x in v)) for x in residual]
    if len(residual) == 1:  # a value grows to at most (bound - r) + k (r // k) letters, and 10^6
        x = residual[0]  # letters spell at most 10^6 words, so nothing to check: enumerate 1.16x
        return [tuple([v.replace(x, w) for v in values]) for w in choices[0]]
    if prod(map(len, choices)) > MAX_GROUND_WORDS:
        raise ValueError(f"more than {MAX_GROUND_WORDS} ground instances of a solution")
    tables = (dict(zip(map(ord, residual), combo)) for combo in product(*choices))
    grounds = (tuple([v.translate(table) for v in values]) for table in tables)
    return [ground for ground in grounds if max(map(len, ground)) <= max_value_len]
