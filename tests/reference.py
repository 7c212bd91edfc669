"""
Reference definitions that the tests check the library against.

They are written the plain way the paper states them, not the fast way the
library computes them: occurrence counts, the count check and var-permutation
by counting, reduction by dropping equal end terms one at a time, the split
loop by slicing and re-reducing the remainder after every split, and bounded
enumeration by a walk over fully composed values whose leaves are
instantiated with every ground word within the value bound.
The value of a variable under a program, the graph helpers (expanded nodes,
the program of a given walk, the accepted programs of bounded walks, the
shortest accepting walk by breadth-first search) and the oracle over a wider
variable set serve only the tests, so they live here rather than in the
library.  ``build`` and ``verdict`` at the end are the library's own from
before a build keyed its labels by int: tables keyed by the label itself,
``(ENTER/EXIT, arg)`` stack entries, a ``Node`` list with each node's depth,
and a scan of every label for the verdict.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from wordeq.core import (
    Equation,
    Narrowing,
    Program,
    SystemState,
    Word,
    apply_to_word,
    ground_words,
)
from wordeq.graph import SAT, UNKNOWN, UNSAT, Budget, BuildOutcome, Node, SolutionGraph
from wordeq.narrow import compatible_narrowings, step
from wordeq.oracle import brute_solutions
from wordeq.rewrite import Scheme, simplify
from wordeq.solutions import Solution


def apply_to_state(n: Narrowing, s: SystemState) -> SystemState:
    """Apply a narrowing to both sides of every equation, order preserved.

    No simplification is performed here.
    """
    if not s.is_eqs:
        raise ValueError(f"cannot substitute into a {s.kind.value} state")
    return SystemState.of(
        Equation(apply_to_word(n, e.lhs), apply_to_word(n, e.rhs)) for e in s.equations
    )


def compose_value(p: Iterable[Narrowing], x: str) -> Word:
    """Value of ``x`` under the left-to-right composition of the program."""
    w: Word = x
    for n in p:
        w = apply_to_word(n, w)
    return w


def compatible_narrowings(s: SystemState) -> Tuple[Narrowing, ...]:
    """The narrowings the first terms of the first equation allow: erase the
    leading variable of each side, left side first, then prepend to each
    leading variable the other side's first term, when there is one."""
    lhs, rhs = s.equations[0]
    p, q = lhs[:1], rhs[:1]
    out = [Narrowing(t, "") for t in (p, q) if t.islower()]
    if p and q:
        out += [Narrowing(x, y) for x, y in ((p, q), (q, p)) if x.islower()]
    return tuple(out)


def erase_letters(w: Word) -> Word:
    """The subsequence of ``w`` consisting of its variables."""
    return "".join(c for c in w if c.islower())


def letter_count(w: Word) -> int:
    """Number of positions of ``w`` holding letters."""
    return sum(map(str.isupper, w))


def count_unsat(e: Equation) -> bool:
    """Occurrence-counting test: one side has strictly more letters and at
    least as many occurrences of every variable of the other, tried in both
    directions."""

    def dominated(phi: Word, psi: Word) -> bool:
        return letter_count(phi) > letter_count(psi) and all(
            count_occurrences(phi, x) >= count_occurrences(psi, x) for x in erase_letters(psi)
        )

    return dominated(e.lhs, e.rhs) or dominated(e.rhs, e.lhs)


def count_occurrences(w: Word, t: str) -> int:
    """Number of positions of ``w`` equal to the term ``t``."""
    return w.count(t)


def is_var_permutated(w1: Word, w2: Word) -> bool:
    """True iff the words have equal length and equal per-variable counts.

    Letters need not match position-wise or even as multisets; with equal
    lengths the total letter counts agree automatically.
    """
    if len(w1) != len(w2):
        return False
    return Counter(erase_letters(w1)) == Counter(erase_letters(w2))


def reduce(e: Equation) -> Optional[Equation]:
    """Drop the first terms of both sides while they are equal, then the last
    terms; ``None`` when what is left has two nonempty sides that start, or
    end, with two distinct letters."""
    l, r = e
    while l and r and l[0] == r[0]:
        l, r = l[1:], r[1:]
    while l and r and l[-1] == r[-1]:
        l, r = l[:-1], r[:-1]
    if l and r and ((l[0].isupper() and r[0].isupper()) or (l[-1].isupper() and r[-1].isupper())):
        return None
    return Equation(l, r)


def split_scan(l: str, r: str, exclude_full: bool) -> Optional[int]:
    """Length of the shortest admissible var-permutated prefix pair, if any.

    A pair containing no variable at all is admitted only when the
    prefixes are textually equal; with ``exclude_full`` the pair of both
    whole sides is not admitted.
    """
    for length in range(1, min(len(l), len(r)) + 1):
        lp, rp = l[:length], r[:length]
        if not is_var_permutated(lp, rp):
            continue
        if exclude_full and length == len(l) == len(r):
            continue
        if not erase_letters(lp + rp) and lp != rp:
            continue
        return length
    return None


def left_split(e: Equation) -> Optional[Tuple[Equation, Equation]]:
    """Split off the shortest var-permutated prefixes, as (prefix, remainder).

    ``e`` must be reduced.  The whole equation counts as its own prefix
    pair, in which case the remainder is the trivial equation.
    """
    length = split_scan(e.lhs, e.rhs, exclude_full=False)
    if length is None:
        return None
    return Equation(e.lhs[:length], e.rhs[:length]), Equation(e.lhs[length:], e.rhs[length:])


def right_split(e: Equation) -> Optional[Tuple[Equation, Equation]]:
    """Mirror of ``left_split`` on proper suffixes, as (remainder, suffix)."""
    length = split_scan(e.lhs[::-1], e.rhs[::-1], exclude_full=True)
    if length is None:
        return None
    return Equation(e.lhs[:-length], e.rhs[:-length]), Equation(e.lhs[-length:], e.rhs[-length:])


def split_pieces(scheme: Scheme, e: Equation) -> Optional[List[Equation]]:
    """The split loop of ``rewrite._split_pieces`` under ``SPLIT`` or
    ``COUNT``, slicing and reducing the remainder after every split:
    ``[core] + suffixes + prefixes``, or ``None`` on contradiction.  ``e``
    must be reduced."""
    prefixes: List[Equation] = []
    suffixes: List[Equation] = []
    cur = e
    while True:
        split = left_split(cur)
        if split is not None:
            prefix, remainder = split
            prefixes.append(prefix)
        elif scheme is Scheme.COUNT and (split := right_split(cur)) is not None:
            remainder, suffix = split
            suffixes.append(suffix)
        else:
            break
        cur = reduce(remainder)
        if cur is None:
            return None
    return [cur] + suffixes + prefixes


def enumerate_solutions(
    graph: SolutionGraph,
    max_value_len: int,
    max_path_len: int,
    alphabet: Optional[Sequence[str]] = None,
) -> Set[Solution]:
    """``solutions.enumerate_solutions`` over fully composed values.

    Walks of up to ``max_path_len`` edges are enumerated breadth first
    (back edges unrolled), pruning a walk state that repeats a seen (node,
    composed values) pair or whose composed letters exceed the value bound.
    At each T-leaf every residual variable takes every ground word within
    the value bound, and solutions exceeding the bound are dropped.
    """
    if max_value_len < 0 or max_path_len < 0:
        raise ValueError("enumeration bounds must not be negative")
    variables = sorted({c for e in graph.system for c in e.lhs + e.rhs if c.islower()})
    if alphabet is None:
        alphabet = sorted({c for e in graph.system for c in e.lhs + e.rhs if c.isupper()})
    alphabet = sorted(alphabet)

    solutions: Set[Solution] = set()
    nodes = graph.nodes
    start = (graph.root, tuple(variables))
    seen = {start}
    frontier = [start]
    steps = 0
    while frontier:
        for nid, values in frontier:
            if nodes[nid].label.is_accepted:
                _instantiate(variables, values, alphabet, max_value_len, solutions)
        if steps == max_path_len:
            break
        steps += 1
        next_frontier = []
        for nid, values in frontier:
            for narrowing, child in graph.out_edges(nid):
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


def internal_nodes(graph: SolutionGraph) -> List[Node]:
    """Expanded internal nodes, i.e. those with outgoing tree edges."""
    return [n for n in graph.nodes if any(e is not None for e, _ in graph.out_edges(n.id))]


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
        for narrowing, child in graph.out_edges(src):
            if child == dst:
                if narrowing is not None:
                    steps.append(narrowing)
                break
        else:
            raise ValueError(f"no edge from node {src} to node {dst}")
    if not graph.nodes[path[-1]].label.is_accepted:
        raise ValueError("walk does not end at an accepting leaf")
    return tuple(steps)


def accepted_programs(graph: SolutionGraph, max_steps: int) -> List[Program]:
    """The programs of the accepting walks of up to ``max_steps`` narrowings,
    back edges unrolled, in depth-first order (children in edge order)."""
    out: List[Program] = []
    nodes = graph.nodes

    def go(nid: int, prefix: Program) -> None:
        if nodes[nid].label.is_accepted:
            out.append(prefix)
            return
        for narrowing, child in graph.out_edges(nid):
            if narrowing is None:
                go(child, prefix)
            elif len(prefix) < max_steps:
                go(child, prefix + (narrowing,))

    go(graph.root, ())
    return out


def min_witness(graph: SolutionGraph) -> Optional[Program]:
    """Program of a shortest (in edges) accepting walk, if any: the library's
    breadth-first walk over every edge, from before it read the walk off
    the tree."""
    parent: Dict[int, Tuple[int, Optional[Narrowing]]] = {}
    nodes = graph.nodes
    seen = {graph.root}
    queue = deque([graph.root])
    goal: Optional[int] = None
    while queue:
        nid = queue.popleft()
        if nodes[nid].label.is_accepted:
            goal = nid
            break
        for narrowing, child in graph.out_edges(nid):
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


def brute_solutions_over(
    system: Sequence[Equation], alphabet: Sequence[str], max_value_len: int, variables: Sequence[str]
) -> Set[Solution]:
    """``oracle.brute_solutions`` with the given variables enumerated too: one
    equation ``v = v``, which every assignment satisfies, per variable."""
    return brute_solutions(list(system) + [Equation(v, v) for v in variables], alphabet, max_value_len)


def build(
    system: List[Equation],
    scheme: Scheme,
    budget: Budget = Budget(),
    *,
    early_stop: bool = False,
) -> Tuple[BuildOutcome, List[Node]]:
    """Build the (partial) solution graph of an equation system, and the
    loop's own list of its nodes, depths included; the graph gets the
    labels, not the depths.

    The root is the simplified input; expansion is depth first, children
    in narrowing order, so node numbering and the serialized graph are
    deterministic.  Exceeding the budget, its timeout included, stops
    expansion and is reported in the outcome, not raised.  With
    ``early_stop`` the build halts at the first accepting leaf.
    """
    if not system:
        raise ValueError("empty system")
    deadline = None if budget.timeout_ms is None else time.monotonic() + budget.timeout_ms / 1000.0

    root_label = simplify(scheme, SystemState.of(system))
    nodes = [Node(0, root_label, 0)]
    graph = SolutionGraph([root_label], tuple(system))
    reason: Optional[str] = None
    halted = False

    ENTER, EXIT = 0, 1
    stack: List[Tuple[int, object]] = [(ENTER, 0)]
    # The labels of the expanded nodes on the current path: the ones a
    # node may fold to.
    fold_to: Dict[SystemState, int] = {}
    # The narrowings and child labels of every label expanded so far; a
    # node whose label is already here reuses them instead of unfolding.
    expansions: Dict[SystemState, List[Tuple[Narrowing, SystemState]]] = {}

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
            graph.folds[node.id] = target
            continue
        if halted:
            reason = reason or "early_stop"
            continue
        if deadline is not None and time.monotonic() > deadline:
            halted = True
            reason = reason or "timeout"
            continue
        expansion = expansions.get(label)
        narrowings = compatible_narrowings(label) if expansion is None else expansion
        if not narrowings:  # a dead end has nothing to expand, so no limit stops it
            continue
        if node.depth >= budget.max_depth:
            reason = reason or "max_depth"
            continue
        # The budget is checked before anything is unfolded.
        if len(nodes) + len(narrowings) > budget.max_nodes:
            halted = True
            reason = reason or "max_nodes"
            continue
        if expansion is None:
            expansion = expansions[label] = [(n, step(label, n, scheme)) for n in narrowings]
        first = len(nodes)
        graph.expanded.append(node.id)
        graph.firsts.append(first)
        for n, child_label in expansion:
            nodes.append(Node(len(nodes), child_label, node.depth + 1))
            graph.labels.append(child_label)
            if early_stop and child_label.is_accepted:
                halted = True
        fold_to[label] = node.id
        stack.append((EXIT, label))
        for child_id in reversed(range(first, len(nodes))):
            stack.append((ENTER, child_id))

    return BuildOutcome(graph, reason), nodes


def verdict(outcome: BuildOutcome) -> str:
    """SAT as soon as an accepting leaf exists (valid even when the graph
    is partial); UNSAT only for complete graphs without one."""
    if any(label.is_accepted for label in outcome.graph.labels):
        return SAT
    return UNSAT if outcome.complete else UNKNOWN
