"""
Output checker for the benchmark, written apart from the solver: it imports
nothing from ``wordeq`` and works on plain strings and tuples.

Words are strings; uppercase characters are letters and lowercase ones are
variables.  A system is a list of ``(lhs, rhs)`` pairs.  Every check returns
``None`` when the output is right and a one-line reason when it is not.

Run this file to self-test the checker: each deliberately wrong output must
be flagged and each right one accepted.
"""

from __future__ import annotations

import sys
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

System = List[Tuple[str, str]]
Assignment = Tuple[Tuple[str, str], ...]  # sorted (variable, value) pairs

# Largest number of assignments a bounded brute force may try for one system.
BRUTE_LIMIT = 1024
# Longest value a bounded brute force tries, whatever the limit allows.
MAX_BRUTE_LEN = 12


def parse_text(text: str) -> System:
    """Equations of ``.eq`` text: ``#`` comments, ``=`` between the sides,
    whitespace between terms ignored."""
    system = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if not line.strip():
            continue
        lhs, rhs = line.split("=")
        system.append(("".join(lhs.split()), "".join(rhs.split())))
    return system


def variables(system: System) -> List[str]:
    return sorted({c for side in system for w in side for c in w if c.islower()})


def letters(system: System) -> List[str]:
    return sorted({c for side in system for w in side for c in w if c.isupper()})


def substitute(word: str, assignment: Dict[str, str]) -> str:
    return word.translate({ord(x): v for x, v in assignment.items()})


def satisfies(system: System, assignment: Dict[str, str]) -> bool:
    table = {ord(x): v for x, v in assignment.items()}
    return all(l.translate(table) == r.translate(table) for l, r in system)


def compose(steps: Sequence[Tuple[str, str]], names: Iterable[str]) -> Dict[str, str]:
    """Ground values of a narrowing program: each step ``(x, t)`` replaces
    every ``x`` by ``t x`` (by nothing when ``t`` is empty), applied left to
    right; variables still left at the end are set to the empty word."""
    values = {x: x for x in names}
    for var, target in steps:
        replacement = target + var if target else ""
        values = {x: v.replace(var, replacement) for x, v in values.items()}
    return {x: "".join(c for c in v if c.isupper()) for x, v in values.items()}


def ground_words(alphabet: Sequence[str], max_len: int) -> List[str]:
    out = [""]
    layer = [""]
    for _ in range(max_len):
        layer = [w + a for w in layer for a in alphabet]
        out.extend(layer)
    return out


def brute_solutions(system: System, alphabet: Sequence[str], max_len: int) -> Set[Assignment]:
    """Every assignment of words up to ``max_len`` over ``alphabet`` that
    solves the system."""
    names = variables(system)
    words = ground_words(sorted(alphabet), max_len)
    found = set()
    for values in product(words, repeat=len(names)):
        assignment = dict(zip(names, values))
        if satisfies(system, assignment):
            found.add(tuple(sorted(assignment.items())))
    return found


def brute_bound(system: System) -> Tuple[List[str], int]:
    """Alphabet and the largest value length, at most ``MAX_BRUTE_LEN``,
    whose brute force stays within ``BRUTE_LIMIT`` assignments.

    Erasing a letter the system does not contain maps solutions to
    solutions, so the system's own letters suffice (one letter when it has
    none).
    """
    alphabet = letters(system) or ["A"]
    n_vars = len(variables(system))
    length = 0
    while n_vars and length < MAX_BRUTE_LEN and sum(len(alphabet) ** k for k in range(length + 2)) ** n_vars <= BRUTE_LIMIT:
        length += 1
    return alphabet, length


def check_witness(system: System, steps: Sequence[Tuple[str, str]]) -> Optional[str]:
    """A SAT witness must solve every equation once composed."""
    assignment = compose(steps, variables(system))
    for l, r in system:
        if substitute(l, assignment) != substitute(r, assignment):
            return f"witness gives {substitute(l, assignment)!r} != {substitute(r, assignment)!r}"
    return None


def walk_to_accept(
    root: int, edges: Iterable[Tuple[int, Tuple[str, str], int]], accepted: Set[int]
) -> Optional[List[Tuple[str, str]]]:
    """Narrowings along tree edges ``(parent, step, child)`` from the root to
    an accepting node, or ``None`` when no such walk exists."""
    children: Dict[int, List[Tuple[Tuple[str, str], int]]] = {}
    for parent, step, child in edges:
        children.setdefault(parent, []).append((step, child))
    paths = {root: []}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        if node in accepted:
            return paths[node]
        for step, child in children.get(node, ()):
            if child not in paths:
                paths[child] = paths[node] + [step]
                frontier.append(child)
    return None


def check_unsat(system: System) -> Optional[str]:
    """An UNSAT verdict must survive a bounded brute force."""
    alphabet, length = brute_bound(system)
    names = variables(system)
    codes = [ord(x) for x in names]
    for values in product(ground_words(alphabet, length), repeat=len(names)):
        table = dict(zip(codes, values))
        if all(l.translate(table) == r.translate(table) for l, r in system):
            return f"UNSAT but {dict(zip(names, values))} solves it"
    return None


def check_graph(labels: Sequence[object], back_edges: Iterable[Tuple[int, int]], max_nodes: int) -> Optional[str]:
    """Every graph must stay within its node budget, and every back edge
    must join two nodes with equal labels."""
    if len(labels) > max_nodes:
        return f"{len(labels)} nodes exceed the budget of {max_nodes}"
    for src, dst in back_edges:
        if labels[src] != labels[dst]:
            return f"back edge {src}->{dst} joins unequal labels"
    return None


def check_enumerated(
    system: System, found: Set[Assignment], alphabet: Sequence[str], max_len: int
) -> Optional[str]:
    """Enumerated solutions must each solve the system and together equal
    the brute-force set at the same bounds."""
    for solution in found:
        if not satisfies(system, dict(solution)):
            return f"enumerated {dict(solution)} does not solve the system"
    want = brute_solutions(system, alphabet, max_len)
    if found != want:
        return f"enumerated {len(found)} solutions, brute force {len(want)}"
    return None


def self_test() -> List[str]:
    """Failures of the checker on outputs whose rightness is known."""
    failures = []

    def expect(flagged: bool, reason: Optional[str], what: str) -> None:
        if (reason is not None) != flagged:
            failures.append(f"{what}: {'not flagged' if flagged else reason}")

    fig3b = parse_text("A x y = x y A")
    expect(False, check_witness(fig3b, [("x", ""), ("y", "")]), "right witness")
    expect(False, check_witness(fig3b, [("x", "A"), ("x", ""), ("y", "")]), "right witness")
    expect(True, check_witness(fig3b, [("x", "B"), ("x", ""), ("y", "")]), "mutated witness")
    expect(True, check_witness(parse_text("x A = B x"), [("x", "")]), "witness of UNSAT")

    expect(False, check_unsat(parse_text("x A = B x")), "true UNSAT")
    expect(True, check_unsat(parse_text("x A y = y A x")), "false UNSAT")
    expect(True, check_unsat(fig3b), "false UNSAT")

    commute = parse_text("x y = y x")
    full = brute_solutions(commute, "A", 2)
    expect(False, check_enumerated(commute, set(full), "A", 2), "complete set")
    expect(True, check_enumerated(commute, set(sorted(full)[1:]), "A", 2), "set missing one")
    bad = set(full) | {(("x", "AB"), ("y", "A"))}
    expect(True, check_enumerated(commute, bad, "A", 2), "set with a non-solution")

    expect(False, check_graph(["a", "b", "a"], [(2, 0)], 3), "graph within budget")
    expect(True, check_graph(["a", "b", "a"], [(2, 0)], 2), "graph over budget")
    expect(True, check_graph(["a", "b"], [(1, 0)], 2), "back edge joining unequal labels")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for problem in problems:
        print(f"FAIL {problem}")
    print("checker self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
