import random
import tracemalloc
from functools import partial

import pytest

from wordeq import solutions
from wordeq.core import MAX_GROUND_WORDS, Equation, eps, ground_words, letter_count, prepend_letter
from wordeq.graph import Budget, build
from wordeq.oracle import brute_solutions, satisfies
from wordeq.parse import parse_system
from wordeq.rewrite import Scheme
from wordeq.solutions import Solution, enumerate_solutions, min_witness
from wordeq.witness import verify
import reference
from reference import extract_program

E = Equation


@pytest.fixture(scope="module")
def fig3b():
    return build(parse_system("A x y = x y A"), Scheme.BASE)


def test_extract_program(fig3b):
    g = fig3b.graph
    # node ids are deterministic: 0 root, 1 child, 2 fold-to-root, 3 T, 4 fold-to-child
    assert extract_program(g, [0, 1, 3]) == (eps("x"), eps("y"))
    assert extract_program(g, [0, 2, 0, 1, 3]) == (
        prepend_letter("x", "A"),
        eps("x"),
        eps("y"),
    )


def test_extract_program_degenerate():
    outcome = build(parse_system("A = A"), Scheme.BASE)
    assert extract_program(outcome.graph, [0]) == ()


def test_extract_program_errors(fig3b):
    g = fig3b.graph
    with pytest.raises(ValueError):
        extract_program(g, [0, 1])  # not a T-leaf
    with pytest.raises(ValueError):
        extract_program(g, [0, 3])  # no such edge
    with pytest.raises(ValueError):
        extract_program(g, [1, 3])  # must start at the root


def test_enumerate_fig3b(fig3b):
    # oracle ground truth: every pair of A-powers up to the value bound
    want = brute_solutions(parse_system("A x y = x y A"), "A", 2)
    assert want == {
        Solution.of({"x": "A" * i, "y": "A" * j}) for i in range(3) for j in range(3)
    }
    assert enumerate_solutions(fig3b.graph, 2, 12) == want
    # an 8-edge path budget reaches all but the costliest pair
    found8 = enumerate_solutions(fig3b.graph, 2, 8)
    assert found8 < want
    assert want - found8 == {Solution.of({"x": "AA", "y": "AA"})}


def test_enumerate_unsat_graph():
    outcome = build(parse_system("x x A y B z = A x x z y"), Scheme.COUNT)
    assert enumerate_solutions(outcome.graph, 3, 20, "AB") == set()


def test_enumerate_commutation():
    outcome = build(parse_system("x y = y x"), Scheme.BASE, Budget(max_nodes=2000))
    found = enumerate_solutions(outcome.graph, 1, 12, "AB")
    assert found == {
        Solution.of({"x": a, "y": b})
        for a, b in [("", ""), ("A", ""), ("", "A"), ("B", ""), ("", "B"), ("A", "A"), ("B", "B")]
    }


def test_enumerate_rejects_negative_bounds(fig3b):
    with pytest.raises(ValueError):
        enumerate_solutions(fig3b.graph, 2, -1)
    with pytest.raises(ValueError):
        enumerate_solutions(fig3b.graph, -1, 8)


def test_enumerate_rejects_non_letter_alphabet(fig3b):
    # lowercase symbols are variables, so their "solutions" would not be ground
    for alphabet in ("ab", "A-", "Ab", ["AB"], [""]):
        with pytest.raises(ValueError, match="is not a letter A-Z"):
            enumerate_solutions(fig3b.graph, 1, 8, alphabet)


def test_enumerate_values_growing_by_variables():
    # walk values such as the Nielsen pairs (yyyx, yyx) grow by variables
    # alone; the variables the value bound forces empty are erased, so the
    # walk states stay few however long the path bound
    system = parse_system("x y z = z y x")
    graph = build(system, Scheme.COUNT).graph
    assert len(graph.nodes) == 29
    want = brute_solutions(system, "AB", 2)
    assert len(want) == 93
    for max_path in (28, 40):
        assert enumerate_solutions(graph, 2, max_path, "AB") == want


def test_enumerate_counts_repeated_alphabet_letters_once():
    system = parse_system("x y = y x")
    graph = build(system, Scheme.COUNT).graph
    assert enumerate_solutions(graph, 20, 24, "AA") == enumerate_solutions(graph, 20, 24, "A")
    assert len(brute_solutions(system, "AAAAAA", 6)) == 49
    assert brute_solutions(system, "ABBA", 2) == brute_solutions(system, "AB", 2)


# Accepting value tuples of (p, q, r, ...) as a walk may reach them: with no
# residual variable, with one that occurs several times in several values, and
# with two.  A walk state holds no more letters than the value bound, so each
# is instantiated at the bounds 0-3 that it fits.
LEAF_VALUES = {
    0: [("", "", ""), ("AB", "", "BA"), ("A", "B")],
    1: [("xx", "x", ""), ("xAx", "xBx", "x"), ("Ax", "xx", "BxxA")],
    2: [("xy", "yx"), ("xAy", "yBx", "x"), ("xxy", "yy", "A")],
    3: [("xyz", "zx", "y"), ("xAz", "yy")],
}


@pytest.mark.parametrize("residual", sorted(LEAF_VALUES))
def test_instantiate_equals_reference(residual):
    words = partial(ground_words, "AB")
    branches = set()
    for values in LEAF_VALUES[residual]:
        names = "pqrs"[: len(values)]
        for bound in range(4):
            if max(map(letter_count, values)) > bound:
                continue
            _, leaf, _ = solutions._normal(0, values, frozenset(), bound)  # erase what the bound forces empty
            branches.add(len(set("".join(leaf)) - set("AB")))
            want = set()
            reference._instantiate(names, values, "AB", bound, want)
            assert set(solutions._instantiate(leaf, words, bound)) == {tuple(v for _, v in s.items) for s in want}
    assert residual in branches


def test_instantiate_holds_no_more_than_the_instances_it_keeps():
    # x y = y x at bound 8 leaves 511 words for each of x and y: 261 121 pairs,
    # of which the 4 097 whose lengths sum to at most 8 are kept, 3 441 instances
    words = partial(ground_words, "AB")
    want = {(a + b, b + a) for a in words(8) for b in words(8) if len(a) + len(b) <= 8}
    tracemalloc.start()
    try:
        got = set(solutions._instantiate(("xy", "yx"), words, 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want and len(want) == 3441
    assert peak < 2_000_000  # the kept set is under 1 MB; the unfiltered pairs would take over 40 MB


def test_instantiate_refusals():
    words = partial(ground_words, "AB")
    # one residual variable: its words up to length 30 are refused before any is listed
    with pytest.raises(ValueError, match=f"more than {MAX_GROUND_WORDS} letters in the ground words"):
        solutions._instantiate(("x", "Ax", ""), words, 30)
    # two: 8191 words each, too many pairs
    with pytest.raises(ValueError, match=f"more than {MAX_GROUND_WORDS} ground instances of a solution"):
        solutions._instantiate(("xy", "yx"), words, 12)


def test_min_witness(fig3b):
    assert min_witness(fig3b.graph) == (eps("x"), eps("y"))
    unsat = build(parse_system("x x A y B z = A x x z y"), Scheme.COUNT)
    assert min_witness(unsat.graph) is None
    trivial = build(parse_system("A = A"), Scheme.BASE)
    assert min_witness(trivial.graph) == ()


def test_witnesses_verify(fig3b):
    system = list(fig3b.graph.system)
    w = min_witness(fig3b.graph)
    assert verify(w, system, Scheme.BASE)
    assert verify(extract_program(fig3b.graph, [0, 2, 0, 1, 3]), system, Scheme.BASE)


def test_enumerated_solutions_satisfy_system():
    rng = random.Random(40)
    checked = 0
    for _ in range(60):
        terms = "AB" + "xy"[: rng.randint(1, 2)]
        system = [
            E(
                "".join(rng.choice(terms) for _ in range(rng.randint(1, 5))),
                "".join(rng.choice(terms) for _ in range(rng.randint(1, 5))),
            )
        ]
        outcome = build(system, Scheme.COUNT, Budget(max_nodes=3000))
        for sol in enumerate_solutions(outcome.graph, 2, 16, "AB"):
            checked += 1
            assert satisfies(system, dict(sol.items)), (system, sol)
    assert checked > 20


def test_solution_rendering():
    sol = Solution.of({"x": "AB", "y": "", "z": "A"})
    assert str(sol) == "x=AB, y=, z=A"
