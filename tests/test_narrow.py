import random
from itertools import product

import pytest

import reference
from wordeq.core import ACCEPTED, CONTRADICTION, Equation, SystemState, eps, prepend_letter, prepend_var
from wordeq.graph import Budget, build
from wordeq.narrow import compatible_narrowings, step
from wordeq.oracle import brute_solutions, satisfies, system_variables
from wordeq.rewrite import Scheme, reduce
from wordeq.solutions import enumerate_solutions
from wordeq.witness import verify
from reference import apply_to_state, brute_solutions_over, left_split, right_split

E = Equation


def state(*eqs):
    return SystemState.of(eqs)


def test_compatible_narrowings_var_var():
    result = compatible_narrowings(state(E("xAy", "yAx")))
    assert result == (eps("x"), eps("y"), prepend_var("x", "y"), prepend_var("y", "x"))


def test_compatible_narrowings_letter_var():
    assert compatible_narrowings(state(E("Axy", "xyA"))) == (eps("x"), prepend_letter("x", "A"))
    assert compatible_narrowings(state(E("xyA", "Axy"))) == (eps("x"), prepend_letter("x", "A"))


def test_compatible_narrowings_empty_side():
    assert compatible_narrowings(state(E("xy", ""))) == (eps("x"),)
    assert compatible_narrowings(state(E("", "yB"))) == (eps("y"),)


def test_compatible_narrowings_dead_end():
    assert compatible_narrowings(state(E("B", ""))) == ()
    assert compatible_narrowings(state(E("Bx", "Ay"))) == ()


def test_compatible_narrowings_errors():
    with pytest.raises(ValueError):
        compatible_narrowings(ACCEPTED)
    with pytest.raises(ValueError):
        compatible_narrowings(SystemState.of([]))
    with pytest.raises(ValueError):
        compatible_narrowings(state(E("", "")))


def test_narrowing_table_per_first_term_pair():
    # The table is cached per pair of first terms: each pair gives the plain
    # computation's tuple, and every state with that pair the same object.
    for p, q in product(["", "A", "B", "x", "y"], repeat=2):
        if p == q:  # a trivial or unreduced first equation: no simplify output
            continue
        got = compatible_narrowings(state(E(p, q)))
        assert got == reference.compatible_narrowings(state(E(p, q))), (p, q)
        longer = state(E(p and p + "xAy", q and q + "yBx"), E("xy", "yx"))
        assert compatible_narrowings(longer) is got
        assert compatible_narrowings(state(E(p, q))) is got
    # the checks on the state itself still run on every call
    for bad in (ACCEPTED, CONTRADICTION, SystemState.of([]), state(E("", "")), state(E("", ""), E("x", "A"))):
        with pytest.raises(ValueError):
            compatible_narrowings(bad)
    # and the verifier still refuses a step the table does not hold
    assert verify((eps("x"), eps("y")), [E("Axy", "xyA")], Scheme.COUNT)
    assert not verify((prepend_var("x", "y"), eps("x"), eps("y")), [E("Axy", "xyA")], Scheme.COUNT)


def test_narrowings_pairwise_distinct():
    rng = random.Random(20)
    for _ in range(500):
        terms = "AB" + "xyz"[: rng.randint(1, 3)]
        e = reduce(
            E(
                "".join(rng.choice(terms) for _ in range(rng.randint(0, 5))),
                "".join(rng.choice(terms) for _ in range(rng.randint(0, 5))),
            )
        )
        if e is None or e == E("", ""):
            continue
        narrowings = compatible_narrowings(state(e))
        assert len(set(narrowings)) == len(narrowings)


def test_step():
    assert step(state(E("Axy", "xyA")), eps("x"), Scheme.BASE) == state(E("Ay", "yA"))
    assert step(state(E("xAy", "yAx")), prepend_var("x", "y"), Scheme.BASE) == state(
        E("xAy", "Ayx")
    )
    result = step(
        state(E("yBz", "zy"), E("xxA", "Axx")), prepend_var("z", "y"), Scheme.SPLIT
    )
    assert result == state(E("Byz", "zy"), E("xxA", "Axx"))


def test_step_equals_substitute_then_simplify():
    # the untouched-equation fast path must agree with the definition
    from wordeq.rewrite import simplify

    rng = random.Random(24)
    checked = 0
    for _ in range(400):
        terms = "AB" + "xyz"[: rng.randint(1, 3)]
        system = [
            E(
                "".join(rng.choice(terms) for _ in range(rng.randint(0, 5))),
                "".join(rng.choice(terms) for _ in range(rng.randint(0, 5))),
            )
            for _ in range(rng.randint(1, 3))
        ]
        schemes = (Scheme.SPLIT, Scheme.COUNT) + ((Scheme.BASE,) if len(system) == 1 else ())
        for scheme in schemes:
            parent = simplify(scheme, SystemState.of(system))
            if not parent.is_eqs or not parent.equations:
                continue
            first = parent.equations[0]
            if not first.lhs and not first.rhs:
                continue
            for n in compatible_narrowings(parent):
                checked += 1
                assert step(parent, n, scheme) == simplify(
                    scheme, apply_to_state(n, parent)
                ), (parent, str(n), scheme)
    assert checked > 300


def test_step_soundness():
    # a solution of the child, extended by the narrowing, solves the parent
    rng = random.Random(21)
    checked = 0
    for _ in range(300):
        terms = "AB" + "xy"[: rng.randint(1, 2)]
        e = reduce(
            E(
                "".join(rng.choice(terms) for _ in range(rng.randint(1, 5))),
                "".join(rng.choice(terms) for _ in range(rng.randint(1, 5))),
            )
        )
        if e is None or e == E("", ""):
            continue
        parent = state(e)
        for n in compatible_narrowings(parent):
            child = step(parent, n, Scheme.BASE)
            if not child.is_eqs:
                continue
            variables = system_variables([e])
            for sol in brute_solutions_over(list(child.equations), "AB", 2, variables):
                values = dict(sol.items)
                extended = dict(values)
                if not n.target:
                    extended[n.var] = ""
                elif n.target.isupper():
                    extended[n.var] = n.target + values[n.var]
                else:
                    extended[n.var] = values[n.target] + values[n.var]
                checked += 1
                assert satisfies([e], extended), (e, str(n), sol)
    assert checked > 100


def test_exhaustive_narrowings_recover_oracle_solutions():
    # bounded path enumeration finds every bounded oracle solution,
    # including the ones the unmodified length-comparison rules miss
    rng = random.Random(22)
    fixed = [
        [E("xy", "yx")],
        [E("Axy", "xyA")],
        [E("xAy", "yAx")],
        [E("xA", "Ax")],
    ]
    sampled = []
    while len(sampled) < 30:
        terms = "AB" + "xy"[: rng.randint(1, 2)]
        e = E(
            "".join(rng.choice(terms) for _ in range(rng.randint(1, 6))),
            "".join(rng.choice(terms) for _ in range(rng.randint(1, 6))),
        )
        sampled.append([e])
    for system in fixed + sampled:
        outcome = build(system, Scheme.BASE, Budget(max_nodes=3000))
        if not outcome.complete:
            continue
        found = enumerate_solutions(outcome.graph, 2, 24, "AB")
        want = brute_solutions(system, "AB", 2)
        assert want <= found, system


def test_example_one_regression():
    # x=A, y=eps for xy=yx is reachable with the modified erase rule
    outcome = build([E("xy", "yx")], Scheme.BASE, Budget(max_nodes=1000))
    found = enumerate_solutions(outcome.graph, 1, 12, "A")
    assert ("x", "A") in {tuple(s.items[0]) for s in found if s.items[1] == ("y", "")}


def test_length_monotonicity_for_var_permutated_sides():
    # non-erasing steps never shrink a reduced, var-permutated-sided
    # equation that has no var-permutated proper prefixes or suffixes
    rng = random.Random(23)
    checked = 0
    for _ in range(4000):
        terms = "AB" + "xyz"[: rng.randint(1, 3)]
        lhs = [rng.choice(terms) for _ in range(rng.randint(2, 7))]
        rhs = lhs[:]
        rng.shuffle(rhs)
        e = reduce(E("".join(lhs), "".join(rhs)))
        if e is None or e == E("", ""):
            continue
        split = left_split(e)
        if split is not None and split[1] != E("", ""):
            continue
        if right_split(e) is not None:
            continue
        parent = state(e)
        for n in compatible_narrowings(parent):
            if not n.target:
                continue
            child = step(parent, n, Scheme.BASE)
            if child.is_eqs:
                checked += 1
                first = child.equations[0]
                assert len(first.lhs) + len(first.rhs) >= len(e.lhs) + len(e.rhs), (e, str(n))
    assert checked > 100
