import random

import pytest

from wordeq import rewrite
from wordeq.core import ACCEPTED, CONTRADICTION, Equation, SystemState
from wordeq.oracle import brute_solutions, system_variables
from wordeq.rewrite import (
    Scheme,
    count_unsat,
    reduce,
    simplify,
    simplify_equation,
)
from reference import is_var_permutated, left_split, right_split

E = Equation


def random_equation(rng, n_vars=3, max_side=6, alphabet="AB"):
    terms = alphabet + "xyz"[:n_vars]
    return E(
        "".join(rng.choice(terms) for _ in range(rng.randint(0, max_side))),
        "".join(rng.choice(terms) for _ in range(rng.randint(0, max_side))),
    )


def test_reduce():
    assert reduce(E("xAy", "xAy")) == E("", "")
    assert reduce(E("zyy", "zzz")) == E("yy", "zz")
    assert reduce(E("AxB", "BxA")) is None


def test_reduce_idempotent_and_shrinking():
    rng = random.Random(10)
    for _ in range(2000):
        e = random_equation(rng)
        r = reduce(e)
        if r is None:
            continue
        assert len(r.lhs) + len(r.rhs) <= len(e.lhs) + len(e.rhs)
        assert reduce(r) == r


def test_left_split():
    assert left_split(E("xAyB", "Axxx")) == (E("xA", "Ax"), E("yB", "xx"))
    assert left_split(E("AB", "BA")) is None
    assert left_split(E("yBz", "zy")) is None


def test_left_split_whole_equation():
    # var-permutated sides split into themselves plus a trivial remainder
    assert left_split(E("xxA", "Axx")) == (E("xxA", "Axx"), E("", ""))


def test_exhaustive_left_split():
    # the split scheme left-splits to a fixpoint; trivial pieces are dropped
    split = Scheme.SPLIT
    assert simplify_equation(split, E("yBzy", "Ayzzz")) == [E("y", "zz"), E("yB", "Ay")]
    assert simplify_equation(split, E("", "")) == []
    assert simplify_equation(split, E("zBy", "Azz")) == [E("y", "z"), E("zB", "Az")]


def test_right_split():
    assert right_split(E("", "")) is None
    assert right_split(E("yB", "Ay")) is None
    # proper var-permutated suffixes split off; the pieces stay equivalent
    assert right_split(E("BxA", "AAx")) == (E("B", "A"), E("xA", "Ax"))


def test_split_equivalence_against_oracle():
    # splitting preserves the bounded solution set, tested per split kind
    rng = random.Random(11)
    checked = 0
    for _ in range(900):
        e = reduce(random_equation(rng, max_side=5))
        if e is None or e == E("", ""):
            continue
        variables = system_variables([e])
        if not variables:
            continue
        want = brute_solutions([e], "AB", 2, variables=variables)
        for split in (left_split(e), right_split(e)):
            if split is None:
                continue
            checked += 1
            system = [p for p in split if p != E("", "")]
            assert brute_solutions(system, "AB", 2, variables=variables) == want
    assert checked > 20


def test_repeated_pieces_are_checked_once(monkeypatch):
    # (xz)^300 = (zx)^300 splits into 300 copies of x z = z x; the label
    # keeps one, and the counting check runs once
    checked = []
    check = rewrite.count_unsat
    monkeypatch.setattr(rewrite, "count_unsat", lambda e: checked.append(e) or check(e))
    assert simplify_equation(Scheme.COUNT, E("xz" * 300, "zx" * 300)) == [E("xz", "zx")]
    assert checked == [E("xz", "zx")]


def test_repeated_pieces_are_scanned_once(monkeypatch):
    # the 299 copies that follow the first x z = z x are skipped unscanned
    calls = []
    scan = rewrite._split_scan
    monkeypatch.setattr(rewrite, "_split_scan", lambda *args: calls.append(args) or scan(*args))
    for scheme in (Scheme.SPLIT, Scheme.COUNT):
        calls.clear()
        assert simplify_equation(scheme, E("xz" * 300, "zx" * 300)) == [E("xz", "zx")]
        assert len(calls) <= 2, scheme


def test_count_unsat():
    assert count_unsat(E("yBz", "zy"))
    assert not count_unsat(E("xxA", "Axx"))
    assert not count_unsat(E("", ""))


def test_count_unsat_false_for_var_permutated_sides():
    rng = random.Random(12)
    found = 0
    for _ in range(3000):
        e = random_equation(rng, max_side=5)
        if is_var_permutated(e.lhs, e.rhs):
            found += 1
            assert not count_unsat(e)
    assert found > 50


def test_count_unsat_is_sound():
    rng = random.Random(13)
    hits = 0
    for _ in range(500):
        e = random_equation(rng, max_side=5)
        if count_unsat(e):
            hits += 1
            assert not brute_solutions([e], "AB", 4, variables=system_variables([e]) or ["x"])
    assert hits > 20


def test_simplify_split_example():
    state = SystemState.of([E("zBy", "Azz"), E("yBzy", "Ayzzz")])
    result = simplify(Scheme.SPLIT, state)
    assert result.equations == (E("y", "z"), E("zB", "Az"), E("y", "zz"), E("yB", "Ay"))


def test_simplify_count_contradiction():
    assert simplify(Scheme.COUNT, SystemState.of([E("xxAyBz", "Axxzy")])) is CONTRADICTION


def test_simplify_base():
    assert simplify(Scheme.BASE, SystemState.of([E("AxyA", "AxyA")])) is ACCEPTED
    assert simplify(Scheme.BASE, SystemState.of([E("AxB", "BxA")])) is CONTRADICTION
    assert simplify(Scheme.BASE, SystemState.of([E("zyy", "zzz")])).equations == (E("yy", "zz"),)
    with pytest.raises(ValueError):
        simplify(Scheme.BASE, SystemState.of([E("x", "A"), E("y", "B")]))
    with pytest.raises(ValueError):
        simplify(Scheme.BASE, ACCEPTED)


def test_simplify_output_is_clean():
    # no trivial equations, no sides that start or end with distinct letters
    rng = random.Random(14)
    for _ in range(1500):
        state = SystemState.of(
            [random_equation(rng, max_side=5) for _ in range(rng.randint(1, 2))]
        )
        for scheme in (Scheme.SPLIT, Scheme.COUNT):
            result = simplify(scheme, state)
            if not result.is_eqs:
                continue
            for eq in result.equations:
                assert eq != E("", "")
                reduced = reduce(eq)
                assert reduced == eq


def test_simplify_preserves_solutions():
    rng = random.Random(15)
    for _ in range(250):
        e = random_equation(rng, max_side=4)
        variables = system_variables([e]) or ["x"]
        want = brute_solutions([e], "AB", 3, variables=variables)
        for scheme in (Scheme.SPLIT, Scheme.COUNT):
            result = simplify(scheme, SystemState.of([e]))
            if result is ACCEPTED:
                got = brute_solutions([], "AB", 3, variables=variables)
            elif result is CONTRADICTION:
                got = set()
            else:
                got = brute_solutions(list(result.equations), "AB", 3, variables=variables)
            assert got == want, (e, scheme)
