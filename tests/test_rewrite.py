import random

import pytest

from wordeq import rewrite
from wordeq.core import ACCEPTED, CONTRADICTION, Equation, SystemState, eps, prepend_letter
from wordeq.graph import Budget, build
from wordeq.oracle import system_variables
from wordeq.parse import parse_system
from wordeq.rewrite import (
    Scheme,
    _unfold,
    count_unsat,
    reduce,
    simplify,
    simplify_equation,
)
from reference import brute_solutions_over, is_var_permutated, left_split, right_split, split_pieces

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
        want = brute_solutions_over([e], "AB", 2, variables)
        for split in (left_split(e), right_split(e)):
            if split is None:
                continue
            checked += 1
            system = [p for p in split if p != E("", "")]
            assert brute_solutions_over(system, "AB", 2, variables) == want
    assert checked > 20


def test_repeated_pieces_are_checked_once(monkeypatch):
    # (xz)^300 = (zx)^300 splits into 300 copies of x z = z x; the label
    # keeps one, and the counting check runs once, on the reduced equation
    # before it is split
    checked = []
    check = rewrite.count_unsat
    monkeypatch.setattr(rewrite, "count_unsat", lambda e: checked.append(e) or check(e))
    assert simplify_equation(Scheme.COUNT, E("xz" * 300, "zx" * 300)) == [E("xz", "zx")]
    assert checked == [E("xz" * 300, "zx" * 300)]


def test_a_count_refuted_equation_is_not_split(monkeypatch):
    # x y A = y x has one more letter on the left and the same variables:
    # the check refutes it before any split scan
    calls = []
    scan = rewrite._split_scan
    monkeypatch.setattr(rewrite, "_split_scan", lambda *args: calls.append(args) or scan(*args))
    assert simplify_equation(Scheme.COUNT, E("xyA", "yx")) is None
    assert calls == []
    assert simplify_equation(Scheme.SPLIT, E("xyA", "yx")) == [E("A", ""), E("xy", "yx")]  # split, unchecked
    assert calls


def test_repeated_pieces_are_scanned_once(monkeypatch):
    # the 299 copies that follow the first x z = z x are skipped unscanned
    calls = []
    scan = rewrite._split_scan
    monkeypatch.setattr(rewrite, "_split_scan", lambda *args: calls.append(args) or scan(*args))
    for scheme in (Scheme.SPLIT, Scheme.COUNT):
        calls.clear()
        assert simplify_equation(scheme, E("xz" * 300, "zx" * 300)) == [E("xz", "zx")]
        assert len(calls) <= 2, scheme


def test_whole_window_split_returns_the_equation(monkeypatch):
    # the shortest var-permutated prefix pair of B z^300 = z^300 B is both
    # whole sides: one scan, then no copy skip, strip or right scan
    e = E("B" + "z" * 300, "z" * 300 + "B")
    calls = []
    scan, strip = rewrite._split_scan, rewrite._strip
    monkeypatch.setattr(rewrite, "_split_scan", lambda *args: calls.append(args) or scan(*args))
    monkeypatch.setattr(rewrite, "_strip", lambda *args: calls.append(args) or strip(*args))
    assert simplify_equation(Scheme.COUNT, e) == [e]
    assert calls == [(e.lhs, e.rhs, 0, 301)]
    for scheme in (Scheme.SPLIT, Scheme.COUNT):
        assert rewrite._split_pieces(scheme, e) == list(dict.fromkeys(split_pieces(scheme, e))) == [E("", ""), e]


# the systems of the long_labels benchmark workload
LONG_LABEL_SYSTEMS = [
    "x B x = A y x x y y",
    "z A B = x z x z\nx A A x x = A A x B",
    "x z A z y y = A B z A A",
    "x A z B z x = z x y B A\nx z A B = z z",
]


def test_no_one_term_window_is_scanned(monkeypatch):
    # A one-term window holds the first (or last) terms of a remainder that
    # was just reduced: they differ and are not both letters, so it never
    # splits.  The graphs are those of the reference split loop, which tries
    # every prefix length.
    def reference_pieces(scheme, e):
        pieces = split_pieces(scheme, e)
        return None if pieces is None else list(dict.fromkeys(pieces))

    def graph(system, scheme):
        g = build(system, scheme, Budget(max_nodes=300)).graph
        return g.labels, g.expanded, g.firsts, g.folds, g.witness

    calls = []
    scan = rewrite._split_scan
    for text in LONG_LABEL_SYSTEMS:
        system = parse_system(text)
        for scheme in (Scheme.SPLIT, Scheme.COUNT):
            with monkeypatch.context() as m:
                m.setattr(rewrite, "_split_pieces", reference_pieces)
                want = graph(system, scheme)
            with monkeypatch.context() as m:
                m.setattr(rewrite, "_split_scan", lambda *args: calls.append(args) or scan(*args))
                assert graph(system, scheme) == want, (text, scheme)
    assert len(calls) > 1000
    assert all(n >= 2 for _, _, _, n in calls)


def test_a_contradiction_leaves_the_keys_simplified_before_it_in_the_memo():
    # x -> A x keeps x A = A x and clashes B against A in x B = B y: the
    # first equation's pieces are kept with the clash
    s = simplify(Scheme.COUNT, SystemState.of([E("xA", "Ax"), E("xB", "By")]))
    assert s.equations == (E("xA", "Ax"), E("xB", "By"))
    memo = {}
    assert _unfold(Scheme.COUNT, s, prepend_letter("x", "A"), memo) is CONTRADICTION
    assert memo == {(E("xA", "Ax"), "x", "A"): [E("xA", "Ax")], (E("xB", "By"), "x", "A"): None}
    # a label that is kept writes the key of every equation it substitutes
    assert _unfold(Scheme.COUNT, s, eps("x"), memo) == _unfold(Scheme.COUNT, s, eps("x"))
    assert set(memo) == {(E("xA", "Ax"), "x", "A"), (E("xB", "By"), "x", "A"), (E("xA", "Ax"), "x", ""),
                         (E("xB", "By"), "x", "")}


# x y^8 A = A y^8 x and x A = A x survive x -> A x, x B = B y clashes under
# it, and y A = A y is left untouched
LONG = E("xyyyyyyyyA", "Ayyyyyyyyx")
X_TO_AX = prepend_letter("x", "A")


def simplified_equations(monkeypatch):
    """The equations ``simplify_equation`` receives from here on."""
    calls = []
    simplify_equation = rewrite.simplify_equation
    monkeypatch.setattr(rewrite, "simplify_equation", lambda scheme, eq: calls.append(eq) or simplify_equation(scheme, eq))
    return calls


def test_misses_are_simplified_in_label_order_up_to_a_contradiction(monkeypatch):
    # the longer equation comes first and is simplified first; the one after
    # the contradiction is not simplified
    s = simplify(Scheme.COUNT, SystemState.of([LONG, E("xB", "By"), E("xA", "Ax")]))
    assert s.equations == (LONG, E("xB", "By"), E("xA", "Ax"))
    long_substituted = E(LONG.lhs.replace("x", "Ax"), LONG.rhs.replace("x", "Ax"))
    long_pieces = simplify_equation(Scheme.COUNT, long_substituted)
    calls, memo = simplified_equations(monkeypatch), {}
    assert _unfold(Scheme.COUNT, s, X_TO_AX, memo) is CONTRADICTION
    assert calls == [long_substituted, E("AxB", "By")]
    assert memo == {(LONG, "x", "A"): long_pieces, (E("xB", "By"), "x", "A"): None}


def test_a_known_contradiction_ends_the_unfold_before_any_simplification(monkeypatch):
    # the contradiction is the last touched equation, after an equation the
    # memo lacks
    s = simplify(Scheme.COUNT, SystemState.of([LONG, E("yA", "Ay"), E("xB", "By")]))
    assert s.equations == (LONG, E("yA", "Ay"), E("xB", "By"))
    memo = {(E("xB", "By"), "x", "A"): None}
    calls = simplified_equations(monkeypatch)
    assert _unfold(Scheme.COUNT, s, X_TO_AX, memo) is CONTRADICTION
    assert calls == []
    assert memo == {(E("xB", "By"), "x", "A"): None}


def test_pieces_of_misses_simplified_in_label_order_keep_label_order(monkeypatch):
    # the untouched y A = A y stays between the two substituted equations
    s = simplify(Scheme.COUNT, SystemState.of([LONG, E("yA", "Ay"), E("xA", "Ax")]))
    assert s.equations == (LONG, E("yA", "Ay"), E("xA", "Ax"))
    substituted = [E(e.lhs.replace("x", "Ax"), e.rhs.replace("x", "Ax")) for e in (LONG, E("xA", "Ax"))]
    long_pieces, short_pieces = (simplify_equation(Scheme.COUNT, e) for e in substituted)
    assert long_pieces == [E("xyyyyyyyyA", "yyyyyyyyAx")] and short_pieces == [E("xA", "Ax")]
    calls, memo = simplified_equations(monkeypatch), {}
    label = _unfold(Scheme.COUNT, s, X_TO_AX, memo)
    assert label == SystemState.of(long_pieces + [E("yA", "Ay")] + short_pieces) == _unfold(Scheme.COUNT, s, X_TO_AX)
    assert calls == substituted * 2  # label order, with this memo and with a throwaway one
    assert memo == {(LONG, "x", "A"): long_pieces, (E("xA", "Ax"), "x", "A"): short_pieces}


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
            assert not brute_solutions_over([e], "AB", 4, system_variables([e]) or ["x"])
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
        want = brute_solutions_over([e], "AB", 3, variables)
        for scheme in (Scheme.SPLIT, Scheme.COUNT):
            result = simplify(scheme, SystemState.of([e]))
            if result is ACCEPTED:
                got = brute_solutions_over([], "AB", 3, variables)
            elif result is CONTRADICTION:
                got = set()
            else:
                got = brute_solutions_over(list(result.equations), "AB", 3, variables)
            assert got == want, (e, scheme)
