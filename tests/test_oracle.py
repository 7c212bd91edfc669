import pytest

from wordeq.core import Equation
from wordeq.oracle import brute_solutions, satisfies
from wordeq.parse import parse_system
from wordeq.solutions import Solution
from generators import classify, gen_instance
from reference import brute_solutions_over

E = Equation


def test_brute_solutions_commutation():
    found = brute_solutions([E("xy", "yx")], "A", 1)
    assert found == {
        Solution.of({"x": a, "y": b})
        for a, b in [("", ""), ("A", ""), ("", "A"), ("A", "A")]
    }


def test_brute_solutions_ground_unsat():
    assert brute_solutions([E("AB", "BA")], "AB", 2) == set()


def test_brute_solutions_hard_instance():
    assert brute_solutions([E("ABxxyy", "xxyyBA")], "AB", 2) == set()


def test_brute_sat():
    assert bool(brute_solutions([E("Axy", "xyA")], "A", 1))
    assert not bool(brute_solutions([E("xA", "Bx")], "AB", 3))
    assert bool(brute_solutions([E("", "")], "A", 1))


def test_brute_rejects_non_letter_alphabet():
    for alphabet in ("ab", "A-", ["AB"]):
        with pytest.raises(ValueError, match="is not a letter A-Z"):
            brute_solutions([E("xy", "yx")], alphabet, 1)


def test_brute_rejects_negative_bound():
    with pytest.raises(ValueError, match="must not be negative"):
        brute_solutions([E("xy", "yx")], "A", -1)
    # 255 ground words over AB up to length 7, so 255**3 (16.6 M) assignments
    with pytest.raises(ValueError, match="more than .* assignments"):
        brute_solutions(parse_system("x y z A = A z y x"), "AB", 7)


def test_brute_monotone_in_bound():
    system = [E("xAy", "yAx")]
    previous = set()
    for bound in range(4):
        current = brute_solutions(system, "AB", bound)
        assert previous <= current
        previous = current


def test_satisfies():
    assert satisfies([E("xy", "yx")], {"x": "AA", "y": "A"})
    assert not satisfies([E("xy", "yx")], {"x": "AB", "y": "A"})


def test_brute_variables_superset():
    found = brute_solutions_over([E("x", "A")], "A", 1, ["x", "y"])
    assert found == {
        Solution.of({"x": "A", "y": ""}),
        Solution.of({"x": "A", "y": "A"}),
    }


@pytest.mark.parametrize("kind", ["quadratic", "sro_rep", "one_variable", "random"])
def test_generators_stay_in_class(kind):
    for seed in range(1000):
        system = gen_instance(kind, seed, n_vars=3, length=10)
        assert len(system) == 1
        flags = classify(system[0])
        if kind == "quadratic":
            assert flags.quadratic
        elif kind == "sro_rep":
            assert flags.strictly_regular_ordered_rep
        elif kind == "one_variable":
            assert flags.one_variable


def test_generators_are_deterministic():
    assert gen_instance("random", 7, length=12) == gen_instance("random", 7, length=12)
    with pytest.raises(ValueError):
        gen_instance("nonsense", 1)
