import random

import pytest

from wordeq.core import (
    ACCEPTED,
    CONTRADICTION,
    Equation,
    Narrowing,
    SystemState,
    apply_to_word,
    MAX_GROUND_WORDS,
    eps,
    ground_words,
    letter_count,
    prepend_letter,
    prepend_var,
)
from generators import classify
from reference import apply_to_state, compose_value, count_occurrences, erase_letters, is_var_permutated


def test_count_occurrences():
    assert count_occurrences("xzxBy", "x") == 2
    assert count_occurrences("", "x") == 0
    assert count_occurrences("AAB", "A") == 2


def test_letter_count():
    assert letter_count("yBz") == 1
    assert letter_count("") == 0
    assert letter_count("xy") == 0


def test_erase_letters():
    assert erase_letters("ABxxyy") == "xxyy"
    assert erase_letters("") == ""
    assert erase_letters("AAB") == ""


def test_erase_letters_idempotent_and_monotone():
    rng = random.Random(1)
    for _ in range(500):
        w = "".join(rng.choice("ABxyz") for _ in range(rng.randint(0, 10)))
        erased = erase_letters(w)
        assert erase_letters(erased) == erased
        assert len(erased) <= len(w)


def test_is_var_permutated():
    assert is_var_permutated("xA", "Ax")
    assert is_var_permutated("", "")
    assert not is_var_permutated("xy", "yxA")


def test_is_var_permutated_is_equivalence():
    rng = random.Random(2)
    words = [
        "".join(rng.choice("ABxy") for _ in range(rng.randint(0, 4))) for _ in range(60)
    ]
    for w in words:
        assert is_var_permutated(w, w)
    for _ in range(2000):
        a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
        assert is_var_permutated(a, b) == is_var_permutated(b, a)
        if is_var_permutated(a, b) and is_var_permutated(b, c):
            assert is_var_permutated(a, c)


def test_apply_to_word():
    assert apply_to_word(prepend_letter("x", "A"), "xAy") == "AxAy"
    assert apply_to_word(eps("x"), "yB") == "yB"
    assert apply_to_word(prepend_var("x", "y"), "xx") == "yxyx"


def test_apply_to_word_lengths():
    rng = random.Random(3)
    for _ in range(500):
        w = "".join(rng.choice("ABxyz") for _ in range(rng.randint(0, 8)))
        occurrences = count_occurrences(w, "x")
        assert count_occurrences(apply_to_word(eps("x"), w), "x") == 0
        assert len(apply_to_word(eps("x"), w)) == len(w) - occurrences
        assert len(apply_to_word(prepend_letter("x", "A"), w)) == len(w) + occurrences
        assert len(apply_to_word(prepend_var("x", "y"), w)) == len(w) + occurrences


def test_apply_to_state():
    state = SystemState.of([Equation("xzxBy", "Azz"), Equation("yxBzy", "Ayzzz")])
    applied = apply_to_state(eps("x"), state)
    assert applied.equations == (Equation("zBy", "Azz"), Equation("yBzy", "Ayzzz"))

    assert apply_to_state(eps("x"), SystemState.of([])).equations == ()

    same = apply_to_state(prepend_letter("y", "B"), SystemState.of([Equation("y", "y")]))
    assert same.equations == (Equation("By", "By"),)


def test_apply_to_state_rejects_leaf_states():
    with pytest.raises(ValueError):
        apply_to_state(eps("x"), ACCEPTED)
    with pytest.raises(ValueError):
        apply_to_state(eps("x"), CONTRADICTION)


def test_compose_value():
    assert compose_value([prepend_letter("x", "A"), eps("x")], "x") == "A"
    assert compose_value([], "x") == "x"
    program = [prepend_var("x", "y"), prepend_letter("y", "A"), eps("x"), eps("y")]
    assert compose_value(program, "x") == "A"


def test_compose_value_concatenation():
    rng = random.Random(4)
    pool = [eps("x"), eps("y"), prepend_letter("x", "A"), prepend_letter("y", "B"),
            prepend_var("x", "y"), prepend_var("y", "x")]
    for _ in range(300):
        p1 = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        p2 = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        for x in "xy":
            split = compose_value(p1, x)
            for n in p2:
                split = apply_to_word(n, split)
            assert compose_value(p1 + p2, x) == split


def test_ground_words():
    assert ground_words("BA", 2) == ["", "A", "B", "AA", "AB", "BA", "BB"]
    # the cap counts letters: 14 * 2^16 + 2 of them up to length 15 over AB,
    # 1413 * 1414 / 2 up to length 1413 over A
    assert len(ground_words("AB", 15)) == 2**16 - 1
    assert len(ground_words("A", 1413)) == 1414
    for alphabet, max_len in (("AB", 16), ("A", 1414), ("A", 10**9)):
        with pytest.raises(ValueError, match=f"more than {MAX_GROUND_WORDS} letters"):
            ground_words(alphabet, max_len)
    # no letters, no words but the empty one, however large the bound
    assert ground_words("", 10**9) == [""]


def test_narrowing_construction():
    for var, target in (("x", "x"), ("x", "A")):
        with pytest.raises(ValueError):
            prepend_var(var, target)
    with pytest.raises(ValueError):
        Narrowing("X", "")
    with pytest.raises(ValueError):
        prepend_letter("x", "y")
    for var, target in (("é", ""), ("x", "Ä"), ("x", "é"), ("xy", "")):
        with pytest.raises(ValueError):
            Narrowing(var, target)
    assert str(eps("x")) == "x ->"
    assert str(prepend_letter("x", "A")) == "x -> A x"


def test_classify():
    assert classify(Equation("xAy", "yAx")).quadratic
    flags = classify(Equation("Axx", "xxA"))
    assert flags.strictly_regular_ordered_rep and not flags.quadratic
    ground = classify(Equation("ABAB", "ABAB"))
    assert ground.quadratic and ground.strictly_regular_ordered_rep
    assert ground.one_variable


def test_state_invariants():
    with pytest.raises(ValueError):
        SystemState(ACCEPTED.kind, (Equation("x", "y"),))
    assert ACCEPTED.is_accepted and not ACCEPTED.is_eqs
    assert CONTRADICTION.is_contradiction


def test_state_hash_and_equality():
    a = SystemState.of([Equation("xA", "Ax"), Equation("y", "B")])
    b = SystemState.of((Equation("xA", "Ax"), Equation("y", "B")))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != SystemState.of([Equation("y", "B"), Equation("xA", "Ax")])
    # the leaf states share a hash but stay distinct
    assert ACCEPTED != CONTRADICTION
    assert len({ACCEPTED, CONTRADICTION, SystemState.of([])}) == 3
