import random

import pytest

from wordeq.core import Equation, eps, prepend_letter, prepend_var
from wordeq.parse import (
    ParseError,
    parse_program,
    parse_system,
    serialize_program,
    serialize_system,
)

E = Equation


def test_parse_system():
    assert parse_system("x A y = y A x") == [E("xAy", "yAx")]
    assert parse_system("=") == [E("", "")]
    assert parse_system("xAy=yAx") == [E("xAy", "yAx")]


def test_parse_system_multiline_comments_crlf():
    text = "# header\r\ny B z = z y  # loop\r\n\r\nx x A = A x x\r\n"
    assert parse_system(text) == [E("yBz", "zy"), E("xxA", "Axx")]


def test_parse_system_errors():
    with pytest.raises(ParseError) as err:
        parse_system("x$y = y")
    assert err.value.column == 2 and err.value.line == 1

    with pytest.raises(ParseError):
        parse_system("x y y")  # missing '='
    with pytest.raises(ParseError):
        parse_system("x = y = z")  # duplicate '='
    with pytest.raises(ParseError):
        parse_system("")  # empty file
    with pytest.raises(ParseError):
        parse_system("# only a comment\n")


@pytest.mark.parametrize("text, want", [
    ("x = y = $", ("duplicate '='", 1, 7)),  # the first offending character, not the worst
    ("x $ = y = z", ("illegal character '$'", 1, 3)),
    ("A x = = x", ("duplicate '='", 1, 7)),
    ("\n\nx y = é", ("illegal character 'é'", 3, 7)),
    ("x\t=\xa0y", [E("x", "y")]),  # any whitespace separates terms
    ("x = y # a = b $", [E("x", "y")]),  # nothing after '#' is read
    ("x\u3000y = A\u3000B", [E("xy", "AB")]),  # non-ASCII whitespace between terms
    ("x A = y $", ("illegal character '$'", 1, 9)),  # after a valid '='
    ("x = y = z # a = b", ("duplicate '='", 1, 7)),  # before a comment
])
def test_parse_system_reports_the_first_offending_character(text, want):
    if isinstance(want, list):
        assert parse_system(text) == want
        return
    message, line, column = want
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (str(err.value), err.value.line, err.value.column) == (f"line {line}, column {column}: {message}", line, column)


def test_parse_program():
    assert parse_program("x -> A x\nx ->") == (prepend_letter("x", "A"), eps("x"))
    assert parse_program("y -> x y") == (prepend_var("y", "x"),)
    assert parse_program("") == ()


def test_parse_program_errors():
    with pytest.raises(ParseError):
        parse_program("x -> x x")
    with pytest.raises(ParseError):
        parse_program("x -> A y")  # tail must repeat the head variable
    with pytest.raises(ParseError):
        parse_program("x A x")  # missing arrow
    with pytest.raises(ParseError):
        parse_program("X -> A X")
    with pytest.raises(ParseError):
        parse_program("x -> $ x")


def test_one_term_rule_for_both_formats():
    # str.isalpha and str.islower accept any Unicode letter; terms are A-Z and a-z only
    for text in ("x -> Ä x", "é -> A é", "\n# note\nx -> é x"):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert err.value.line == text.count("\n") + 1
    with pytest.raises(ParseError):
        parse_system("x Ä = A x")


def test_serialize_system():
    assert serialize_system([E("", "")]) == "="
    assert serialize_system([E("yBz", "zy"), E("xxA", "Axx")]) == "y B z = z y\nx x A = A x x"
    assert serialize_system([E("x", "")]) == "x ="
    assert serialize_system([E("", "x")]) == "= x"


def test_serialize_program():
    assert serialize_program((eps("x"),)) == "x ->"
    assert serialize_program((prepend_letter("x", "A"), prepend_var("y", "x"))) == (
        "x -> A x\ny -> x y"
    )


def test_round_trip():
    rng = random.Random(60)
    for _ in range(300):
        system = [
            E(
                "".join(rng.choice("ABxyz") for _ in range(rng.randint(0, 6))),
                "".join(rng.choice("ABxyz") for _ in range(rng.randint(0, 6))),
            )
            for _ in range(rng.randint(1, 3))
        ]
        text = serialize_system(system)
        assert parse_system(text) == system
        assert serialize_system(parse_system(text)) == text

        pool = [eps("x"), eps("y"), prepend_letter("x", "A"), prepend_var("y", "x")]
        program = tuple(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        assert parse_program(serialize_program(program)) == program


def test_parse_accepts_sloppy_spacing():
    assert parse_system("  xA y   =yAx  ") == [E("xAy", "yAx")]
    assert parse_program("  x   ->   A    x ") == (prepend_letter("x", "A"),)
