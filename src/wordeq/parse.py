"""
Text formats for equation systems (.eq) and narrowing programs (.nar).

One equation per line, terms separated by whitespace, ``=`` between the
sides, ``#`` starts a comment.  Uppercase A-Z are letters, lowercase a-z
are variables.  Narrowing programs hold one step per line in the forms
``x -> A x``, ``x -> y x`` and ``x ->``.

Serialization is the exact inverse and produces the canonical form used
for node labels: single spaces between terms, no trailing whitespace.
"""

from __future__ import annotations

import string
from typing import List

from .core import TERMS, Equation, Narrowing, Program

_DROP_SYNTAX = str.maketrans("", "", "".join(TERMS) + string.whitespace)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        where = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{where}: {message}")


def parse_system(text: str) -> List[Equation]:
    equations: List[Equation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if not line.strip():
            continue
        lhs, sign, rhs = line.partition("=")
        if not sign:
            raise ParseError("missing '='", lineno)
        if line.translate(_DROP_SYNTAX) != "=":  # else only terms, ASCII whitespace and one '='
            for col, ch in enumerate(line):  # the first character that is not a term, whitespace or the '=' split on
                if ch not in TERMS and not ch.isspace() and col != len(lhs):
                    raise ParseError("duplicate '='" if ch == "=" else f"illegal character {ch!r}", lineno, col + 1)
        equations.append(Equation("".join(lhs.split()), "".join(rhs.split())))
    if not equations:
        raise ParseError("no equations found", 1)
    return equations


def parse_program(text: str) -> Program:
    steps: List[Narrowing] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        head, arrow, tail = line.partition("->")
        if not arrow:
            raise ParseError("missing '->'", lineno)
        head = head.strip()
        terms = tail.split()
        if terms and (len(terms) != 2 or terms[1] != head):
            raise ParseError(f"bad replacement {tail.strip()!r}", lineno)
        try:
            steps.append(Narrowing(head, terms[0] if terms else ""))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return tuple(steps)


def serialize_equation(e: Equation) -> str:
    lhs, rhs = e
    return " ".join([*lhs, "=", *rhs])


def serialize_system(equations: List[Equation]) -> str:
    return "\n".join(serialize_equation(e) for e in equations)


def serialize_program(p: Program) -> str:
    return "\n".join(str(n) for n in p)
