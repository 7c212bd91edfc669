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

from typing import List, Tuple

from .core import TERMS, Equation, Narrowing, Program


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
        if "=" not in line:
            raise ParseError("missing '='", lineno)
        sides: Tuple[List[str], List[str]] = ([], [])
        side = 0
        for col, ch in enumerate(line, start=1):
            if ch.isspace():
                continue
            if ch == "=":
                side += 1
                if side > 1:
                    raise ParseError("duplicate '='", lineno, col)
                continue
            if ch not in TERMS:
                raise ParseError(f"illegal character {ch!r}", lineno, col)
            sides[side].append(ch)
        equations.append(Equation("".join(sides[0]), "".join(sides[1])))
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
    return " ".join([*e.lhs, "=", *e.rhs])


def serialize_system(equations: List[Equation]) -> str:
    return "\n".join(serialize_equation(e) for e in equations)


def serialize_program(p: Program) -> str:
    return "\n".join(str(n) for n in p)
