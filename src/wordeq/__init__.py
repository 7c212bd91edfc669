"""Word-equation satisfiability via narrowing-based solution graphs."""

from .core import (
    ACCEPTED,
    CONTRADICTION,
    Equation,
    Narrowing,
    SystemState,
    apply_to_word,
    compose_value,
    eps,
    prepend_letter,
    prepend_var,
)
from .graph import SAT, UNKNOWN, UNSAT, Budget, build, to_dot, verdict
from .oracle import brute_solutions
from .parse import parse_program, parse_system, serialize_program, serialize_system
from .rewrite import Scheme, simplify
from .solutions import Solution, enumerate_solutions, min_witness, path_solution
from .witness import verify

__all__ = [
    "ACCEPTED",
    "CONTRADICTION",
    "Budget",
    "Equation",
    "Narrowing",
    "SAT",
    "Scheme",
    "Solution",
    "SystemState",
    "UNKNOWN",
    "UNSAT",
    "apply_to_word",
    "brute_solutions",
    "build",
    "compose_value",
    "enumerate_solutions",
    "eps",
    "min_witness",
    "parse_program",
    "parse_system",
    "path_solution",
    "prepend_letter",
    "prepend_var",
    "serialize_program",
    "serialize_system",
    "simplify",
    "to_dot",
    "verdict",
    "verify",
]
