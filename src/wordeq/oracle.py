"""
Brute-force ground-truth solver.

The oracle enumerates every assignment of bounded words to the system's
variables and keeps those making all equations textually equal.  It is
deliberately independent of the narrowing machinery and only meant for
desk-scale validation.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Optional, Sequence, Set

from .core import Equation, Word, ground_words, system_variables
from .solutions import Solution, check_alphabet


def satisfies(system: Sequence[Equation], assignment: Dict[str, Word]) -> bool:
    """Direct substitution check: both sides textually equal, every equation."""
    table = str.maketrans(assignment)
    return all(e.lhs.translate(table) == e.rhs.translate(table) for e in system)


def brute_solutions(
    system: Sequence[Equation],
    alphabet: Sequence[str],
    max_value_len: int,
    variables: Optional[Sequence[str]] = None,
) -> Set[Solution]:
    """All ground solutions with value lengths up to the bound.

    ``variables`` may widen the enumeration to a superset of the system's
    own variables (the extras are unconstrained but still enumerated).  An
    empty alphabet, a symbol other than a letter A-Z, a negative bound and
    ground words of more than ``MAX_GROUND_WORDS`` letters raise ``ValueError``.
    """
    if not alphabet:
        raise ValueError("empty alphabet")
    if max_value_len < 0:
        raise ValueError("the value bound must not be negative")
    names = sorted(variables) if variables is not None else system_variables(system)
    words = ground_words(check_alphabet(alphabet), max_value_len)
    out: Set[Solution] = set()
    for values in product(words, repeat=len(names)):
        assignment = dict(zip(names, values))
        if satisfies(system, assignment):
            out.add(Solution.of(assignment))
    return out
