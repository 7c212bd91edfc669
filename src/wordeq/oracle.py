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

from .core import MAX_GROUND_WORDS, Equation, Word, check_alphabet, ground_words, system_letters, system_variables
from .solutions import Solution


def satisfies(system: Sequence[Equation], assignment: Dict[str, Word]) -> bool:
    """Direct substitution check: both sides textually equal, every equation."""
    table = str.maketrans(assignment)
    return all(lhs.translate(table) == rhs.translate(table) for lhs, rhs in system)


def brute_solutions(
    system: Sequence[Equation],
    alphabet: Optional[Sequence[str]],
    max_value_len: int,
) -> Set[Solution]:
    """All ground solutions with value lengths up to the bound.

    ``alphabet`` ``None`` means the system's own letters.  No letters, a
    symbol other than a letter A-Z, a negative bound, and more than
    ``MAX_GROUND_WORDS`` letters in the ground words or assignments to try
    raise ``ValueError``.
    """
    if max_value_len < 0:
        raise ValueError("the value bound must not be negative")
    if alphabet is None:
        alphabet = system_letters(system)
    if not alphabet:
        raise ValueError("no letters given: the alphabet is empty")
    names = system_variables(system)
    words = ground_words(check_alphabet(alphabet), max_value_len)
    if len(words) ** len(names) > MAX_GROUND_WORDS:
        raise ValueError(f"more than {MAX_GROUND_WORDS} assignments to try; "
                         "lower the value bound or use fewer letters")
    out: Set[Solution] = set()
    for values in product(words, repeat=len(names)):
        assignment = dict(zip(names, values))
        if satisfies(system, assignment):
            out.add(Solution.of(assignment))
    return out
