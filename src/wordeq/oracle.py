"""
Brute-force ground-truth solver and seeded instance generators.

The oracle enumerates every assignment of bounded words to the system's
variables and keeps those making all equations textually equal.  It is
deliberately independent of the narrowing machinery and only meant for
desk-scale validation.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Dict, List, Optional, Sequence, Set

from .core import Equation, Word, classify, ground_words
from .solutions import Solution, check_alphabet


def substitute(w: Word, assignment: Dict[str, Word]) -> Word:
    return "".join(assignment.get(c, c) for c in w)


def satisfies(system: Sequence[Equation], assignment: Dict[str, Word]) -> bool:
    """Direct substitution check: both sides textually equal, every equation."""
    return all(substitute(e.lhs, assignment) == substitute(e.rhs, assignment) for e in system)


def system_variables(system: Sequence[Equation]) -> List[str]:
    out = set()
    for e in system:
        out |= e.variables()
    return sorted(out)


def brute_solutions(
    system: Sequence[Equation],
    alphabet: Sequence[str],
    max_value_len: int,
    variables: Optional[Sequence[str]] = None,
) -> Set[Solution]:
    """All ground solutions with value lengths up to the bound.

    ``variables`` may widen the enumeration to a superset of the system's
    own variables (the extras are unconstrained but still enumerated).
    """
    if not alphabet:
        raise ValueError("empty alphabet")
    names = sorted(variables) if variables is not None else system_variables(system)
    words = ground_words(check_alphabet(alphabet), max_value_len)
    out: Set[Solution] = set()
    for values in product(words, repeat=len(names)):
        assignment = dict(zip(names, values))
        if satisfies(system, assignment):
            out.add(Solution.of(assignment))
    return out


VARIABLE_POOL = "xyzuvw"


def gen_instance(
    kind: str,
    seed: int,
    n_vars: int = 3,
    length: int = 8,
    n_eqs: int = 1,
    alphabet: str = "AB",
) -> List[Equation]:
    """Deterministic-in-seed equations of the requested class.

    ``length`` is a rough target for the equation length; the class
    predicate is asserted on the result.
    """
    rng = random.Random(seed)
    gen = {
        "quadratic": _gen_quadratic,
        "sro_rep": _gen_sro_rep,
        "one_variable": _gen_one_variable,
        "random": _gen_random,
    }.get(kind)
    if gen is None:
        raise ValueError(f"unknown instance class {kind!r}")
    system = [gen(rng, n_vars, length, alphabet) for _ in range(n_eqs)]
    for e in system:
        flags = classify(e)
        assert {
            "quadratic": flags.quadratic,
            "sro_rep": flags.strictly_regular_ordered_rep,
            "one_variable": flags.one_variable,
            "random": True,
        }[kind], f"generated instance out of class: {e}"
    return system


def _gen_quadratic(rng: random.Random, n_vars: int, length: int, alphabet: str) -> Equation:
    names = VARIABLE_POOL[: max(1, n_vars)]
    pool = []
    for x in names:
        pool.extend([x] * rng.randint(1, 2))
    pool.extend(rng.choice(alphabet) for _ in range(max(0, length - len(pool))))
    rng.shuffle(pool)
    cut = rng.randint(1, len(pool) - 1) if len(pool) > 1 else 1
    return Equation("".join(pool[:cut]), "".join(pool[cut:]))


def _gen_sro_rep(rng: random.Random, n_vars: int, length: int, alphabet: str) -> Equation:
    names = VARIABLE_POOL[: max(1, n_vars)]
    pattern = [rng.choice(names) for _ in range(max(1, length // 2))]

    def side() -> str:
        out = []
        budget = max(0, length - len(pattern))
        for x in pattern:
            fill = rng.randint(0, 2) if budget else 0
            out.append("".join(rng.choice(alphabet) for _ in range(min(fill, budget))))
            budget -= min(fill, budget)
            out.append(x)
        out.append("".join(rng.choice(alphabet) for _ in range(budget if rng.random() < 0.5 else 0)))
        return "".join(out)

    return Equation(side(), side())


def _gen_one_variable(rng: random.Random, n_vars: int, length: int, alphabet: str) -> Equation:
    terms = alphabet + "x"

    def side(n: int) -> str:
        return "".join(rng.choice(terms) for _ in range(n))

    n = max(2, length)
    cut = rng.randint(1, n - 1)
    return Equation(side(cut), side(n - cut))


def _gen_random(rng: random.Random, n_vars: int, length: int, alphabet: str) -> Equation:
    terms = alphabet + VARIABLE_POOL[: max(1, n_vars)]
    n = max(2, length)
    cut = rng.randint(1, n - 1)
    return Equation(
        "".join(rng.choice(terms) for _ in range(cut)),
        "".join(rng.choice(terms) for _ in range(n - cut)),
    )
