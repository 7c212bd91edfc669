"""
Seeded instance generators for the equation classes with termination
guarantees, and the class predicates they are checked against.

A quadratic equation has every variable at most twice; a strictly
regular-ordered equation with repetitions (``sro_rep``) has the same
variable sequence on both sides once letters are erased; a one-variable
equation has at most one variable.  ``benchmarks/make_instances.py`` keeps
generators of its own.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import List

from reference import erase_letters
from wordeq.core import Equation


@dataclass(frozen=True)
class EquationClass:
    quadratic: bool
    strictly_regular_ordered_rep: bool
    one_variable: bool


def classify(e: Equation) -> EquationClass:
    """Membership flags for the equation classes with termination guarantees."""
    counts = Counter(erase_letters(e.lhs) + erase_letters(e.rhs))
    return EquationClass(
        quadratic=all(k <= 2 for k in counts.values()),
        strictly_regular_ordered_rep=erase_letters(e.lhs) == erase_letters(e.rhs),
        one_variable=len(counts) <= 1,
    )


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
