"""
Core value types for word equations: terms, words, equations, system
states, and the elementary narrowing substitutions.

A term is a single character: the letters ``A``-``Z`` are alphabet
letters, ``a``-``z`` are variables, and a word is a plain string of terms.
Outside input is checked against the sets ``LETTERS``, ``VARIABLES`` and
``TERMS`` (``"é".islower()`` is true); on terms so checked, the code tells a
variable by ``str.islower`` and a letter by ``str.isupper``.
Keeping words as strings makes structural equality, occurrence counting
and substitution cheap, and it guarantees that the serialized node labels
used for folding are canonical by construction.

Everything in this module is an immutable value; all operations are pure
functions and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, NamedTuple, Tuple

Word = str  # a (possibly empty) string of single-character terms

# The term rule of every input: a letter is one of A-Z, a variable one of a-z.
LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
VARIABLES = frozenset("abcdefghijklmnopqrstuvwxyz")
TERMS = LETTERS | VARIABLES


class Equation(NamedTuple):
    lhs: Word
    rhs: Word


EMPTY_EQUATION = Equation("", "")


class StateKind(Enum):
    EQS = "eqs"
    ACCEPTED = "accepted"
    CONTRADICTION = "contradiction"


class SystemState(NamedTuple("_State", [("kind", StateKind), ("equations", Tuple[Equation, ...])])):
    """Label of a solution-graph node: an equation list, or a leaf state.

    The two leaf states carry no equations; they are exposed as the module
    constants ``ACCEPTED`` and ``CONTRADICTION``.
    """

    __slots__ = ()

    def __new__(cls, kind: StateKind, equations: Tuple[Equation, ...] = ()) -> "SystemState":
        if kind is not EQS and equations:
            raise ValueError(f"{kind.value} state carries no equations")
        return tuple.__new__(cls, (kind, equations))

    @staticmethod
    def of(equations: Iterable[Equation]) -> "SystemState":
        return tuple.__new__(SystemState, (EQS, tuple(equations)))  # without __new__'s check: decide 1.04x

    @property
    def is_eqs(self) -> bool:
        return self.kind is EQS

    @property
    def is_accepted(self) -> bool:
        return self.kind is _ACCEPTED

    @property
    def is_contradiction(self) -> bool:
        return self.kind is _CONTRADICTION


EQS, _ACCEPTED, _CONTRADICTION = StateKind  # globals, not class reads: decide 1.05x, long_labels 1.03x
ACCEPTED = SystemState(_ACCEPTED)
CONTRADICTION = SystemState(_CONTRADICTION)


@dataclass(frozen=True)
class Narrowing:
    """An elementary substitution on a single variable.

    ``target`` selects the form: the empty string means ``x -> `` (erase
    x), a letter ``a`` means ``x -> a x``, and a variable ``y`` means
    ``x -> y x``.  The degenerate ``x -> x x`` is rejected.
    """

    var: str
    target: str

    def __post_init__(self) -> None:
        if self.var not in VARIABLES:
            raise ValueError(f"not a variable: {self.var!r}")
        if self.target:
            if self.target not in TERMS:
                raise ValueError(f"not a term: {self.target!r}")
            if self.target == self.var:
                raise ValueError(f"{self.var} -> {self.var} {self.var} is not allowed")

    @property
    def replacement(self) -> Word:
        return self.target + self.var if self.target else ""

    def __str__(self) -> str:
        if not self.target:
            return f"{self.var} ->"
        return f"{self.var} -> {self.target} {self.var}"


def eps(x: str) -> Narrowing:
    return Narrowing(x, "")


def prepend_letter(x: str, a: str) -> Narrowing:
    if a not in LETTERS:
        raise ValueError(f"not a letter: {a!r}")
    return Narrowing(x, a)


def prepend_var(x: str, y: str) -> Narrowing:
    if y not in VARIABLES:
        raise ValueError(f"not a variable: {y!r}")
    return Narrowing(x, y)


Program = Tuple[Narrowing, ...]


def check_alphabet(alphabet: Iterable[str]) -> List[str]:
    """The alphabet's distinct symbols sorted; ``ValueError`` unless each is one letter A-Z."""
    symbols = sorted(set(alphabet))
    for a in symbols:
        if a not in LETTERS:
            raise ValueError(f"alphabet symbol {a!r} is not a letter A-Z")
    return symbols


def system_variables(system: Iterable[Equation]) -> List[str]:
    """The variables of a system, sorted."""
    return sorted({c for lhs, rhs in system for c in lhs + rhs if c.islower()})


def system_letters(system: Iterable[Equation]) -> List[str]:
    """The letters of a system, sorted: the default alphabet of its solutions."""
    return sorted({c for lhs, rhs in system for c in lhs + rhs if c.isupper()})


# The most ground words (and letters in them, assignments or instances) a
# bounded enumeration lists: about 2 s of work at ~2 us each.
MAX_GROUND_WORDS = 10**6

_DROP_LETTERS = str.maketrans("", "", "".join(LETTERS))


def letter_count(w: Word) -> int:
    """Number of positions of ``w`` holding letters."""
    return len(w) - len(w.translate(_DROP_LETTERS))


def apply_to_word(n: Narrowing, w: Word) -> Word:
    """Apply the substitution to every occurrence of its variable."""
    return w.replace(n.var, n.replacement)


def ground_words(alphabet: Iterable[str], max_len: int) -> list:
    """All ground words over the alphabet's distinct letters up to the bound,
    shortest first, lexicographic within a length; ``ValueError`` rather than
    list more than ``MAX_GROUND_WORDS`` letters, so also more words than that."""
    alphabet = sorted(set(alphabet))
    out = [""]
    layer = [""]
    letters = 0
    for n in range(1, max_len + 1 if alphabet else 1):
        letters += len(layer) * len(alphabet) * n
        if letters > MAX_GROUND_WORDS:
            raise ValueError(f"more than {MAX_GROUND_WORDS} letters in the ground words up to length {max_len}")
        layer = [w + a for w in layer for a in alphabet]
        out.extend(layer)
    return out
