"""
Simplification of system states: reduction, splitting on var-permutated
prefixes/suffixes, and the occurrence-counting unsatisfiability check.

Three schemes are supported.  ``BASE`` only reduces (and therefore handles
a single equation), ``SPLIT`` additionally splits every equation on its
shortest var-permutated prefixes, and ``COUNT`` also splits the remainder
on var-permutated suffixes and then applies the counting check to every
resulting equation.  One per-equation loop serves both the root
simplification and the unfold step of ``narrow.step``.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Tuple

from .core import (
    ACCEPTED,
    CONTRADICTION,
    EMPTY_EQUATION,
    Equation,
    Narrowing,
    SystemState,
    apply_to_word,
    is_letter,
    letter_count,
)


class Scheme(Enum):
    BASE = "base"
    SPLIT = "split"
    COUNT = "count"


def reduce(e: Equation) -> Optional[Equation]:
    """Strip the longest common prefix, then the longest common suffix.

    Returns ``None`` when the stripped equation is an immediate
    contradiction, i.e. both sides start (or both end) with distinct
    letters.  Ground unsatisfiable equations with one empty side (such as
    ``B = ``) are *not* contradictions here; they surface as dead ends or
    are killed by the counting check.
    """
    l, r = e
    i = 0
    stop = min(len(l), len(r))
    while i < stop and l[i] == r[i]:
        i += 1
    l, r = l[i:], r[i:]
    j = 0
    stop = min(len(l), len(r))
    while j < stop and l[len(l) - 1 - j] == r[len(r) - 1 - j]:
        j += 1
    if j:
        l, r = l[:-j], r[:-j]
    if l and r:
        if (is_letter(l[0]) and is_letter(r[0])) or (is_letter(l[-1]) and is_letter(r[-1])):
            return None
    return Equation(l, r)


def _split_scan(l: str, r: str, exclude_full: bool) -> Optional[int]:
    """Length of the shortest admissible var-permutated prefix pair, if any.

    A pair is admissible when the per-variable counts of the two prefixes
    agree, except that a pair containing no variable at all is admitted
    only when the prefixes are textually equal (an unequal pure-letter
    pair denotes a misaligned equation, not a split point; on reduced
    input the case cannot arise anyway because the first terms are never
    both letters).
    """
    delta: dict = {}
    mismatched = 0
    has_var = False
    stop = min(len(l), len(r))
    for k in range(stop):
        a, b = l[k], r[k]
        if a.islower():
            has_var = True
            d = delta.get(a, 0)
            if d == 0:
                mismatched += 1
            elif d == -1:
                mismatched -= 1
            delta[a] = d + 1
        if b.islower():
            has_var = True
            d = delta.get(b, 0)
            if d == 0:
                mismatched += 1
            elif d == 1:
                mismatched -= 1
            delta[b] = d - 1
        if mismatched:
            continue
        length = k + 1
        if exclude_full and length == len(l) == len(r):
            continue
        if not has_var and l[:length] != r[:length]:
            continue
        return length
    return None


def left_split(e: Equation) -> Optional[Tuple[Equation, Equation]]:
    """Split off the shortest var-permutated prefixes, as (prefix, remainder).

    The caller guarantees ``e`` is reduced.  The whole equation counts as
    its own prefix pair, in which case the remainder is the trivial
    equation.  Returns ``None`` when no var-permutated prefixes exist.
    """
    length = _split_scan(e.lhs, e.rhs, exclude_full=False)
    if length is None:
        return None
    prefix = Equation(e.lhs[:length], e.rhs[:length])
    remainder = Equation(e.lhs[length:], e.rhs[length:])
    return prefix, remainder


def right_split(e: Equation) -> Optional[Tuple[Equation, Equation]]:
    """Mirror of ``left_split`` on proper suffixes, as (remainder, suffix).

    Unlike the prefix case the pair consisting of both whole sides is not
    admitted; such an equation is the job of ``left_split``.
    """
    length = _split_scan(e.lhs[::-1], e.rhs[::-1], exclude_full=True)
    if length is None:
        return None
    remainder = Equation(e.lhs[:-length], e.rhs[:-length])
    suffix = Equation(e.lhs[-length:], e.rhs[-length:])
    return remainder, suffix


def _split_pieces(scheme: Scheme, e: Equation) -> Optional[List[Equation]]:
    """Split repeatedly, reducing the remainder after each split.

    ``BASE`` splits nothing, ``SPLIT`` makes left splits only, and
    ``COUNT`` alternates left and right splits to a fixpoint, left splits
    taking priority and being retried after every right split.  Returns
    the pieces as ``[core] + suffixes + prefixes`` in discovery order, or
    ``None`` when reducing some remainder hits a contradiction.  ``e`` must
    be reduced.
    """
    prefixes: List[Equation] = []
    suffixes: List[Equation] = []
    cur = e
    while scheme is not Scheme.BASE:
        split = left_split(cur)
        if split is not None:
            prefix, remainder = split
            prefixes.append(prefix)
        elif scheme is Scheme.COUNT and (split := right_split(cur)) is not None:
            remainder, suffix = split
            suffixes.append(suffix)
        else:
            break
        cur = reduce(remainder)
        if cur is None:
            return None
    return [cur] + suffixes + prefixes


def _letters_dominated(phi: str, psi: str) -> bool:
    """Prop-style check: phi has strictly more letters and at least as many
    occurrences of every variable, hence the equation has no solution."""
    if letter_count(phi) <= letter_count(psi):
        return False
    return all(phi.count(x) >= psi.count(x) for x in set(c for c in psi if c.islower()))


def count_unsat(e: Equation) -> bool:
    """Occurrence-counting unsatisfiability test, tried in both directions."""
    return _letters_dominated(e.lhs, e.rhs) or _letters_dominated(e.rhs, e.lhs)


def simplify_equation(scheme: Scheme, eq: Equation) -> Optional[List[Equation]]:
    """Pieces replacing one equation under the scheme, ``None`` on
    contradiction.  Trivial pieces are already dropped.

    The pieces are a fixpoint of this function: they are reduced, a
    shortest split piece admits no further split, and under the counting
    scheme every surviving piece passes the counting check.
    """
    reduced = reduce(eq)
    if reduced is None:
        return None
    pieces = _split_pieces(scheme, reduced)
    if pieces is None:
        return None
    pieces = [p for p in pieces if p != EMPTY_EQUATION]
    if scheme is Scheme.COUNT and any(count_unsat(p) for p in pieces):
        return None
    return pieces


def _unfold(scheme: Scheme, s: SystemState, n: Optional[Narrowing]) -> SystemState:
    """Simplify ``s``, or with a narrowing, the state it substitutes to.

    With a narrowing, ``s`` must be a simplify output: equations the
    substitution does not touch are then already simplified and are kept
    as they are, so only the touched ones are reworked.  The per-equation
    piece lists are concatenated in the original order.  Any contradiction
    discards the whole list and yields the contradiction state; an empty
    final list is accepted.
    """
    if not s.is_eqs:
        raise ValueError(f"cannot simplify a {s.kind.value} state")
    if scheme is Scheme.BASE and len(s.equations) != 1:
        raise ValueError("the base scheme handles exactly one equation")
    out: List[Equation] = []
    for eq in s.equations:
        if n is not None:
            if n.var not in eq.lhs and n.var not in eq.rhs:
                out.append(eq)
                continue
            eq = Equation(apply_to_word(n, eq.lhs), apply_to_word(n, eq.rhs))
        pieces = simplify_equation(scheme, eq)
        if pieces is None:
            return CONTRADICTION
        out.extend(pieces)
    if not out:
        return ACCEPTED
    return SystemState.of(out)


def simplify(scheme: Scheme, s: SystemState) -> SystemState:
    """Simplify an equation-list state under the given scheme; trivial
    equations are dropped."""
    return _unfold(scheme, s, None)
