"""
Simplification of system states: reduction, splitting on var-permutated
prefixes/suffixes, and the occurrence-counting unsatisfiability check.

Three schemes are supported.  ``BASE`` only reduces (and therefore handles
a single equation), ``SPLIT`` additionally splits every equation on its
shortest var-permutated prefixes, and ``COUNT`` also splits the remainder
on var-permutated suffixes and then applies the counting check to every
resulting equation.  One per-equation loop serves both the root
simplification and the unfold step of ``narrow.step``.

A build passes that step a memo it drops on return, mapping ``(equation,
variable, target)`` to the substituted equation's pieces, ``None`` for a
contradiction.  Keys hold the parent's equation, so no substituted word is
kept; a contradiction writes only its own key, so no discarded label's
pieces are.  One-equation labels, each unfolded once per build, skip it;
other unfolds without one (the root's, ``verify``'s) use a throwaway one.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import partial
from typing import List, Optional, Tuple

from .core import (
    ACCEPTED,
    CONTRADICTION,
    EMPTY_EQUATION,
    EQS,
    LETTERS,
    Equation,
    Narrowing,
    SystemState,
    letter_count,
)


class Scheme(Enum):
    BASE = "base"
    SPLIT = "split"
    COUNT = "count"


_BASE, _COUNT = Scheme.BASE, Scheme.COUNT  # a member read through the class costs ten times a global's
_LETTER = re.compile("[A-Z]")
# Positions the split scan reads one by one before it looks for a stretch of
# variables to skip; looking after every position slows the short scans.
_SCAN_WINDOW = 16
_equation = partial(tuple.__new__, Equation)  # an Equation, without its Python-level __new__


def _strip(l: str, r: str, a: int, b: int) -> Optional[Tuple[int, int]]:
    """Reduce the remainder ``l[a:len(l)-b] = r[a:len(r)-b]`` by moving the
    offsets: ``a`` past its common prefix, then ``b`` past its common
    suffix.  ``None`` when the result is an immediate contradiction."""
    nl, nr = len(l), len(r)
    stop = min(nl, nr) - b
    while a < stop and l[a] == r[a]:
        a += 1
    while a < stop and l[nl - 1 - b] == r[nr - 1 - b]:
        b += 1
        stop -= 1
    if a < stop:
        if (l[a].isupper() and r[a].isupper()) or (l[nl - 1 - b].isupper() and r[nr - 1 - b].isupper()):
            return None
    return a, b


def reduce(e: Equation) -> Optional[Equation]:
    """Strip the longest common prefix, then the longest common suffix.

    Returns ``None`` when the stripped equation is an immediate
    contradiction, i.e. both sides start (or both end) with distinct
    letters.  Ground unsatisfiable equations with one empty side (such as
    ``B = ``) are *not* contradictions here; they surface as dead ends or
    are killed by the counting check.
    """
    l, r = e
    a, nl, nr = 0, len(l), len(r)  # _strip's loops from 0, 0, inlined: every unfold step passes here
    stop = nl if nl < nr else nr
    while a < stop and l[a] == r[a]:
        a += 1
    while a < stop and l[nl - 1] == r[nr - 1]:
        nl -= 1
        nr -= 1
        stop -= 1
    if a < stop and ((l[a].isupper() and r[a].isupper()) or (l[nl - 1].isupper() and r[nr - 1].isupper())):
        return None
    return _equation((l[a:nl], r[a:nr]))


def _split_scan(l: str, r: str, start: int, n: int) -> Optional[int]:
    """Length of the shortest var-permutated prefix pair of ``l[start:start+n]``
    and ``r[start:start+n]``, if any.

    The pair is var-permutated when the per-variable counts of the two
    prefixes agree.  The words scanned are those of a reduced equation, so
    their first terms are never two letters and every prefix pair holds a
    variable.

    Two equal-length prefixes with equal variable counts also hold equally
    many letters, so no split ends where the letters read so far differ.
    The scan reads ``_SCAN_WINDOW`` positions at a time; after each window
    in which the letters read differ, it skips the stretch of variables on
    both sides that follows, adding the stretch's variables to the counts
    at once, up to the next letter.
    """
    delta: dict = {}
    mismatched = 0
    stop = start + n
    k = start
    while True:
        end = k + _SCAN_WINDOW
        for k in range(k, end if end < stop else stop):
            a, b = l[k], r[k]
            if a.islower():
                d = delta.get(a, 0)
                if d == 0:
                    mismatched += 1
                elif d == -1:
                    mismatched -= 1
                delta[a] = d + 1
            if b.islower():
                d = delta.get(b, 0)
                if d == 0:
                    mismatched += 1
                elif d == 1:
                    mismatched -= 1
                delta[b] = d - 1
            if not mismatched:
                return k + 1 - start
        k += 1
        if k >= stop:
            return None
        # the letters read differ when the variables read do in number
        if sum(delta.values()) and l[k].islower() and r[k].islower():
            found = _LETTER.search(l, k, stop)
            j = found.start() if found else stop
            found = _LETTER.search(r, k, j)
            if found:
                j = found.start()
            for x in set(l[k:j]).union(r[k:j]):
                delta[x] = delta.get(x, 0) + l.count(x, k, j) - r.count(x, k, j)
            mismatched = len(delta) - list(delta.values()).count(0)
            k = j


def _split_pieces(scheme: Scheme, e: Equation) -> Optional[List[Equation]]:
    """Split repeatedly, reducing the remainder after each split.

    ``SPLIT`` makes left splits only, and ``COUNT`` then makes right splits
    on what is left.  Returns the pieces as ``[core] + suffixes + prefixes``
    in discovery order, keeping the first copy of each, or ``None`` when
    reducing some remainder hits a contradiction.  ``e`` must be reduced.

    Every split and every reduction removes as many terms from the front
    (or the back) of one side as of the other, so the remainder is
    ``l[a:len(l)-b] = r[a:len(r)-b]`` for two shared offsets.  The loop
    moves the offsets and slices each piece once.  Right splits scan the
    reversed words from offset ``b``.

    ``b`` stays 0 through the left splits, as the last terms of ``e``
    differ.  Once the remainder has no left split, cutting a suffix off it
    leaves it without one, so the right splits need no left split retried
    between them and never span both whole sides.  A left piece has no
    shorter var-permutated prefix and its first terms differ, so the
    copies of it that follow on both sides are cut off with it: scanning
    and reducing would split each off unchanged, and the dedup would drop
    it.
    """
    l, r = e
    nl, nr = len(l), len(r)
    m = min(nl, nr)
    prefixes: List[Equation] = []
    suffixes: List[Equation] = []
    a = b = 0
    while a < m and (k := _split_scan(l, r, a, m - a)) is not None:
        pl, pr = l[a : a + k], r[a : a + k]
        prefixes.append(Equation(pl, pr))
        a += k
        # skip the copies in runs of doubling, then halving, length
        ql, qr = pl, pr
        while True:
            if l.startswith(ql, a) and r.startswith(qr, a):
                a += len(ql)
                ql, qr = ql + ql, qr + qr
            elif len(ql) > k:
                ql, qr = ql[: len(ql) // 2], qr[: len(qr) // 2]
            else:
                break
        offsets = _strip(l, r, a, b)
        if offsets is None:
            return None
        a, b = offsets
    if scheme is _COUNT and a < m:
        rl, rr = l[::-1], r[::-1]
        while a + b < m and (k := _split_scan(rl, rr, b, m - a - b)) is not None:
            suffixes.append(Equation(l[nl - b - k : nl - b], r[nr - b - k : nr - b]))
            b += k
            offsets = _strip(l, r, a, b)
            if offsets is None:
                return None
            a, b = offsets
    return list(dict.fromkeys([Equation(l[a : nl - b], r[a : nr - b])] + suffixes + prefixes))


def count_unsat(e: Equation) -> bool:
    """Occurrence-counting unsatisfiability test: one side has strictly more
    letters and at least as many occurrences of every variable, so it is
    longer than the other under every substitution."""
    phi, psi = e
    surplus = letter_count(phi) - letter_count(psi)
    if surplus == 0:
        return False
    if surplus < 0:
        phi, psi = psi, phi
    return all(phi.count(x) >= psi.count(x) for x in set(psi) - LETTERS)


def simplify_equation(scheme: Scheme, eq: Equation) -> Optional[List[Equation]]:
    """Pieces replacing one equation under the scheme, ``None`` on
    contradiction.  Trivial and repeated pieces are already dropped.

    The pieces are a fixpoint of this function: they are reduced, a
    shortest split piece admits no further split, and under the counting
    scheme every surviving piece passes the counting check.
    """
    reduced = reduce(eq)
    if reduced is None:
        return None
    if scheme is _BASE:  # the reduced equation is the piece
        return [reduced] if reduced != EMPTY_EQUATION else []
    pieces = _split_pieces(scheme, reduced)
    if pieces is None:
        return None
    pieces = [p for p in pieces if p != EMPTY_EQUATION]
    if scheme is _COUNT and any(count_unsat(p) for p in pieces):
        return None
    return pieces


def _unfold(scheme: Scheme, s: SystemState, n: Optional[Narrowing], memo: Optional[dict] = None) -> SystemState:
    """Simplify ``s``, or with a narrowing, the state it substitutes to.

    With a narrowing, ``s`` must be a simplify output: equations the
    substitution does not touch are then already simplified and are kept
    as they are, so only the touched ones are reworked.  The per-equation
    piece lists are concatenated in the original order, keeping the first
    copy of each equation, so a label holds each equation once; the first
    equation, which picks the narrowings, is never dropped.  Any contradiction
    discards the whole list and yields the contradiction state; an empty
    final list is accepted.  ``memo`` is a build's equation memo; several
    equations unfolded without one go through a throwaway memo.
    """
    if s.kind is not EQS:
        raise ValueError(f"cannot simplify a {s.kind.value} state")
    equations = s.equations
    if scheme is _BASE and len(equations) != 1:
        raise ValueError("the base scheme handles exactly one equation")
    var, target = (n.var, n.target) if n is not None else ("", "")
    replacement = target + var if target else ""
    if len(equations) == 1:  # without a narrowing, var and replacement are "": no substitution
        lhs, rhs = equations[0]
        pieces = simplify_equation(scheme, _equation((lhs.replace(var, replacement), rhs.replace(var, replacement))))
        if pieces is None:
            return CONTRADICTION
        return SystemState.of(pieces) if pieces else ACCEPTED
    memo = {} if memo is None else memo
    out: List[Equation] = []
    new: dict = {}  # a contradiction's key goes in the memo at once, the others on success
    for eq in equations:
        if var not in eq.lhs and var not in eq.rhs:  # without a narrowing, var is "", in every word
            out.append(eq)
            continue
        pieces = memo.get(key := (eq, var, target), False)
        if pieces is False:
            eq = _equation((eq.lhs.replace(var, replacement), eq.rhs.replace(var, replacement)))
            pieces = simplify_equation(scheme, eq)
            (new if pieces is not None else memo)[key] = pieces
        if pieces is None:
            return CONTRADICTION
        out.extend(pieces)
    memo.update(new)
    return SystemState.of(dict.fromkeys(out)) if out else ACCEPTED


def simplify(scheme: Scheme, s: SystemState) -> SystemState:
    """Simplify an equation-list state under the given scheme, a member or
    its value; trivial equations are dropped."""
    return _unfold(scheme if scheme.__class__ is Scheme else Scheme(scheme), s, None)
