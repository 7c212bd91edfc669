"""
Simplification of system states: reduction, splitting on var-permutated
prefixes and suffixes, and the occurrence-counting unsatisfiability check.

``BASE`` only reduces, so it takes a single equation; ``SPLIT`` also splits
each equation at its shortest var-permutated prefixes; ``COUNT`` also splits
what is left at its shortest var-permutated suffixes and refutes a state
one of whose pieces the counting check refutes.  The root simplification,
``narrow.step`` and ``verify`` all run ``_unfold``.

A build passes the unfold step a memo it drops on return, from ``(equation,
variable, target)`` to the substituted equation's pieces, ``None`` for a
contradiction.  Keys hold the parent's equation, so no substituted word is
kept.  Every equation simplified is written, so a contradiction leaves the
pieces of the equations simplified before it, and its own ``None``.

In this package, a comment such as ``dup_labels 1.9x`` on a shortcut the
plain rule does not need says that a pass of that benchmark workload takes
1.9 times as long without it (interleaved in-process runs, 2-vCPU host).
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
    VARIABLES,
    Equation,
    Narrowing,
    SystemState,
    letter_count,
)


class Scheme(Enum):
    BASE = "base"
    SPLIT = "split"
    COUNT = "count"


_BASE, _COUNT = Scheme.BASE, Scheme.COUNT  # globals, not class reads: decide 1.05x
_LETTER = re.compile("[A-Z]")
_VARIABLES = "".join(sorted(VARIABLES))  # tested one by one, not a set of a word's terms: long_labels 1.15x
_SCAN_WINDOW = 16  # positions read before a stretch skip is tried, not 1: dup_labels 1.60x
_equation = partial(tuple.__new__, Equation)  # without Equation's Python-level __new__: decide 1.04x


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
    a, nl, nr = 0, len(l), len(r)  # _strip(l, r, 0, 0) inlined: decide 1.07x
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
    and ``r[start:start+n]``, if any; ``n`` is at least 2.

    The words are those of a reduced equation, so their first terms are
    never two letters.  Equal-length prefixes with equal variable counts
    hold equally many letters, so no split ends where the letters read so
    far differ in number: after a window where they do, the scan skips the
    stretch of variables on both sides up to the next letter and adds it to
    the counts by ``str.count``.
    """
    delta: dict = {}
    mismatched = 0
    stop = start + n
    k = start
    # a letter against a variable: the letters differ at once, so one position: dup_labels 1.04x
    end = k + 1 if l[k].isupper() != r[k].isupper() else k + _SCAN_WINDOW
    while True:
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
        # the stretch skip: dup_labels 1.91x, long_labels 2.62x; the letters differ when the variables do
        if sum(delta.values()) and l[k].islower() and r[k].islower():
            found = _LETTER.search(l, k, stop)
            j = found.start() if found else stop
            found = _LETTER.search(r, k, j)
            if found:
                j = found.start()
            for x in _VARIABLES:
                if (x in l or x in r) and (d := l.count(x, k, j) - r.count(x, k, j)):
                    delta[x] = delta.get(x, 0) + d
            mismatched = len(delta) - list(delta.values()).count(0)
            k = j
        end = k + _SCAN_WINDOW


def _split_pieces(scheme: Scheme, e: Equation) -> Optional[List[Equation]]:
    """Split repeatedly, reducing the remainder after each split.

    ``SPLIT`` makes left splits only, and ``COUNT`` then makes right splits
    on what is left.  Returns the pieces as ``[core] + suffixes + prefixes``
    in discovery order, keeping the first copy of each, or ``None`` when
    reducing some remainder hits a contradiction.  ``e`` must be reduced.

    Every split and every reduction removes as many terms from the front
    (or the back) of one side as of the other, so the remainder is
    ``l[a:len(l)-b] = r[a:len(r)-b]`` for two shared offsets.  A one-term
    window never splits: its terms are the first (or last) of a reduced
    remainder, so they differ and are not both letters.  A remainder without
    a left split keeps none when a suffix is cut off, so the right splits
    retry no left split.
    """
    l, r = e
    nl, nr = len(l), len(r)
    m = min(nl, nr)
    prefixes: List[Equation] = []
    suffixes: List[Equation] = []
    a = b = 0
    while a + 1 < m and (k := _split_scan(l, r, a, m - a)) is not None:
        if k == nl == nr:  # e splits off whole (only the first scan can): dup_labels 1.06x
            return [EMPTY_EQUATION, e]
        pl, pr = l[a : a + k], r[a : a + k]
        prefixes.append(Equation(pl, pr))
        a += k
        # The copies of the piece that follow on both sides would each split off
        # unchanged and be dropped as repeats: skip them in runs of doubling, then
        # halving, length.  dup_labels 5.43x
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
    if scheme is _COUNT and a + 1 < m:
        rl, rr = l[::-1], r[::-1]
        while a + b + 1 < m and (k := _split_scan(rl, rr, b, m - a - b)) is not None:
            suffixes.append(Equation(l[nl - b - k : nl - b], r[nr - b - k : nr - b]))
            b += k
            offsets = _strip(l, r, a, b)
            if offsets is None:
                return None
            a, b = offsets
    if not prefixes and not suffixes:  # long_labels 1.04x
        return [e]
    return list(dict.fromkeys([Equation(l[a : nl - b], r[a : nr - b])] + suffixes + prefixes))


def count_unsat(e: Equation) -> bool:
    """Occurrence-counting unsatisfiability test: one side has strictly more
    letters and at least as many occurrences of every variable, so it is
    longer than the other under every substitution."""
    phi, psi = e
    if len(phi) == len(psi):  # more letters on a side leave it fewer variables: dup_labels 1.06x
        return False
    surplus = letter_count(phi) - letter_count(psi)
    if surplus == 0:
        return False
    if surplus < 0:
        phi, psi = psi, phi
    for x in _VARIABLES:
        if x in psi and phi.count(x) < psi.count(x):
            return False
    return True


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
    if scheme is _COUNT:
        for p in pieces:
            if count_unsat(p):
                return None
    return pieces


def _unfold(scheme: Scheme, s: SystemState, n: Optional[Narrowing], memo: Optional[dict] = None) -> SystemState:
    """Simplify ``s``, or with a narrowing, the state it substitutes to.

    With a narrowing, ``s`` must be a simplify output: the equations the
    substitution does not touch are then simplified already and are kept.
    Each equation's pieces take its place in the label, keeping the first
    copy of each, so the first equation, which picks the narrowings, is
    never dropped.  Any contradiction yields the contradiction state, an
    empty list the accepted one.  ``memo`` is a build's equation memo, or
    ``None`` for a throwaway one.  The memo is read for every touched
    equation before any is simplified, as a remembered contradiction ends
    the unfold; the misses are then simplified in label order, each result
    written to the memo, up to the first contradiction.
    """
    if s.kind is not EQS:
        raise ValueError(f"cannot simplify a {s.kind.value} state")
    equations = s.equations
    if scheme is _BASE and len(equations) != 1:
        raise ValueError("the base scheme handles exactly one equation")
    var, target = (n.var, n.target) if n is not None else ("", "")
    replacement = target + var if target else ""
    if len(equations) == 1:  # unfolded once per build, so no memo: decide 1.33x
        lhs, rhs = equations[0]
        pieces = simplify_equation(scheme, _equation((lhs.replace(var, replacement), rhs.replace(var, replacement))))
        if pieces is None:
            return CONTRADICTION
        return SystemState.of(pieces) if pieces else ACCEPTED
    memo = {} if memo is None else memo
    out: List[Equation] = []
    misses = []  # (position in out, key) of each touched equation the memo lacks, in label order
    for eq in equations:
        if var not in eq[0] and var not in eq[1]:  # without a narrowing, var is "", in every word
            out.append(eq)
            continue
        pieces = memo.get(key := (eq, var, target), False)
        if pieces is None:
            return CONTRADICTION
        if pieces is False:
            misses.append((len(out), key))
        else:
            out.extend(pieces)
    for _, key in misses:
        lhs, rhs = key[0]
        pieces = memo[key] = simplify_equation(
            scheme, _equation((lhs.replace(var, replacement), rhs.replace(var, replacement))))
        if pieces is None:
            return CONTRADICTION
    for pos, key in reversed(misses):  # a later miss first, so each recorded position still holds
        out[pos:pos] = memo[key]
    return SystemState.of(dict.fromkeys(out)) if out else ACCEPTED


def simplify(scheme: Scheme, s: SystemState) -> SystemState:
    """Simplify an equation-list state under the given scheme, a member or
    its value; trivial equations are dropped."""
    return _unfold(Scheme(scheme), s, None)
