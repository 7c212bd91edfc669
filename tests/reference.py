"""
Reference definitions that the tests check the library against.

They are written the plain way the paper states them, not the fast way the
library computes them: occurrence counts and var-permutation by counting,
and the split loop by slicing and re-reducing the remainder after every
split.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from wordeq.core import Equation, Word, erase_letters
from wordeq.rewrite import Scheme, reduce


def count_occurrences(w: Word, t: str) -> int:
    """Number of positions of ``w`` equal to the term ``t``."""
    return w.count(t)


def is_var_permutated(w1: Word, w2: Word) -> bool:
    """True iff the words have equal length and equal per-variable counts.

    Letters need not match position-wise or even as multisets; with equal
    lengths the total letter counts agree automatically.
    """
    if len(w1) != len(w2):
        return False
    return Counter(erase_letters(w1)) == Counter(erase_letters(w2))


def split_scan(l: str, r: str, exclude_full: bool) -> Optional[int]:
    """Length of the shortest admissible var-permutated prefix pair, if any.

    A pair containing no variable at all is admitted only when the
    prefixes are textually equal; with ``exclude_full`` the pair of both
    whole sides is not admitted.
    """
    for length in range(1, min(len(l), len(r)) + 1):
        lp, rp = l[:length], r[:length]
        if not is_var_permutated(lp, rp):
            continue
        if exclude_full and length == len(l) == len(r):
            continue
        if not erase_letters(lp + rp) and lp != rp:
            continue
        return length
    return None


def left_split(e: Equation) -> Optional[Tuple[Equation, Equation]]:
    """Split off the shortest var-permutated prefixes, as (prefix, remainder).

    ``e`` must be reduced.  The whole equation counts as its own prefix
    pair, in which case the remainder is the trivial equation.
    """
    length = split_scan(e.lhs, e.rhs, exclude_full=False)
    if length is None:
        return None
    return Equation(e.lhs[:length], e.rhs[:length]), Equation(e.lhs[length:], e.rhs[length:])


def right_split(e: Equation) -> Optional[Tuple[Equation, Equation]]:
    """Mirror of ``left_split`` on proper suffixes, as (remainder, suffix)."""
    length = split_scan(e.lhs[::-1], e.rhs[::-1], exclude_full=True)
    if length is None:
        return None
    return Equation(e.lhs[:-length], e.rhs[:-length]), Equation(e.lhs[-length:], e.rhs[-length:])


def split_pieces(scheme: Scheme, e: Equation) -> Optional[List[Equation]]:
    """The split loop of ``rewrite._split_pieces``, slicing and reducing the
    remainder after every split: ``[core] + suffixes + prefixes``, or
    ``None`` on contradiction.  ``e`` must be reduced."""
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
