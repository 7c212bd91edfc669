"""
Compatible elementary narrowings for a system state, and the single
unfold step (substitute, then simplify).

Only the first equation of the list constrains which narrowings apply.
The erase substitution ``x ->`` is compatible whenever either side starts
with ``x``; this is the completeness modification that lets compositions
of elementary steps reach every solution (the classic rules miss e.g.
``x = A, y = `` for ``x y = y x``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from .core import EQS, TERMS, Narrowing, SystemState, eps, prepend_letter, prepend_var
from .rewrite import Scheme, _unfold


def compatible_narrowings(s: SystemState) -> Tuple[Narrowing, ...]:
    """The exhaustive, ordered set of narrowings applicable to ``s``.

    The order is fixed (erasures first, left-hand variable before
    right-hand one) so that graph construction is deterministic.  An empty
    result marks a dead end.  The first equation must be reduced and not
    trivial.
    """
    if s.kind is not EQS or not s.equations:
        raise ValueError("narrowings are generated for nonempty equation lists only")
    lhs, rhs = s.equations[0]
    if not lhs and not rhs:
        raise ValueError("the first equation is trivial; the state should be simplified")
    return _narrowings(lhs[:1], rhs[:1])


# A bounded table: one immutable tuple per pair of first terms (each may be empty).
@lru_cache(maxsize=len(TERMS | {""}) ** 2)
def _narrowings(p: str, q: str) -> Tuple[Narrowing, ...]:
    if p.islower() and q.islower():  # two variables
        # Reduction guarantees the sides start with different terms.
        assert p != q, f"unreduced first equation: {p}... = {q}..."
        return (eps(p), eps(q), prepend_var(p, q), prepend_var(q, p))
    if p.islower():
        return (eps(p), prepend_letter(p, q)) if q else (eps(p),)
    if q.islower():
        return (eps(q), prepend_letter(q, p)) if p else (eps(q),)
    return ()


def step(s: SystemState, n: Narrowing, scheme: Scheme, memo: Optional[dict] = None) -> SystemState:
    """One unfold step: apply the narrowing, then simplify the result under
    ``scheme``, which must be a ``Scheme`` member, not its value.

    ``s`` must be a simplify output (every pipeline state is).  Equations
    the substitution does not touch are then already simplified, so only
    the touched ones are reworked; the result equals simplifying the
    substituted state wholesale.
    """
    return _unfold(scheme, s, n, memo)
