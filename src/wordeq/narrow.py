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

from typing import Tuple

from .core import Narrowing, SystemState, eps, is_var, prepend_letter, prepend_var
from .rewrite import Scheme, _unfold


def compatible_narrowings(s: SystemState) -> Tuple[Narrowing, ...]:
    """The exhaustive, ordered set of narrowings applicable to ``s``.

    The order is fixed (erasures first, left-hand variable before
    right-hand one) so that graph construction is deterministic.  An empty
    result marks a dead end.  The first equation must be reduced and not
    trivial.
    """
    if not s.is_eqs or not s.equations:
        raise ValueError("narrowings are generated for nonempty equation lists only")
    lhs, rhs = s.equations[0]
    if not lhs and not rhs:
        raise ValueError("the first equation is trivial; the state should be simplified")
    p = lhs[:1]
    q = rhs[:1]
    if p and q and is_var(p) and is_var(q):
        # Reduction guarantees the sides start with different terms.
        assert p != q, f"unreduced first equation: {lhs} = {rhs}"
        return (eps(p), eps(q), prepend_var(p, q), prepend_var(q, p))
    if p and q and is_var(p):
        return (eps(p), prepend_letter(p, q))
    if p and q and is_var(q):
        return (eps(q), prepend_letter(q, p))
    if p and not q and is_var(p):
        return (eps(p),)
    if q and not p and is_var(q):
        return (eps(q),)
    return ()


def step(s: SystemState, n: Narrowing, scheme: Scheme) -> SystemState:
    """One unfold step: apply the narrowing, then simplify the result.

    ``s`` must be a simplify output (every pipeline state is).  Equations
    the substitution does not touch are then already simplified, so only
    the touched ones are reworked; the result equals simplifying the
    substituted state wholesale.
    """
    return _unfold(scheme, s, n)
