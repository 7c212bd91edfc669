"""
Program verification: does a narrowing sequence drive a system to
all-tautologies?

This is the acceptance semantics the solution graphs are built against:
a program is accepted iff every step is compatible with the simplified
state it is applied to and the final state is accepted.  The verifier
never raises on bad programs; every failure mode is F.  An unknown scheme
raises ``ValueError``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import ACCEPTED, Equation, Narrowing, SystemState
from .narrow import compatible_narrowings, step
from .rewrite import Scheme, simplify


def verify(p: Iterable[Narrowing], system: Sequence[Equation], scheme: Scheme) -> bool:
    """True iff the program is compatible step by step and solves the system.

    Compatibility is checked against the same narrowing table the search
    uses, and each step is the search's own ``step``, so verifier and graph
    agree by construction.  ``scheme`` is a member or its value.
    """
    scheme = Scheme(scheme)
    state = simplify(scheme, SystemState.of(system)) if system else ACCEPTED
    for n in p:
        if not state.is_eqs:
            return False
        if n not in compatible_narrowings(state):
            return False
        state = step(state, n, scheme)
    return state.is_accepted
