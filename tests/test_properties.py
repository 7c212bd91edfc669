"""Property tests of the split loop and of duplicate-free labels."""

from hypothesis import given, settings
from hypothesis import strategies as st

from wordeq.core import Equation, SystemState
from wordeq.narrow import compatible_narrowings, step
from wordeq.oracle import brute_solutions, system_variables
from wordeq.rewrite import Scheme, _split_pieces, reduce, simplify, simplify_equation
from reference import split_pieces

E = Equation

# derandomized, so the suite draws the same examples on every run
SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)

WORDS = st.text("ABxyz", max_size=6)


@st.composite
def block_equations(draw):
    """Sides made of the same blocks, each permuted on the right, repeated
    and padded: equations with many var-permutated prefixes and suffixes."""
    blocks = draw(st.lists(st.text("ABxz", min_size=1, max_size=3), max_size=3))
    lhs = "".join(blocks)
    rhs = "".join("".join(draw(st.permutations(block))) for block in blocks)
    times = draw(st.integers(1, 4))
    return E(draw(WORDS) + lhs * times + draw(WORDS), draw(WORDS) + rhs * times + draw(WORDS))


EQUATIONS = st.one_of(st.builds(E, WORDS, WORDS), block_equations())


@SETTINGS
@given(EQUATIONS)
def test_one_pass_split_loop_equals_reference(e):
    e = reduce(e)
    if e is None:
        return
    for scheme in Scheme:
        want = split_pieces(scheme, e)
        if want is not None:
            want = list(dict.fromkeys(want))
        assert _split_pieces(scheme, e) == want, (e, scheme)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.builds(E, st.text("ABxyz", max_size=5), st.text("ABxyz", max_size=5)))
def test_simplify_equation_keeps_solutions(e):
    variables = system_variables([e]) or ["x"]
    want = brute_solutions([e], "AB", 2, variables=variables)
    for scheme in Scheme:
        pieces = simplify_equation(scheme, e)
        got = set() if pieces is None else brute_solutions(pieces, "AB", 2, variables=variables)
        assert got == want, (e, scheme, pieces)


def dedup(s: SystemState) -> SystemState:
    return SystemState.of(dict.fromkeys(s.equations)) if s.is_eqs else s


def distinct(s: SystemState) -> bool:
    return len(set(s.equations)) == len(s.equations)


@SETTINGS
@given(st.lists(EQUATIONS, min_size=1, max_size=3), st.data())
def test_labels_hold_each_equation_once(system, data):
    for scheme in (Scheme.SPLIT, Scheme.COUNT):
        s = simplify(scheme, SystemState.of(system))
        assert distinct(s)
        if not s.is_eqs:
            continue
        # copies of simplified equations, appended in any order
        copies = data.draw(st.lists(st.sampled_from(s.equations), max_size=4))
        with_copies = SystemState.of(s.equations + tuple(copies))
        assert dedup(with_copies) == s
        for n in compatible_narrowings(s):
            child = step(with_copies, n, scheme)
            assert distinct(child)
            assert step(dedup(with_copies), n, scheme) == dedup(child)
