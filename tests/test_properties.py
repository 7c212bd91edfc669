"""Property tests of reduction, of the split loop, of one-equation unfolds,
of the count check (these four over ``ABxyz``, and again with the terms
renamed onto all of ``a``-``z`` and ``A``-``Z``), of the count check on
equal-length sides, of split scans that start with a letter against a
variable, of duplicate-free labels, of unfolds with and without an
equation memo, of unfolds of mixed-length labels with a memo filled by
earlier unfolds against substitution then simplification, of graph edges
against the unfold step, of builds against the reference build, of
witnesses against a breadth-first walk, of bounded enumeration, and of
verdicts against witnesses and the oracle."""

import random
from string import ascii_lowercase, ascii_uppercase
from unittest.mock import patch

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from wordeq import rewrite, solutions
from wordeq.core import ACCEPTED, CONTRADICTION, Equation, Narrowing, SystemState, letter_count
from wordeq.graph import SAT, UNSAT, Budget, Node, build, verdict
from wordeq.narrow import compatible_narrowings, step
from wordeq.oracle import brute_solutions, satisfies, system_variables
from wordeq.rewrite import Scheme, _split_pieces, _split_scan, _unfold, count_unsat, reduce, simplify, simplify_equation
from wordeq.solutions import enumerate_solutions, min_witness
from wordeq.witness import verify

E = Equation

# derandomized, so the suite draws the same examples on every run
SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)

WORDS = st.text("ABxyz", max_size=6)


@st.composite
def block_equations(draw, max_times=4):
    """Sides made of the same blocks, each permuted on the right, repeated
    and padded: equations with many var-permutated prefixes and suffixes."""
    blocks = draw(st.lists(st.text("ABxz", min_size=1, max_size=3), max_size=3))
    lhs = "".join(blocks)
    rhs = "".join("".join(draw(st.permutations(block))) for block in blocks)
    times = draw(st.integers(1, max_times))
    return E(draw(WORDS) + lhs * times + draw(WORDS), draw(WORDS) + rhs * times + draw(WORDS))


EQUATIONS = st.one_of(st.builds(E, WORDS, WORDS), block_equations())


@st.composite
def sparse_words(draw):
    """Up to 300 variables over ``xyz`` with up to four letters put in."""
    size = draw(st.integers(0, 300))  # a drawn size: text draws stay short
    word = list(draw(st.text("xyz", min_size=size, max_size=size)))
    for letter in draw(st.lists(st.sampled_from("AB"), max_size=4)):
        word.insert(draw(st.integers(0, len(word))), letter)
    return "".join(word)


@st.composite
def chunk_permuted_equations(draw):
    """A long letter-sparse word against itself cut into chunks, each
    shuffled, both sides padded: long scans that end in splits, on the left
    or, when the padding blocks the left ones, on the right."""
    lhs = draw(sparse_words())
    cuts = sorted(draw(st.lists(st.integers(0, len(lhs)), max_size=6)))
    rng = draw(st.randoms(use_true_random=False))
    chunks = [list(lhs[i:j]) for i, j in zip([0] + cuts, cuts + [len(lhs)])]
    for chunk in chunks:
        rng.shuffle(chunk)
    rhs = "".join("".join(chunk) for chunk in chunks)
    return E(draw(WORDS) + lhs + draw(WORDS), draw(WORDS) + rhs + draw(WORDS))


@st.composite
def repeat_equations(draw):
    """Distinct terms against a rotation of them, repeated up to 100 times,
    both sides ending in the same-length start of one more copy and a
    padding word: long runs of one left piece."""
    lhs = "".join(draw(st.lists(st.sampled_from("ABxyz"), min_size=2, max_size=4, unique=True)))
    j = draw(st.integers(1, len(lhs) - 1))
    rhs = lhs[j:] + lhs[:j]
    times = draw(st.integers(1, 100))
    i = draw(st.integers(0, len(lhs)))
    return E(lhs * times + lhs[:i] + draw(WORDS), rhs * times + rhs[:i] + draw(WORDS))


LONG_EQUATIONS = st.one_of(
    st.builds(E, sparse_words(), sparse_words()),
    chunk_permuted_equations(),
    block_equations(max_times=100),
    repeat_equations(),
)


@st.composite
def renamed(draw, equations):
    """An equation of ``equations`` with its variables renamed injectively
    onto random ones of ``a``-``z`` and its letters onto random ones of
    ``A``-``Z``: the kernels must treat every term alike, not only ``ABxyz``."""
    e = draw(equations)
    variables = "".join(draw(st.permutations(ascii_lowercase)))
    letters = "".join(draw(st.permutations(ascii_uppercase)))
    table = str.maketrans(ascii_lowercase + ascii_uppercase, variables + letters)
    return E(e.lhs.translate(table), e.rhs.translate(table))


def check_split_loop(e: Equation) -> None:
    e = reduce(e)
    if e is None:
        return
    for scheme in (Scheme.SPLIT, Scheme.COUNT):
        want = reference.split_pieces(scheme, e)
        if want is not None:
            want = list(dict.fromkeys(want))
        assert _split_pieces(scheme, e) == want, (e, scheme)


@SETTINGS
@given(EQUATIONS)
def test_one_pass_split_loop_equals_reference(e):
    check_split_loop(e)


@SETTINGS
@given(LONG_EQUATIONS)
def test_split_loop_equals_reference_on_long_sparse_equations(e):
    # long stretches of variables between letters, and long runs of one piece
    check_split_loop(e)


@SETTINGS
@given(renamed(st.one_of(EQUATIONS, LONG_EQUATIONS)))
def test_split_loop_equals_reference_over_all_terms(e):
    check_split_loop(e)


# common ends of any length around any equation, then long sides
REDUCE_EQUATIONS = st.one_of(st.builds(lambda p, e, q: E(p + e.lhs + q, p + e.rhs + q), WORDS, EQUATIONS, WORDS), LONG_EQUATIONS)


@SETTINGS
@given(REDUCE_EQUATIONS)
def test_reduce_equals_reference(e):
    assert reduce(e) == reference.reduce(e)


@SETTINGS
@given(renamed(REDUCE_EQUATIONS))
def test_reduce_equals_reference_over_all_terms(e):
    assert reduce(e) == reference.reduce(e)


def plain_unfold(scheme: Scheme, s: SystemState, n) -> SystemState:
    """The label a one-equation ``s`` unfolds to by the narrowing ``n``, or
    with ``n`` None simplifies to, by the reference definitions alone."""
    if n is not None:
        s = reference.apply_to_state(n, s)
    (e,) = s.equations
    e = reference.reduce(e)
    pieces = None if e is None else [e] if scheme is Scheme.BASE else reference.split_pieces(scheme, e)
    if pieces is None:
        return CONTRADICTION
    pieces = list(dict.fromkeys(p for p in pieces if p != E("", "")))
    if scheme is Scheme.COUNT and any(reference.count_unsat(p) for p in pieces):
        return CONTRADICTION
    return SystemState.of(pieces) if pieces else ACCEPTED


def check_one_equation_unfold(e: Equation) -> None:
    """A one-equation label takes a branch of its own in ``_unfold``; check it,
    at the root and at each narrowing of a one-equation root label, against
    substitution, reduction, the split loop and the count check."""
    for scheme in Scheme:
        root = SystemState.of([e])
        label = plain_unfold(scheme, root, None)
        assert _unfold(scheme, root, None) == label
        if label.is_eqs and len(label.equations) == 1:
            for n in reference.compatible_narrowings(label):
                assert _unfold(scheme, label, n) == plain_unfold(scheme, label, n), (scheme, label, n)


@SETTINGS
@given(EQUATIONS)
def test_one_equation_unfold_equals_reference(e):
    check_one_equation_unfold(e)


@SETTINGS
@given(renamed(EQUATIONS))
def test_one_equation_unfold_equals_reference_over_all_terms(e):
    check_one_equation_unfold(e)


LONG_WORDS = st.text("ABxyz", max_size=200)


def check_count_check(e: Equation) -> None:
    assert letter_count(e.lhs) == reference.letter_count(e.lhs)
    assert count_unsat(e) == reference.count_unsat(e)


@SETTINGS
@given(st.builds(E, LONG_WORDS, LONG_WORDS))
def test_count_check_equals_reference(e):
    check_count_check(e)


@SETTINGS
@given(renamed(st.builds(E, LONG_WORDS, LONG_WORDS)))
def test_count_check_equals_reference_over_all_terms(e):
    check_count_check(e)


@SETTINGS
@given(st.one_of(EQUATIONS, LONG_EQUATIONS))
def test_count_check_of_a_reduced_equation_equals_that_of_its_pieces(e):
    # the rule simplify_equation relies on: split pieces are var-permutated
    # and stripped terms are common, so the core keeps every count difference
    e = reference.reduce(e)
    assume(e is not None)
    pieces = reference.split_pieces(Scheme.COUNT, e)
    if pieces is not None:
        assert reference.count_unsat(e) == any(reference.count_unsat(p) for p in pieces), (e, pieces)


@st.composite
def equal_length_equations(draw):
    """Two sides of one drawn length up to 200."""
    n = draw(st.integers(0, 200))
    side = st.text("ABxyz", min_size=n, max_size=n)
    return E(draw(side), draw(side))


@SETTINGS
@given(renamed(equal_length_equations()))
def test_count_check_refutes_no_equal_length_sides(e):
    # the side with more letters holds fewer variable occurrences, so some
    # variable occurs less often on it: the check returns before counting
    assert not reference.count_unsat(e)
    with patch.object(rewrite, "letter_count", wraps=letter_count) as counted:
        assert count_unsat(e) is False
    assert counted.call_count == 0


@st.composite
def letter_against_variable(draw):
    """An equation of ``EQUATIONS`` or ``LONG_EQUATIONS`` with a letter put
    in front of one side and a variable in front of the other."""
    e = draw(st.one_of(EQUATIONS, LONG_EQUATIONS))
    letter, variable = draw(st.sampled_from("AB")), draw(st.sampled_from("xyz"))
    return E(letter + e.lhs, variable + e.rhs) if draw(st.booleans()) else E(variable + e.lhs, letter + e.rhs)


@SETTINGS
@given(renamed(letter_against_variable()))
def test_split_scan_equals_reference_after_a_letter_against_a_variable(e):
    # the letters read differ from the first position on, so the scan looks
    # for a stretch to skip after one position, not after a window
    n = min(len(e.lhs), len(e.rhs))
    if n >= 2:
        assert _split_scan(e.lhs, e.rhs, 0, n) == reference.split_scan(e.lhs, e.rhs, exclude_full=False), e


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.builds(E, st.text("ABxyz", max_size=5), st.text("ABxyz", max_size=5)))
def test_simplify_equation_keeps_solutions(e):
    variables = system_variables([e]) or ["x"]
    want = reference.brute_solutions_over([e], "AB", 2, variables)
    for scheme in Scheme:
        pieces = simplify_equation(scheme, e)
        got = set() if pieces is None else reference.brute_solutions_over(pieces, "AB", 2, variables)
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


SIDES = st.text("ABxyz", min_size=1, max_size=6)
SYSTEMS = st.lists(st.builds(E, SIDES, SIDES), min_size=1, max_size=2)


@SETTINGS
@given(st.lists(st.builds(E, SIDES, SIDES), min_size=2, max_size=4), st.sampled_from([Scheme.SPLIT, Scheme.COUNT]), st.data())
def test_unfold_with_a_shared_memo_equals_unfold_without(pool, scheme, data):
    # States of two or three equations from one pool share equations, and so
    # do their children: later unfolds read the keys earlier ones wrote, and
    # the last pass over the states reads nothing else.
    memo = {}
    draw_state = st.lists(st.sampled_from(pool), min_size=2, max_size=3)
    states = [simplify(scheme, SystemState.of(data.draw(draw_state))) for _ in range(3)]
    children = [step(s, n, scheme) for s in states if s.is_eqs for n in compatible_narrowings(s)]
    for s in states + children + states:
        if s.is_eqs:
            for n in compatible_narrowings(s):
                assert _unfold(scheme, s, n, memo) == _unfold(scheme, s, n)


@st.composite
def mixed_length_labels(draw, scheme):
    """A label of two to four equations in drawn order, at least one short
    and one long: its touched equations are simplified out of label order.
    A long side holds 20 to 300 variables over ``xyz`` with up to four
    letters put in, made by a ``Random`` of a drawn seed, as text draws of
    that size are slow."""
    rng = random.Random(draw(st.integers(0, 2**32)))

    def sparse_word():
        word = rng.choices("xyz", k=rng.randint(20, 300))
        for _ in range(rng.randint(0, 4)):
            word.insert(rng.randint(0, len(word)), rng.choice("AB"))
        return "".join(word)

    short, long = st.builds(E, SIDES, SIDES), st.builds(lambda: E(sparse_word(), sparse_word()))
    system = [draw(short), draw(long)] + draw(st.lists(st.one_of(short, long), max_size=2))
    s = simplify(scheme, SystemState.of(draw(st.permutations(system))))
    assume(s.is_eqs and len(s.equations) >= 2)
    return s


@SETTINGS
@given(st.sampled_from([Scheme.SPLIT, Scheme.COUNT]), st.data())
def test_unfold_with_a_filled_memo_equals_substitute_then_simplify(scheme, data):
    # Earlier unfolds of labels made of some of the label's equations fill
    # the memo, contradictions included, before the label itself unfolds.
    s = data.draw(mixed_length_labels(scheme))
    narrowings = compatible_narrowings(s)
    memo = {}
    for _ in range(data.draw(st.integers(0, 3))):
        sub = data.draw(st.lists(st.sampled_from(s.equations), min_size=2, max_size=3, unique=True))
        for n in narrowings:
            _unfold(scheme, SystemState.of(sub), n, memo)
    for n in narrowings:
        assert _unfold(scheme, s, n, memo) == simplify(scheme, reference.apply_to_state(n, s)), n
    for (eq, var, target), pieces in memo.items():
        (substituted,) = reference.apply_to_state(Narrowing(var, target), SystemState.of([eq])).equations
        assert pieces == simplify_equation(scheme, substituted)


@SETTINGS
@given(SYSTEMS, st.sampled_from(list(Scheme)))
def test_edges_follow_the_unfold_step(system, scheme):
    # Nodes with equal labels share one expansion per build; every node's
    # edges must still be the ones its own label unfolds to.
    assume(scheme is not Scheme.BASE or len(system) == 1)
    graph = build(system, scheme, Budget(max_nodes=300)).graph
    nodes = graph.nodes
    for parent in graph.expanded:
        out = graph.out_edges(parent)
        label = nodes[parent].label
        assert [n for n, _ in out] == list(reference.compatible_narrowings(label))
        for n, child in out:
            assert nodes[child].label == step(label, n, scheme)
            assert nodes[child].depth == nodes[parent].depth + 1


@SETTINGS
@given(
    st.lists(st.builds(E, WORDS, WORDS), min_size=1, max_size=2),
    st.sampled_from(list(Scheme)),
    st.integers(1, 400),
    st.integers(1, 30),
    st.booleans(),
)
def test_build_equals_reference_build(system, scheme, max_nodes, max_depth, early_stop):
    # Keying folds and expansions on equation tuples changes how a build finds
    # folds and reuses expansions, not what it builds: nodes, edges in insertion
    # order, the stop reason and the verdict all equal the label-keyed loop's,
    # and the witness the build records is the one a breadth-first walk finds.
    # The depths the graph derives from its first children equal the ones the
    # loop counted on its own Node list.
    assume(scheme is not Scheme.BASE or len(system) == 1)
    budget = Budget(max_nodes=max_nodes, max_depth=max_depth)
    got = build(system, scheme, budget, early_stop=early_stop)
    want, want_nodes = reference.build(system, scheme, budget, early_stop=early_stop)
    nodes = got.graph.nodes  # derived from the labels and first children
    assert all(type(node) is Node for node in nodes)
    eqs_labels = [label for label in got.graph.labels if label.is_eqs]  # equal labels share one object
    assert len({id(label) for label in eqs_labels}) == len({label.equations for label in eqs_labels})
    assert [tuple(node) for node in nodes] == [tuple(node) for node in want_nodes]
    assert got.graph.max_depth() == max(node.depth for node in want_nodes)
    assert got.graph.tree_edges == want.graph.tree_edges
    assert got.graph.back_edges == want.graph.back_edges
    assert (got.graph.expanded, got.graph.firsts) == (want.graph.expanded, want.graph.firsts)
    assert got.reason == want.reason
    assert verdict(got) == reference.verdict(want)
    assert min_witness(got.graph) == reference.min_witness(want.graph)


@settings(derandomize=True, deadline=None, max_examples=1000)  # ~0.4 % of draws: first T-leaf not shallowest
@given(SYSTEMS, st.sampled_from(list(Scheme)), st.integers(1, 400), st.integers(1, 30), st.booleans())
@example([E("xyA", "zxzBBA")], Scheme.COUNT, 400, 30, False)  # its first T-leaf is not the shallowest
def test_min_witness_equals_breadth_first_walk(system, scheme, max_nodes, max_depth, early_stop):
    # The witness read off the tree, to the T-leaf of least (depth, id), is
    # the program of the walk a breadth-first search over every edge finds.
    assume(scheme is not Scheme.BASE or len(system) == 1)
    graph = build(system, scheme, Budget(max_nodes=max_nodes, max_depth=max_depth), early_stop=early_stop).graph
    assert min_witness(graph) == reference.min_witness(graph)


@SETTINGS
@given(
    SYSTEMS,
    st.sampled_from(list(Scheme)),
    st.sampled_from([20, 100, 400]),
    st.integers(0, 3),
    st.integers(0, 12),
    st.sampled_from(["A", "AB", "ABC", None]),
)
def test_enumerate_equals_reference(system, scheme, max_nodes, max_len, max_path, alphabet):
    assume(scheme is not Scheme.BASE or len(system) == 1)  # base takes one equation
    graph = build(system, scheme, Budget(max_nodes=max_nodes)).graph
    unpatched = solutions._normal

    def normal(*args):  # no walk state holds a value over the letter bound
        state = unpatched(*args)
        assert all(letter_count(v) <= max_len for v in state[1])
        return state

    with patch.object(solutions, "_normal", normal):
        got = enumerate_solutions(graph, max_len, max_path, alphabet)
    want = reference.enumerate_solutions(graph, max_len, max_path, alphabet)
    assert got == want


@settings(derandomize=True, deadline=None, max_examples=200)
@given(SYSTEMS)
def test_verdicts_agree_with_witnesses_and_oracle(system):
    outcome = build(system, Scheme.COUNT, Budget(max_nodes=400))
    result = verdict(outcome)
    variables = system_variables(system)
    if result == SAT:
        witness = min_witness(outcome.graph)
        assert verify(witness, system, Scheme.COUNT)
        # the composed values solve the system as they stand, and so does
        # their ground instance with every residual variable erased
        solution = {x: reference.compose_value(witness, x) for x in variables}
        assert satisfies(system, solution)
        erase = dict.fromkeys(map(ord, "xyz"))
        assert satisfies(system, {x: v.translate(erase) for x, v in solution.items()})
    elif result == UNSAT:
        # complete graph, no T-leaf: no solution at a larger value bound
        # than the acceptance suite's oracle check uses
        assert outcome.complete
        assert brute_solutions(system, "AB", 3) == set()
