"""Property tests of reduction, of the split loop, of one-equation unfolds,
of the count check, of duplicate-free labels, of unfolds with and without
an equation memo, of graph edges against the unfold step, of builds against
the reference build, of witnesses against a breadth-first walk, of bounded
enumeration, and of verdicts against witnesses and the oracle."""

from unittest.mock import patch

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from wordeq import solutions
from wordeq.core import ACCEPTED, CONTRADICTION, Equation, SystemState, letter_count
from wordeq.graph import SAT, UNSAT, Budget, Node, build, verdict
from wordeq.narrow import compatible_narrowings, step
from wordeq.oracle import brute_solutions, satisfies, system_variables
from wordeq.rewrite import Scheme, _split_pieces, _unfold, count_unsat, reduce, simplify, simplify_equation
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
@given(st.one_of(st.builds(lambda p, e, q: E(p + e.lhs + q, p + e.rhs + q), WORDS, EQUATIONS, WORDS), LONG_EQUATIONS))
def test_reduce_equals_reference(e):
    # common ends of any length around any equation, then long sides
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


@SETTINGS
@given(EQUATIONS)
def test_one_equation_unfold_equals_reference(e):
    # A one-equation label takes a branch of its own in ``_unfold``; check it,
    # at the root and at each narrowing of a one-equation root label, against
    # substitution, reduction, the split loop and the count check.
    for scheme in Scheme:
        root = SystemState.of([e])
        label = plain_unfold(scheme, root, None)
        assert _unfold(scheme, root, None) == label
        if label.is_eqs and len(label.equations) == 1:
            for n in reference.compatible_narrowings(label):
                assert _unfold(scheme, label, n) == plain_unfold(scheme, label, n), (scheme, label, n)


LONG_WORDS = st.text("ABxyz", max_size=200)


@SETTINGS
@given(LONG_WORDS, LONG_WORDS)
def test_count_check_equals_reference(lhs, rhs):
    assert letter_count(lhs) == reference.letter_count(lhs)
    assert count_unsat(E(lhs, rhs)) == reference.count_unsat(E(lhs, rhs))


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
