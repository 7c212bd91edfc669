import random
import sys
import tracemalloc
from array import array

import pytest

from wordeq import graph as graph_module
from wordeq import rewrite as rewrite_module
from wordeq.core import CONTRADICTION, Equation, Narrowing, SystemState
from wordeq.graph import (
    SAT,
    UNKNOWN,
    UNSAT,
    Budget,
    build,
    to_dot,
    verdict,
)
from wordeq.narrow import compatible_narrowings
from wordeq.oracle import brute_solutions
from wordeq.parse import parse_system, serialize_system
from wordeq.rewrite import Scheme, simplify
from wordeq.solutions import Solution, enumerate_solutions
from wordeq.narrow import step
from wordeq.witness import verify
from reference import accepted_programs, internal_nodes
from generators import gen_instance

E = Equation

FIG3B_DOT = """digraph solution_graph {
  rankdir=TB;
  n0 [shape=box, label="A x y = x y A"];
  n1 [shape=box, label="A y = y A"];
  n2 [shape=box, label="A x y = x y A"];
  n3 [shape=doublecircle, label="T"];
  n4 [shape=box, label="A y = y A"];
  n0 -> n1 [label="x ->"];
  n0 -> n2 [label="x -> A x"];
  n1 -> n3 [label="y ->"];
  n1 -> n4 [label="y -> A y"];
  n4 -> n1 [style=dashed];
  n2 -> n0 [style=dashed];
}
"""


def test_fig3b_structure():
    outcome = build(parse_system("A x y = x y A"), Scheme.BASE)
    g = outcome.graph
    assert outcome.complete
    assert verdict(outcome) == SAT
    assert len(internal_nodes(g)) == 2
    assert len(g.t_leaves()) == 1
    assert len(g.back_edges) == 2
    # the x -> A x branch folds to the root, y -> A y to the child
    nodes = g.nodes
    targets = {nodes[src].label: dst for src, dst in g.back_edges}
    assert targets[nodes[0].label] == 0
    assert to_dot(g) == FIG3B_DOT


def test_triptych_base_budget():
    outcome = build(parse_system("x x A y B z = A x x z y"), Scheme.BASE, Budget(max_nodes=1000))
    assert not outcome.complete
    assert outcome.reason == "max_nodes"
    assert verdict(outcome) == UNKNOWN


def test_triptych_split_folds_the_loop():
    outcome = build(parse_system("x x A y B z = A x x z y"), Scheme.SPLIT)
    g = outcome.graph
    assert outcome.complete
    assert verdict(outcome) == UNSAT
    nodes = g.nodes
    root_label = serialize_system(list(nodes[0].label.equations))
    assert root_label == "y B z = z y\nx x A = A x x"
    assert all(nodes[dst].id == 0 for _, dst in g.back_edges)
    assert len(g.back_edges) == 2


def test_triptych_count_is_immediate():
    outcome = build(parse_system("x x A y B z = A x x z y"), Scheme.COUNT)
    assert outcome.complete
    assert verdict(outcome) == UNSAT
    assert len(outcome.graph.nodes) == 1
    assert outcome.graph.nodes[0].label.is_contradiction


def test_nodes_are_immutable():
    node = build(parse_system("A x y = x y A"), Scheme.BASE).graph.nodes[0]
    for name, value in (("label", node.label), ("depth", 1)):
        with pytest.raises(AttributeError):
            setattr(node, name, value)


def test_build_rejects_empty_system():
    with pytest.raises(ValueError):
        build([], Scheme.BASE)
    with pytest.raises(ValueError):
        build([E("x", "A"), E("y", "B")], Scheme.BASE)


def test_build_reads_an_iterator_system_once():
    # an iterator of equations builds the graph of its list, and an empty
    # one is rejected as an empty list is
    system = parse_system("A x y = x y A")
    outcome = build(iter(system), Scheme.COUNT)
    want = build(system, Scheme.COUNT)
    assert outcome.graph.system == tuple(system)
    assert to_dot(outcome.graph) == to_dot(want.graph)
    assert enumerate_solutions(outcome.graph, 1, 8) == enumerate_solutions(want.graph, 1, 8)
    assert Solution.of({"x": "", "y": ""}) in enumerate_solutions(outcome.graph, 1, 8)
    with pytest.raises(ValueError, match="empty system"):
        build(iter([]), Scheme.COUNT)


@pytest.mark.parametrize("text", ["x A = A x\ny = B", "x A y = y A x\nx B = B x", "x A = B x\ny = y", "A x = x A\nx = x"])
def test_plain_pairs_act_as_parsed_equations(text):
    # every reader takes an equation as any (lhs, rhs) pair, not only as an Equation
    system = parse_system(text)
    pairs = [(lhs, rhs) for lhs, rhs in system]
    assert all(type(p) is tuple for p in pairs)
    for scheme in ("split", "count"):
        got, want = build(pairs, scheme), build(system, scheme)
        assert got.graph.labels == want.graph.labels
        assert got.graph.folds == want.graph.folds
        assert got.graph.witness == want.graph.witness
        assert verdict(got) == verdict(want)
        if want.graph.witness is not None:
            assert verify(want.graph.witness, pairs, scheme) is verify(want.graph.witness, system, scheme) is True
        assert verify([Narrowing("x", "")], pairs, scheme) is verify([Narrowing("x", "")], system, scheme)
        assert simplify(scheme, SystemState.of(pairs)) == simplify(scheme, SystemState.of(system))
    assert brute_solutions(pairs, None, 2) == brute_solutions(system, None, 2)
    assert serialize_system(pairs) == serialize_system(system) == text


def test_scheme_by_value():
    """Each entry point takes a scheme's value for the member; any other
    value raises, rather than run as some scheme."""
    system = parse_system("x x A = A x")
    for scheme in Scheme:
        assert to_dot(build(system, scheme.value).graph) == to_dot(build(system, scheme).graph)
    assert len(build(system, "count").graph.labels) == 2
    with pytest.raises(ValueError):
        build(system, "bogus")
    with pytest.raises(ValueError):
        verify((), system, "bogus")
    with pytest.raises(ValueError):
        simplify("base", SystemState.of([E("x", "A"), E("y", "B")]))


def test_back_edges_target_ancestors():
    rng = random.Random(30)
    for _ in range(80):
        terms = "AB" + "xyz"[: rng.randint(1, 3)]
        system = [
            E(
                "".join(rng.choice(terms) for _ in range(rng.randint(1, 5))),
                "".join(rng.choice(terms) for _ in range(rng.randint(1, 5))),
            )
            for _ in range(rng.randint(1, 2))
        ]
        outcome = build(system, Scheme.SPLIT, Budget(max_nodes=2000))
        g = outcome.graph
        nodes = g.nodes
        parents = {child: parent for parent, _, child in g.tree_edges}
        for src, dst in g.back_edges:
            assert nodes[src].label == nodes[dst].label
            nid = src
            seen = []
            while nid in parents:
                nid = parents[nid]
                seen.append(nid)
            assert dst in seen, "fold target must be a proper ancestor"
        folds = dict(g.back_edges)
        first_child = dict(zip(g.expanded, g.firsts))
        assert folds == g.folds and not folds.keys() & first_child.keys()
        for src in range(len(nodes)):
            out = g.out_edges(src)
            if src in folds:
                assert out == [(None, folds[src])]
            elif src in first_child:  # consecutive children from the first one
                assert out and all(isinstance(n, Narrowing) for n, _ in out)
                assert [dst for _, dst in out] == list(range(first_child[src], first_child[src] + len(out)))
            else:
                assert out == []
        assert len(g.tree_edges) + len(g.back_edges) == sum(len(g.out_edges(n.id)) for n in nodes)


def test_determinism():
    system = parse_system("x x A y B z = A x x z y")
    first = to_dot(build(system, Scheme.SPLIT).graph)
    second = to_dot(build(system, Scheme.SPLIT).graph)
    assert first == second


def _tree_programs(system, scheme, depth):
    """Reference: accepted programs of a budget-free expansion, no folding."""
    out = set()

    def go(state, prefix):
        if state.is_accepted:
            out.add(prefix)
            return
        if not state.is_eqs or len(prefix) == depth:
            return
        for n in compatible_narrowings(state):
            go(step(state, n, scheme), prefix + (n,))

    go(simplify(scheme, SystemState.of(system)), ())
    return out


@pytest.mark.parametrize(
    "text,scheme,depths",
    [
        ("A x y = x y A", Scheme.BASE, (4, 8, 12)),
        ("x y = y x", Scheme.BASE, (4, 8)),
        ("x y = y x", Scheme.COUNT, (4, 8)),
        ("x x A y B z = A x x z y", Scheme.SPLIT, (4, 8)),
        ("x A = A x", Scheme.BASE, (4, 8, 12)),
        ("A B x x y y = x x y y B A", Scheme.COUNT, (4, 8, 12)),
    ],
)
def test_folding_preserves_accepted_programs(text, scheme, depths):
    system = parse_system(text)
    outcome = build(system, scheme, Budget(max_nodes=5000))
    assert outcome.complete
    for depth in depths:
        assert set(accepted_programs(outcome.graph, depth)) == _tree_programs(system, scheme, depth)


def test_unsat_verdict_is_sound():
    rng = random.Random(31)
    hits = 0
    for _ in range(150):
        terms = "AB" + "xy"[: rng.randint(1, 2)]
        system = [
            E(
                "".join(rng.choice(terms) for _ in range(rng.randint(1, 5))),
                "".join(rng.choice(terms) for _ in range(rng.randint(1, 5))),
            )
        ]
        outcome = build(system, Scheme.COUNT, Budget(max_nodes=2000))
        if outcome.complete and verdict(outcome) == UNSAT:
            hits += 1
            assert not brute_solutions(system, "AB", 4)
    assert hits > 30


def test_dot_single_leaf_cases():
    accepted = build(parse_system("A = A"), Scheme.BASE)
    assert verdict(accepted) == SAT
    assert to_dot(accepted.graph) == (
        'digraph solution_graph {\n  rankdir=TB;\n  n0 [shape=doublecircle, label="T"];\n}\n'
    )
    contradiction = build(parse_system("x A = x B x"), Scheme.BASE)
    assert verdict(contradiction) == UNSAT
    assert to_dot(contradiction.graph) == (
        'digraph solution_graph {\n  rankdir=TB;\n  n0 [shape=diamond, label="F"];\n}\n'
    )


def test_dot_text_is_copied_once():
    """``to_dot`` joins its lines once: at its peak it holds the lines and
    the text, not a second copy of the text as well."""
    graph = build(parse_system("x x A = A x"), Scheme.BASE, Budget(max_nodes=4001)).graph
    tracemalloc.start()
    try:
        text = to_dot(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graph.labels) == 4001
    assert peak <= 2.6 * len(text), peak / len(text)


def test_dot_prune_drops_rejecting_branches():
    outcome = build(parse_system("x y = A"), Scheme.BASE)
    full = to_dot(outcome.graph)
    pruned = to_dot(outcome.graph, prune=True)
    assert 'label="F' in full
    assert 'label="F' not in pruned
    assert 'label="T"' in pruned


def test_early_stop_keeps_sat_verdict():
    for text in ("A x y = x y A", "x y = y x", "x A = A x"):
        system = parse_system(text)
        full = build(system, Scheme.COUNT)
        early = build(system, Scheme.COUNT, early_stop=True)
        assert verdict(full) == verdict(early) == SAT
        assert len(early.graph.nodes) <= len(full.graph.nodes)


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_nodes=0)
    with pytest.raises(ValueError):
        Budget(max_depth=0)
    with pytest.raises(ValueError):
        Budget(timeout_ms=-1)
    with pytest.raises(ValueError):
        Budget(timeout_ms=float("nan"))
    with pytest.raises(ValueError):
        Budget(max_nodes=float("nan"))
    with pytest.raises(ValueError):
        Budget(max_depth=float("nan"))
    budget = Budget()
    assert (budget.max_nodes, budget.max_depth, budget.timeout_ms) == (1_000_000, 10_000, None)
    assert Budget(5, 6, 7.0) == Budget(max_nodes=5, max_depth=6, timeout_ms=7.0)
    for name in ("max_nodes", "max_depth", "timeout_ms"):
        with pytest.raises(AttributeError):
            setattr(budget, name, 1)


@pytest.fixture
def step_calls(monkeypatch):
    """The (label, narrowing) pairs ``build`` unfolds, in call order."""
    calls = []
    unfold = graph_module.step
    monkeypatch.setattr(graph_module, "step", lambda s, n, *rest: calls.append((s, n)) or unfold(s, n, *rest))
    return calls


def test_each_label_is_unfolded_once_per_build(step_calls):
    # Criterion 4's equation under base: its 604 tree edges come from 144
    # distinct (label, narrowing) pairs, and only those are unfolded.
    system = parse_system("x y z A B A B A B = A A A B B B y z x")
    outcome = build(system, Scheme.BASE, Budget(max_nodes=200_000))
    assert len(outcome.graph.nodes) == 605
    assert len(outcome.graph.tree_edges) == 604
    assert outcome.complete and verdict(outcome) == UNSAT
    assert len(step_calls) == len(set(step_calls)) == 144
    # the table lives in one build: a second build unfolds everything again
    build(system, Scheme.BASE, Budget(max_nodes=200_000))
    assert len(step_calls) == 288


def test_budget_refusal_unfolds_nothing(step_calls):
    # the root has two narrowings, one more node than the budget allows
    outcome = build(parse_system("A x y = x y A"), Scheme.BASE, Budget(max_nodes=2))
    assert outcome.reason == "max_nodes"
    assert len(outcome.graph.nodes) == 1
    assert step_calls == []


def memo_model_unfold(s, n, scheme, known):
    """An unfold of ``s`` by ``n`` as its build's memo sees it, given
    ``known``: the memo's keys ``(equation, variable, target)``, each mapped
    to whether it is a contradiction.

    The equations ``n`` substitutes are read in label order, and a known
    contradiction ends the unfold before anything is simplified.  Otherwise
    those not yet known are simplified in label order up to the first
    contradiction, and the key of each one simplified is added.  Returns the
    memo hits, the substituted equations simplified in call order, the
    entries added, and whether the unfold ends in a contradiction."""
    replacement = n.target + n.var if n.target else ""
    hits, misses = 0, []
    for eq in s.equations:
        if n.var in eq.lhs or n.var in eq.rhs:
            key = (eq, n.var, n.target)
            if key not in known:
                misses.append(key)
                continue
            hits += 1
            if known[key]:
                return hits, [], {}, True
    simplified, added = [], {}
    for key in misses:
        eq = key[0]
        simplified.append(E(eq.lhs.replace(n.var, replacement), eq.rhs.replace(n.var, replacement)))
        added[key] = rewrite_module.simplify_equation(scheme, simplified[-1]) is None
        if added[key]:
            return hits, simplified, added, True
    return hits, simplified, added, False


def test_equation_memo_calls_and_lifetime(monkeypatch):
    # Under count, this equation grows labels of up to three equations that
    # share equations.  A one-equation label is simplified at each of its
    # unfolds; an equation of a longer label is simplified only when its key
    # is not yet in the build's memo, which holds the key of every equation
    # simplified, up to the contradiction of an unfold that ends in one.
    system = parse_system("y y x A z B = x z B z x")
    simplified, unfolds, memos = [], [], []
    simplify_equation = rewrite_module.simplify_equation
    monkeypatch.setattr(
        rewrite_module, "simplify_equation", lambda scheme, eq: simplified.append(eq) or simplify_equation(scheme, eq)
    )
    unfold = graph_module.step

    def step(s, n, scheme, memo):
        before = len(simplified)
        child = unfold(s, n, scheme, memo)
        unfolds.append((s, n, child, simplified[before:]))
        memos.append(memo)
        return child

    monkeypatch.setattr(graph_module, "step", step)
    outcome = build(system, Scheme.COUNT, Budget(max_nodes=300))
    assert outcome.reason == "max_nodes" and len(outcome.graph.labels) == 300
    memo = memos[0]
    assert all(m is memo for m in memos)
    with monkeypatch.context() as m:
        m.setattr(rewrite_module, "simplify_equation", simplify_equation)
        known, hits, multi = {}, 0, 0
        for s, n, child, calls in unfolds:
            if len(s.equations) == 1:
                assert len(calls) == 1
                continue
            multi += 1
            read, want, added, refuted = memo_model_unfold(s, n, Scheme.COUNT, known)
            assert calls == want
            assert (child is CONTRADICTION) == refuted
            hits += read
            known.update(added)
    assert set(memo) == set(known)
    assert {key for key, pieces in memo.items() if pieces is None} == {key for key, refuted in known.items() if refuted}
    assert multi > 200 and hits > 200  # the labels do share equations
    assert len(simplified) < len(unfolds)
    # the memo dies with its build: nothing else holds it, and a second
    # build simplifies the same equations again into a new one
    memos.clear()
    assert sys.getrefcount(memo) == 2  # this name and the argument
    first = list(simplified)
    build(system, Scheme.COUNT, Budget(max_nodes=300))
    assert simplified[len(first) :] == first
    assert memos[0] is not memo and set(memos[0]) == set(known)


def test_one_equation_builds_leave_the_memo_empty(monkeypatch):
    # Criterion 4's equation under base: every label holds one equation, and
    # the label table already unfolds each once per build
    memos = []
    unfold = graph_module.step
    monkeypatch.setattr(graph_module, "step", lambda s, n, scheme, memo: memos.append(memo) or unfold(s, n, scheme, memo))
    outcome = build(parse_system("x y z A B A B A B = A A A B B B y z x"), Scheme.BASE, Budget(max_nodes=200_000))
    assert len(outcome.graph.labels) == 605
    assert len(memos) == 144 and memos[0] == {} and all(m is memos[0] for m in memos)


def test_max_depth_budget():
    outcome = build(parse_system("x x A y B z = A x x z y"), Scheme.BASE, Budget(max_depth=3))
    assert not outcome.complete
    assert outcome.reason == "max_depth"
    assert verdict(outcome) == UNKNOWN


def test_dead_end_at_the_depth_limit_completes():
    # the root's one child, `B =`, is a dead end: it has nothing to expand,
    # so the depth limit does not cut it off
    outcome = build(parse_system("x B ="), Scheme.BASE, Budget(max_depth=1))
    assert verdict(outcome) == UNSAT and outcome.complete
    assert len(outcome.graph.labels) == 2


def test_graph_keeps_an_expansion_log():
    # the expanded nodes and their first children, in expansion order, as two
    # int arrays, and ``out_edges`` agrees with the tree and back edges at
    # every node
    outcome = build(parse_system("x x A y B z = A x x z y"), Scheme.BASE, Budget(max_nodes=3000))
    g = outcome.graph
    assert len(g.labels) > 2000 and len(g.back_edges) > 500
    for log in (g.expanded, g.firsts):
        assert type(log) is array and log.typecode == "l"
    edges = {}
    for src, n, dst in g.tree_edges:
        edges.setdefault(src, []).append((n, dst))
    for src, dst in g.back_edges:
        edges.setdefault(src, []).append((None, dst))
    assert all(g.out_edges(nid) == edges.get(nid, []) for nid in range(len(g.labels)))


def test_graph_stores_labels_and_derives_nodes():
    # a graph stores one label per node; the nodes, depths included, are
    # made from the labels and the first children on each read
    outcome = build(parse_system("x x A y B z = A x x z y"), Scheme.BASE, Budget(max_depth=3))
    g = outcome.graph
    assert outcome.reason == "max_depth"
    assert type(g.labels) is list and all(type(label) is SystemState for label in g.labels)
    nodes = g.nodes
    assert len(g.labels) == len(nodes) > 1
    assert [(n.id, n.label) for n in nodes] == list(enumerate(g.labels))
    assert nodes[0].depth == 0
    assert all(nodes[child].depth == nodes[parent].depth + 1 for parent, _, child in g.tree_edges)
    assert g.max_depth() == max(n.depth for n in nodes) == 3
    assert g.nodes is not g.nodes  # derived, not stored


def test_labels_hold_each_equation_once():
    # splitting in this build yields many copies of `z B = B z` (421 in a
    # label of 423 equations, were copies kept); keeping one changes
    # neither the node count, nor the back edges, nor the verdict
    outcome = build(parse_system("y y x A z B = x z B z x"), Scheme.COUNT, Budget(max_nodes=3000))
    g = outcome.graph
    nodes = g.nodes
    assert all(len(set(n.label.equations)) == len(n.label.equations) for n in nodes)
    eqs_labels = [n.label for n in nodes if n.label.is_eqs]  # equal labels share one object
    assert len({id(label) for label in eqs_labels}) == len({label.equations for label in eqs_labels}) == 1288
    assert len(nodes) == 3000
    assert len(g.back_edges) == 0
    assert outcome.reason == "max_nodes"
    assert verdict(outcome) == UNKNOWN


@pytest.mark.parametrize("text, nodes, back_edges, labels", [
    ("u u B B y x = z A B z y x B", 23_257, 1557, 642),
    ("z x x A A A B z A u = u y y", 209_601, 17_691, 5127),
])
def test_quadratic_draws_that_need_a_large_tree(text, nodes, back_edges, labels):
    # two quadratic draws the benchmark corpus drops for not completing within
    # its node budget: ancestor folding completes them, UNSAT, on few labels
    system = parse_system(text)
    outcome = build(system, Scheme.BASE)
    g = outcome.graph
    assert outcome.complete and verdict(outcome) == UNSAT
    graph_nodes = g.nodes
    assert len(graph_nodes) == nodes
    assert len(g.back_edges) == back_edges
    assert len({n.label.equations for n in graph_nodes if n.label.is_eqs}) == labels
    assert brute_solutions(system, "AB", 2) == set()


def test_quadratic_labels_never_outgrow_the_root():
    # Nielsen's argument: on an equation with every variable at most twice,
    # a step and the cancelling after it keep the term count at most the root's
    def terms(label):
        return sum(len(e.lhs) + len(e.rhs) for e in label.equations)

    for length in (8, 12):
        for seed in range(200):
            system = gen_instance("quadratic", seed, length=length)
            for scheme in (Scheme.BASE, Scheme.COUNT):
                nodes = build(system, scheme, Budget(max_nodes=20_000)).graph.nodes
                root = terms(nodes[0].label)
                assert all(terms(n.label) <= root for n in nodes), (length, seed, scheme)
