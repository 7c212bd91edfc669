import random

import pytest

from wordeq import graph as graph_module
from wordeq.core import Equation, SystemState
from wordeq.graph import (
    FLEAF,
    SAT,
    TLEAF,
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
from wordeq.narrow import step
from reference import internal_nodes

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
    targets = {g.node(src).label: dst for src, dst in g.back_edges}
    assert targets[g.node(0).label] == 0
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
    root_label = serialize_system(list(g.node(0).label.equations))
    assert root_label == "y B z = z y\nx x A = A x x"
    assert all(g.node(dst).id == 0 for _, dst in g.back_edges)
    assert len(g.back_edges) == 2


def test_triptych_count_is_immediate():
    outcome = build(parse_system("x x A y B z = A x x z y"), Scheme.COUNT)
    assert outcome.complete
    assert verdict(outcome) == UNSAT
    assert len(outcome.graph.nodes) == 1
    assert outcome.graph.node(0).kind == FLEAF


def test_nodes_are_immutable():
    node = build(parse_system("A x y = x y A"), Scheme.BASE).graph.node(0)
    for name, value in (("kind", FLEAF), ("label", node.label), ("depth", 1)):
        with pytest.raises(AttributeError):
            setattr(node, name, value)


def test_memo_fold_onto_dead_end_is_fleaf():
    # under memo folding node 3 (B =) folds onto node 1, a dead end with the same label
    g = build(parse_system("A B x = x A"), Scheme.BASE, fold="memo").graph
    assert g.fold_target == {3: 1, 4: 0}
    assert g.node(1).kind == g.node(3).kind == FLEAF
    assert '  n3 [shape=diamond, label="F: B ="];' in to_dot(g).splitlines()


def test_build_rejects_empty_system():
    with pytest.raises(ValueError):
        build([], Scheme.BASE)
    with pytest.raises(ValueError):
        build([E("x", "A"), E("y", "B")], Scheme.BASE)


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
        parents = {child: parent for parent, _, child in g.tree_edges}
        for src, dst in g.back_edges:
            assert g.node(src).label == g.node(dst).label
            nid = src
            seen = []
            while nid in parents:
                nid = parents[nid]
                seen.append(nid)
            assert dst in seen, "fold target must be a proper ancestor"


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


def _graph_programs(graph, depth):
    """Accepted programs of bounded walks, unrolling back edges."""
    out = set()

    def go(nid, prefix):
        node = graph.node(nid)
        if node.kind == TLEAF:
            out.add(prefix)
            return
        for narrowing, child in graph.edges_from(nid):
            if narrowing is None:
                go(child, prefix)
            elif len(prefix) < depth:
                go(child, prefix + (narrowing,))

    go(graph.root, ())
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
    for fold in ("ancestor", "memo"):
        outcome = build(system, scheme, Budget(max_nodes=5000), fold=fold)
        assert outcome.complete
        for depth in depths:
            programs = _graph_programs(outcome.graph, depth)
            assert programs == _tree_programs(system, scheme, depth), fold


def test_memo_mode_same_language():
    system = parse_system("A x y = x y A")
    ancestor = build(system, Scheme.BASE)
    memo = build(system, Scheme.BASE, fold="memo")
    assert verdict(ancestor) == verdict(memo) == SAT
    assert _graph_programs(ancestor.graph, 8) == _graph_programs(memo.graph, 8)


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


@pytest.fixture
def step_calls(monkeypatch):
    """The (label, narrowing) pairs ``build`` unfolds, in call order."""
    calls = []
    unfold = graph_module.step
    monkeypatch.setattr(graph_module, "step", lambda s, n, scheme: calls.append((s, n)) or unfold(s, n, scheme))
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


def test_max_depth_budget():
    outcome = build(parse_system("x x A y B z = A x x z y"), Scheme.BASE, Budget(max_depth=3))
    assert not outcome.complete
    assert outcome.reason == "max_depth"
    assert verdict(outcome) == UNKNOWN


def test_labels_hold_each_equation_once():
    # splitting in this build yields many copies of `z B = B z` (421 in a
    # label of 423 equations, were copies kept); keeping one changes
    # neither the node count, nor the back edges, nor the verdict
    outcome = build(parse_system("y y x A z B = x z B z x"), Scheme.COUNT, Budget(max_nodes=3000))
    g = outcome.graph
    assert all(len(set(n.label.equations)) == len(n.label.equations) for n in g.nodes)
    assert len(g.nodes) == 3000
    assert len(g.back_edges) == 0
    assert outcome.reason == "max_nodes"
    assert verdict(outcome) == UNKNOWN
