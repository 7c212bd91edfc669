"""
Acceptance suite.  Each test runs one acceptance criterion end to end at
its stated tolerance and prints a single PASS/FAIL line (run pytest with
``-s`` to see them all).
"""

import random
import time
from itertools import product

from wordeq.core import Equation, compose_value, ground_words
from wordeq.graph import SAT, UNKNOWN, UNSAT, Budget, build, to_dot, verdict
from wordeq.oracle import brute_solutions, satisfies, system_variables
from wordeq.parse import parse_system
from wordeq.rewrite import Scheme
from wordeq.solutions import enumerate_solutions, min_witness
from wordeq.witness import verify
from generators import gen_instance
from reference import accepted_programs, internal_nodes

E = Equation

GOLDEN_FIG3B_DOT = """digraph solution_graph {
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


def _report(number: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_figure_graph_reproduction():
    # The solutions are exactly x = A^i, y = A^j.  At the root only x
    # narrowings are compatible (the heads are A and x), and each solution
    # is accepted by exactly one program, (x->Ax)^i x-> (y->Ay)^j y->.
    # So the graph has one accepting arc, the y-erase at A y = y A, and
    # one T-leaf, which is also the one doublecircle node of the golden.
    started = time.monotonic()
    outcome = build(parse_system("A x y = x y A"), Scheme.BASE)
    elapsed = time.monotonic() - started
    g = outcome.graph
    internal = len(internal_nodes(g))
    tleaves = len(g.t_leaves())
    backs = len(g.back_edges)
    sat = verdict(outcome) == SAT
    golden = to_dot(g) == GOLDEN_FIG3B_DOT
    ok = internal == 2 and tleaves == 1 and backs == 2 and sat and golden and elapsed < 1.0
    detail = (
        f"internal={internal} (want 2), t_leaves={tleaves} (want 1), "
        f"back_edges={backs} (want 2), verdict={verdict(outcome)} (want SAT), "
        f"golden_dot={golden}, {elapsed:.2f}s"
    )
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_2_triptych():
    system = parse_system("x x A y B z = A x x z y")

    started = time.monotonic()
    base = build(system, Scheme.BASE, Budget(max_nodes=1000))
    t_base = time.monotonic() - started
    base_ok = verdict(base) == UNKNOWN and not base.complete and t_base < 1.0

    started = time.monotonic()
    split = build(system, Scheme.SPLIT)
    t_split = time.monotonic() - started
    loop_label = "y B z = z y\nx x A = A x x"
    from wordeq.parse import serialize_system

    root_serialized = serialize_system(list(split.graph.nodes[0].label.equations))
    split_ok = (
        split.complete
        and root_serialized == loop_label
        and any(dst == 0 for _, dst in split.graph.back_edges)
        and t_split < 1.0
    )

    started = time.monotonic()
    count = build(system, Scheme.COUNT)
    t_count = time.monotonic() - started
    count_ok = (
        verdict(count) == UNSAT and len(count.graph.nodes) <= 3 and t_count < 1.0
    )

    ok = base_ok and split_ok and count_ok
    detail = (
        f"base={verdict(base)}/{t_base:.2f}s, split folds loop={split_ok} "
        f"({len(split.graph.nodes)} nodes), count={verdict(count)} "
        f"({len(count.graph.nodes)} nodes)/{t_count:.2f}s"
    )
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_3_hard_instance():
    system = parse_system("A B x x y y = x x y y B A")
    results = {}
    ok = True
    for scheme in (Scheme.SPLIT, Scheme.COUNT):
        started = time.monotonic()
        outcome = build(system, scheme, Budget(max_nodes=10_000))
        elapsed = time.monotonic() - started
        results[scheme.value] = (verdict(outcome), len(outcome.graph.nodes), elapsed)
        ok = ok and verdict(outcome) == UNSAT and outcome.complete and elapsed < 5.0
    detail = ", ".join(
        f"{name}: {v} in {n} nodes/{t:.2f}s" for name, (v, n, t) in results.items()
    )
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_4_quadratic_benchmark_equation():
    # The equation is unsatisfiable over any alphabet.  With w = y z,
    # u = (AB)^3 and v = A^3 B^3 it reads x (w u) = (v w) x, so by the
    # conjugacy lemma (Lyndon & Schuetzenberger) w u and v w are conjugate,
    # or equal when x is empty.  Conjugation keeps the number of
    # occurrences of AA in a word read as a cycle.  The cycle of v w holds
    # 2 + aa(w) + [w ends in A] of them and the cycle of w u holds
    # aa(w) + [w ends in A] (2 and 0 when w is empty), so the two words are
    # never conjugate.  The graph must therefore complete with no T-leaf
    # and no witness, and the oracle must find no solution either.
    system = parse_system("x y z A B A B A B = A A A B B B y z x")
    started = time.monotonic()
    outcome = build(system, Scheme.BASE, Budget(max_nodes=200_000))
    elapsed = time.monotonic() - started
    result = verdict(outcome)
    tleaves = len(outcome.graph.t_leaves())
    no_witness = min_witness(outcome.graph) is None
    # the oracle's own loop: brute_solutions refuses these 127**3 (2.05 M) assignments
    names = system_variables(system)
    brute = {v for v in product(ground_words("AB", 6), repeat=len(names))
             if satisfies(system, dict(zip(names, v)))}
    ok = (
        result == UNSAT
        and outcome.complete
        and tleaves == 0
        and no_witness
        and brute == set()
        and elapsed < 10.0
    )
    detail = (
        f"verdict={result} (want UNSAT), complete={outcome.complete} (want True), "
        f"nodes={len(outcome.graph.nodes)}, t_leaves={tleaves} (want 0), "
        f"no_witness={no_witness}, brute_force_AB_6={len(brute)} (want 0), "
        f"{elapsed:.2f}s"
    )
    _report(4, ok, detail)
    assert ok, detail


def _termination_suite(kind, scheme, **kwargs):
    budget = Budget(max_nodes=100_000)
    failures = []
    worst = 0.0
    for seed in range(200):
        system = gen_instance(kind, seed, **kwargs)
        started = time.monotonic()
        outcome = build(system, scheme, budget)
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        if not outcome.complete or elapsed >= 5.0:
            failures.append((seed, outcome.reason, elapsed))
    return failures, worst


def test_criterion_5_termination_suites():
    suites = [
        ("quadratic", Scheme.BASE, dict(n_vars=3, length=12)),
        ("sro_rep", Scheme.SPLIT, dict(n_vars=3, length=14)),
        ("one_variable", Scheme.COUNT, dict(length=14)),
    ]
    ok = True
    parts = []
    for kind, scheme, kwargs in suites:
        failures, worst = _termination_suite(kind, scheme, **kwargs)
        ok = ok and not failures
        parts.append(f"{kind}/{scheme.value}: 200 instances, worst {worst:.2f}s, "
                     f"{len(failures)} failures")
    detail = "; ".join(parts)
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260808)
    completed = mismatches = 0
    total = 500
    for _ in range(total):
        system = []
        for _ in range(rng.randint(1, 2)):
            terms = "AB" + "xyz"[: rng.randint(1, 3)]
            system.append(
                E(
                    "".join(rng.choice(terms) for _ in range(rng.randint(0, 6))),
                    "".join(rng.choice(terms) for _ in range(rng.randint(0, 6))),
                )
            )
        outcome = build(system, Scheme.COUNT, Budget(max_nodes=10_000))
        if not outcome.complete:
            continue
        completed += 1
        found = enumerate_solutions(outcome.graph, 2, 24, "AB")
        want = brute_solutions(system, "AB", 2)
        if found != want:
            mismatches += 1
    ok = completed > 0 and mismatches == 0
    detail = (
        f"{completed}/{total} builds completed within 10^4 nodes, "
        f"{mismatches} solution-set mismatches at value bound 2"
    )
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_7_example_one_regression():
    outcome = build(parse_system("x y = y x"), Scheme.BASE, Budget(max_nodes=1000))
    found = {s.items for s in enumerate_solutions(outcome.graph, 1, 12, "A")}
    ok = (("x", "A"), ("y", "")) in found
    detail = f"x=A, y= found by bounded enumeration: {ok}"
    _report(7, ok, detail)
    assert ok, detail


def _solves_by_substitution(program, system):
    assignment = {
        x: "".join(c for c in compose_value(program, x) if c.isupper())
        for x in system_variables(system)
    }
    return satisfies(system, assignment)


def test_criterion_8_witness_round_trip():
    cases = [
        (parse_system("A x y = x y A"), Scheme.BASE),
        (parse_system("x y = y x"), Scheme.COUNT),
        (parse_system("A x x = x x A"), Scheme.COUNT),
        (parse_system("x A = A x"), Scheme.SPLIT),
    ]
    rng = random.Random(8)
    extracted_bad = mutation_bad = mutations = extracted = 0
    pool = [
        ("x", ""),
        ("y", ""),
        ("x", "A"),
        ("x", "B"),
        ("y", "A"),
        ("x", "y"),
        ("y", "x"),
    ]
    from wordeq.core import Narrowing

    for system, scheme in cases:
        outcome = build(system, scheme, Budget(max_nodes=3000))
        programs = accepted_programs(outcome.graph, 6)
        for program in programs:
            extracted += 1
            if not (
                verify(program, system, scheme)
                and _solves_by_substitution(program, system)
            ):
                extracted_bad += 1
        while mutations < 250 * (cases.index((system, scheme)) + 1):
            program = rng.choice(programs)
            if not program:
                continue
            mutated = list(program)
            cut = rng.randrange(len(mutated))
            var, target = rng.choice(pool)
            if target == var:
                continue
            candidate = Narrowing(var, target)
            if candidate == mutated[cut]:
                continue
            mutated[cut] = candidate
            mutations += 1
            if verify(tuple(mutated), system, scheme) and not _solves_by_substitution(
                tuple(mutated), system
            ):
                mutation_bad += 1
    ok = extracted_bad == 0 and mutation_bad == 0 and mutations == 1000 and extracted > 0
    detail = (
        f"{extracted} extracted programs all verify T: {extracted_bad == 0}; "
        f"{mutations} mutated programs consistent with substitution: "
        f"{mutation_bad == 0}"
    )
    _report(8, ok, detail)
    assert ok, detail
