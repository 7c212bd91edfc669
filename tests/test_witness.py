import random

from wordeq.core import Equation, compose_value, eps, prepend_letter, prepend_var
from wordeq.graph import Budget, build
from wordeq.oracle import satisfies, system_variables
from wordeq.parse import parse_system
from wordeq.rewrite import Scheme
from wordeq.witness import verify
from reference import accepted_programs

E = Equation


def test_empty_program_empty_system():
    for scheme in Scheme:
        assert verify((), [], scheme)


def test_fig3b_accepted_path():
    system = parse_system("A x y = x y A")
    assert verify((eps("x"), eps("y")), system, Scheme.BASE)
    assert verify((prepend_letter("x", "A"), eps("x"), eps("y")), system, Scheme.BASE)


def test_incompatible_first_step():
    system = parse_system("A x y = x y A")
    assert not verify((prepend_var("y", "x"),), system, Scheme.BASE)


def test_incomplete_program_is_rejected():
    system = parse_system("A x y = x y A")
    assert not verify((eps("x"),), system, Scheme.BASE)
    assert not verify((), system, Scheme.BASE)


def _ground_check(program, system):
    """Substitute the composed values, remaining variables to empty."""
    variables = system_variables(system)
    assignment = {}
    for x in variables:
        value = compose_value(program, x)
        assignment[x] = "".join(c for c in value if c.isupper())
    return satisfies(system, assignment)


SYSTEMS = [
    ("A x y = x y A", Scheme.BASE),
    ("x y = y x", Scheme.BASE),
    ("x y = y x", Scheme.COUNT),
    ("x A = A x", Scheme.SPLIT),
    ("A x x = x x A", Scheme.COUNT),
]


def test_graph_agreement():
    for text, scheme in SYSTEMS:
        system = parse_system(text)
        outcome = build(system, scheme, Budget(max_nodes=3000))
        accepted = accepted_programs(outcome.graph, 6)
        assert accepted
        for program in accepted:
            assert verify(program, system, scheme), (text, program)
            assert _ground_check(program, system)
        # a strict prefix with one wrong step appended must be rejected
        rng = random.Random(50)
        pool = [eps("x"), eps("y"), prepend_letter("x", "B"), prepend_var("x", "y")]
        for program in accepted[:10]:
            if not program:
                continue
            cut = rng.randrange(len(program))
            wrong = rng.choice([n for n in pool if n != program[cut]])
            mutated = program[:cut] + (wrong,)
            if verify(mutated, system, scheme):
                # accepted by luck; it must then really solve the system
                assert _ground_check(mutated, system)


def test_at_most_one_substitution_per_step(monkeypatch):
    import wordeq.witness as witness_module

    calls = []
    original = witness_module.step

    def counting(state, n, scheme):
        calls.append(n)
        return original(state, n, scheme)

    monkeypatch.setattr(witness_module, "step", counting)
    system = parse_system("A x y = x y A")
    program = (prepend_letter("x", "A"), eps("x"), eps("y"))
    assert verify(program, system, Scheme.BASE)
    assert len(calls) <= len(program)

    calls.clear()
    bad = (eps("y"), eps("x"), eps("x"), eps("x"))
    assert not verify(bad, system, Scheme.BASE)
    assert len(calls) <= len(bad)


def test_ground_truth_on_mutations():
    system = parse_system("A x y = x y A")
    base = (prepend_letter("x", "A"), eps("x"), prepend_letter("y", "A"), eps("y"))
    assert verify(base, system, Scheme.BASE)
    rng = random.Random(51)
    pool = [
        eps("x"),
        eps("y"),
        prepend_letter("x", "A"),
        prepend_letter("y", "A"),
        prepend_letter("x", "B"),
        prepend_var("x", "y"),
        prepend_var("y", "x"),
    ]
    agreements = 0
    for _ in range(1000):
        cut = rng.randrange(len(base))
        mutated = list(base)
        mutated[cut] = rng.choice([n for n in pool if n != base[cut]])
        accepted = verify(tuple(mutated), system, Scheme.BASE)
        if accepted:
            assert _ground_check(tuple(mutated), system)
            agreements += 1
    assert agreements >= 0  # acceptance implies a genuine solution, always
