"""
Make the benchmark's instance lists anew from their seeds and selection
rules, and print the figures the selection rests on.

    python3 benchmarks/make_instances.py            # the committed lists
    python3 benchmarks/make_instances.py --quadratic-seed 7 --out other/dir

Each workload is a directory of ``.eq`` files under ``--out``.  A file holds
one system per block, blocks separated by a blank line; each block is plain
``.eq`` text whose first line is a comment naming the instance and how it is
run, e.g. ``# id=quadratic-0007 scheme=base max_nodes=20000 complete=1``.
The solver only ever receives that text.

Draws are made here, by this file's own generators and random streams; the
solver is used only to apply the selection rules (which draws complete, and
how their labels grow).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from wordeq.core import Equation  # noqa: E402
from wordeq.graph import Budget, build, verdict  # noqa: E402
from wordeq.parse import parse_system, serialize_system  # noqa: E402
from wordeq.rewrite import Scheme  # noqa: E402
from wordeq.solutions import enumerate_solutions  # noqa: E402

import checker  # noqa: E402
from tracer import Tracer  # noqa: E402

VARIABLES = "xyzuvw"

# Termination-class draws: (class, scheme, draws, variables, length, node budget).
# Quadratic draws are kept when their base graph completes with at least
# MIN_NODES nodes, so that the class spans tens to tens of thousands of nodes.
QUADRATIC = ("quadratic", "base", 300, 4, 13, 20_000)
SRO_REP = ("sro_rep", "split", 200, 3, 14, 10_000)
ONE_VARIABLE = ("one_variable", "count", 200, 1, 14, 10_000)
MIN_NODES = 10

# The criterion-6 distribution of the acceptance suite: 500 systems of one
# or two equations over A, B and up to three variables.
CRITERION6_DRAWS = 500
CRITERION6_NODES = 2_000
# Budget-truncated criterion-6 draws make the dup_labels and long_labels
# workloads: a draw goes to dup_labels when at least DUP_SHARE of its labels
# hold a duplicate equation at CRITERION6_NODES, and to long_labels when
# none does and some label reaches LONG_TERMS terms.  Each workload rebuilds
# its draws at its own budget; dup_labels builds take seconds each at 5000
# nodes, so its budget is lower to give a run several passes.
LABEL_NODES = {"dup_labels": 3_000, "long_labels": 5_000}
DUP_SHARE = 0.1
LONG_TERMS = 100

# The paper's named instances: (id, text, scheme, node budget, known verdict).
NAMED = (
    ("fig3b", "A x y = x y A", "base", 1_000, "SAT"),
    # base does not terminate on the triptych; split and count decide it.
    ("triptych-base", "x x A y B z = A x x z y", "base", 1_000, "UNKNOWN"),
    ("triptych-split", "x x A y B z = A x x z y", "split", 10_000, "UNSAT"),
    ("triptych-count", "x x A y B z = A x x z y", "count", 10_000, "UNSAT"),
    ("abxxyy-split", "A B x x y y = x x y y B A", "split", 10_000, "UNSAT"),
    ("abxxyy-count", "A B x x y y = x x y y B A", "count", 10_000, "UNSAT"),
    ("criterion4", "x y z A B A B A B = A A A B B B y z x", "base", 200_000, "UNSAT"),
)

# Enumeration instances: (id, text, value bound, path bound).  All are SAT
# with complete count graphs; alphabet AB.  The letter-free ones spend
# their time in walks whose values grow by variables only.
ENUMERATE = (
    ("commute-2", "x y = y x", 2, 24),
    ("commute-3", "x y = y x", 3, 24),
    ("reverse3-2", "x y z = z y x", 2, 20),
    ("fig3b-6", "A x y = x y A", 6, 48),
    ("xyA-6", "x y A = A y x", 6, 48),
    ("xAy-6", "x A y = y A x", 6, 48),
    ("xBy-6", "x B y = y B x", 6, 48),
    ("squares-6", "x x = y y", 6, 48),
    ("xyx-6", "x y x = y x y", 6, 48),
)
ENUMERATE_NODES = 2_000
ENUMERATE_ALPHABET = "AB"


def gen_quadratic(rng: random.Random, n_vars: int, length: int) -> Equation:
    pool = []
    for x in VARIABLES[:n_vars]:
        pool.extend([x] * rng.randint(1, 2))
    pool.extend(rng.choice("AB") for _ in range(max(0, length - len(pool))))
    rng.shuffle(pool)
    cut = rng.randint(1, len(pool) - 1)
    return Equation("".join(pool[:cut]), "".join(pool[cut:]))


def gen_sro_rep(rng: random.Random, n_vars: int, length: int) -> Equation:
    pattern = [rng.choice(VARIABLES[:n_vars]) for _ in range(length // 2)]

    def side() -> str:
        out = []
        for x in pattern:
            out.append("".join(rng.choice("AB") for _ in range(rng.randint(0, 2))))
            out.append(x)
        out.append("".join(rng.choice("AB") for _ in range(rng.randint(0, 2))))
        return "".join(out)

    return Equation(side(), side())


def gen_one_variable(rng: random.Random, n_vars: int, length: int) -> Equation:
    cut = rng.randint(1, length - 1)
    return Equation(
        "".join(rng.choice("ABx") for _ in range(cut)),
        "".join(rng.choice("ABx") for _ in range(length - cut)),
    )


def in_class(kind: str, e: Equation) -> bool:
    """Class membership, by this file's own reading of the definitions."""
    lhs_vars = [c for c in e.lhs if c.islower()]
    rhs_vars = [c for c in e.rhs if c.islower()]
    counts = Counter(lhs_vars + rhs_vars)
    if kind == "quadratic":
        return all(k <= 2 for k in counts.values())
    if kind == "sro_rep":
        return lhs_vars == rhs_vars
    return len(counts) <= 1


GENERATORS = {"quadratic": gen_quadratic, "sro_rep": gen_sro_rep, "one_variable": gen_one_variable}


def criterion6_draws(seed: int) -> List[List[Equation]]:
    """The acceptance suite's criterion-6 systems, drawn the same way."""
    rng = random.Random(seed)
    draws = []
    for _ in range(CRITERION6_DRAWS):
        system = []
        for _ in range(rng.randint(1, 2)):
            terms = "AB" + "xyz"[: rng.randint(1, 3)]
            system.append(
                Equation(
                    "".join(rng.choice(terms) for _ in range(rng.randint(0, 6))),
                    "".join(rng.choice(terms) for _ in range(rng.randint(0, 6))),
                )
            )
        draws.append(system)
    return draws


def block(instance_id: str, system: List[Equation], **params: object) -> str:
    header = " ".join([f"id={instance_id}"] + [f"{k}={v}" for k, v in params.items()])
    return f"# {header}\n{serialize_system(system)}\n"


def label_shape(outcome) -> Tuple[float, int]:
    """Share of equation-list labels holding a duplicate equation, and the
    largest label in terms."""
    labels = [n.label.equations for n in outcome.graph.nodes if n.label.equations]
    dups = sum(len(set(eqs)) < len(eqs) for eqs in labels)
    terms = max((sum(len(e.lhs) + len(e.rhs) for e in eqs) for eqs in labels), default=0)
    return dups / len(labels) if labels else 0.0, terms


def termination_class(spec: tuple, seed: int) -> List[str]:
    kind, scheme, draws, n_vars, length, max_nodes = spec
    rng = random.Random(seed)
    blocks = []
    for i in range(draws):
        e = GENERATORS[kind](rng, n_vars, length)
        assert in_class(kind, e), f"{kind} draw out of class: {e}"
        outcome = build([e], Scheme(scheme), Budget(max_nodes=max_nodes))
        if not outcome.complete:
            continue
        if kind == "quadratic" and len(outcome.graph.nodes) < MIN_NODES:
            continue
        blocks.append(block(f"{kind}-{i:04d}", [e], scheme=scheme, max_nodes=max_nodes, complete=1))
    print(f"{kind}: seed {seed}, {len(blocks)} of {draws} draws kept ({scheme}, <= {max_nodes} nodes)")
    return blocks


def split_stats(system: List[Equation], max_nodes: int) -> Tuple[int, float, float]:
    """Split-scan calls, the share that found a split, and build seconds."""
    tracer = Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        build(system, Scheme.COUNT, Budget(max_nodes=max_nodes))
        elapsed = time.perf_counter() - started
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    return int(metrics["rewrite.split.calls"]), metrics["rewrite.split.hit_share"], elapsed


def criterion6(seed: int, report_nodes: List[int]) -> Dict[str, List[str]]:
    tally: Counter = Counter()
    chosen: Dict[str, List[Tuple[int, List[Equation]]]] = {"dup_labels": [], "long_labels": []}
    decided = []
    print(f"criterion-6 draw: seed {seed}, {CRITERION6_DRAWS} systems, count, {CRITERION6_NODES} nodes")
    for i, system in enumerate(criterion6_draws(seed)):
        outcome = build(system, Scheme.COUNT, Budget(max_nodes=CRITERION6_NODES))
        tally[verdict(outcome)] += 1
        if outcome.complete:
            decided.append(block(f"criterion6-{i:03d}", system, scheme="count", max_nodes=CRITERION6_NODES))
            continue
        share, terms = label_shape(outcome)
        where = "dup_labels" if share >= DUP_SHARE else "long_labels" if terms >= LONG_TERMS else "-"
        print(f"  truncated #{i}: {one_line(system)}  [{verdict(outcome)}; dup share {share:.3f}, "
              f"largest label {terms} terms] -> {where}")
        if where in chosen:
            chosen[where].append((i, system))
    print(f"  verdicts: {tally['SAT']} SAT / {tally['UNSAT']} UNSAT / {tally['UNKNOWN']} UNKNOWN; "
          f"{len(decided)} complete")
    out = {"criterion6": decided}
    for name, draws in chosen.items():
        nodes = LABEL_NODES[name]
        out[name] = [block(f"criterion6-{i:03d}", system, scheme="count", max_nodes=nodes) for i, system in draws]
        for _, system in draws:
            outcome = build(system, Scheme.COUNT, Budget(max_nodes=nodes))
            share, terms = label_shape(outcome)
            print(f"{name}: {one_line(system)}  [{verdict(outcome)} at {nodes} nodes; dup share {share:.3f}, "
                  f"largest label {terms} terms]")
            for budget in [nodes] + report_nodes:
                calls, hits, elapsed = split_stats(system, budget)
                print(f"    at {budget} nodes: {calls} split-scan calls, {hits:.3f} find a split "
                      f"({elapsed:.2f} s traced)")
    return out


def one_line(system: List[Equation]) -> str:
    return serialize_system(system).replace("\n", ", ")


def named() -> List[str]:
    return [
        block(i, parse_system(text), scheme=scheme, max_nodes=nodes, expect=want)
        for i, text, scheme, nodes, want in NAMED
    ]


def enumerate_instances() -> List[str]:
    blocks = []
    for i, text, max_len, max_path in ENUMERATE:
        system = parse_system(text)
        outcome = build(system, Scheme.COUNT, Budget(max_nodes=ENUMERATE_NODES))
        assert outcome.complete and verdict(outcome) == "SAT", f"{i}: not a complete SAT graph"
        found = {s.items for s in enumerate_solutions(outcome.graph, max_len, max_path, ENUMERATE_ALPHABET)}
        want = checker.brute_solutions(checker.parse_text(text), ENUMERATE_ALPHABET, max_len)
        assert found == want, f"{i}: the bounds do not reach every solution"
        blocks.append(block(i, system, scheme="count", max_nodes=ENUMERATE_NODES,
                            max_len=max_len, max_path=max_path, alphabet=ENUMERATE_ALPHABET))
    return blocks


def write(path: Path, blocks: List[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(blocks), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quadratic-seed", type=int, default=1)
    parser.add_argument("--sro-rep-seed", type=int, default=2)
    parser.add_argument("--one-variable-seed", type=int, default=3)
    parser.add_argument("--criterion6-seed", type=int, default=20260808)
    parser.add_argument("--split-report-nodes", type=int, nargs="*", default=[],
                        help="more budgets at which to count split-scan calls of the label draws")
    parser.add_argument("--out", type=Path, default=HERE / "instances")
    args = parser.parse_args()
    if checker.self_test():
        sys.exit("checker self-test failed")

    out = args.out
    write(out / "decide" / "quadratic.eq", termination_class(QUADRATIC, args.quadratic_seed))
    write(out / "decide" / "sro_rep.eq", termination_class(SRO_REP, args.sro_rep_seed))
    write(out / "decide" / "one_variable.eq", termination_class(ONE_VARIABLE, args.one_variable_seed))
    draws = criterion6(args.criterion6_seed, args.split_report_nodes)
    write(out / "decide" / "criterion6.eq", draws["criterion6"])
    write(out / "decide" / "named.eq", named())
    write(out / "dup_labels" / "criterion6.eq", draws["dup_labels"])
    write(out / "long_labels" / "criterion6.eq", draws["long_labels"])
    write(out / "enumerate" / "named.eq", enumerate_instances())


if __name__ == "__main__":
    main()
