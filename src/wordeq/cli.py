"""
Command-line front end: solve, enumerate, verify, dot, oracle, bench.

Exit codes for solve/enumerate: 0 = SAT, 1 = UNSAT, 2 = UNKNOWN,
3 = usage or input error.  verify exits 0 for T and 1 for F.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import List, NoReturn, Optional

from . import oracle as oraclemod
from .core import Equation, check_alphabet
from .graph import SAT, UNKNOWN, UNSAT, Budget, BuildOutcome, build, to_dot, verdict
from .parse import parse_program, parse_system, serialize_program
from .rewrite import Scheme
from .solutions import enumerate_solutions
from .witness import verify

EXIT = {SAT: 0, UNSAT: 1, UNKNOWN: 2}
ERROR_EXIT = 3


def _read_system(path: str | Path) -> List[Equation]:
    return parse_system(Path(path).read_text(encoding="utf-8"))


def _add_build_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scheme", choices=[s.value for s in Scheme], default="count")
    sub.add_argument("--max-nodes", type=int, default=Budget().max_nodes)
    sub.add_argument("--max-depth", type=int, default=Budget().max_depth)
    sub.add_argument("--early-stop", action="store_true")
    sub.add_argument("--timeout-ms", type=float, default=None)


def _build(args: argparse.Namespace, system: List[Equation]) -> BuildOutcome:
    budget = Budget(args.max_nodes, args.max_depth, args.timeout_ms)
    return build(system, args.scheme, budget, early_stop=args.early_stop)


def cmd_solve(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    started = time.monotonic()
    outcome = _build(args, system)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    result = verdict(outcome)
    print(result)
    graph = outcome.graph
    line = f"nodes={len(graph.labels)} depth={graph.max_depth()} time_ms={elapsed_ms}"
    if outcome.reason:
        line += f" reason={outcome.reason}"
    print(line)
    if result == SAT:
        print(serialize_program(graph.witness))
    return EXIT[result]


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.max_len < 0 or args.max_path < 0:
        raise ValueError("enumeration bounds must not be negative")
    alphabet = check_alphabet(args.alphabet) if args.alphabet else None
    system = _read_system(args.file)
    outcome = _build(args, system)
    found = enumerate_solutions(outcome.graph, args.max_len, args.max_path, alphabet)
    for solution in sorted(found, key=lambda s: s.items):
        print(solution)
    return EXIT[verdict(outcome)]


def cmd_verify(args: argparse.Namespace) -> int:
    system = _read_system(args.eqfile)
    program = parse_program(Path(args.narfile).read_text(encoding="utf-8"))
    accepted = verify(program, system, args.scheme)
    print("T" if accepted else "F")
    return 0 if accepted else 1


def cmd_dot(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    outcome = _build(args, system)
    text = to_dot(outcome.graph, prune=args.prune)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    system = _read_system(args.file)
    found = oraclemod.brute_solutions(system, args.alphabet or None, args.max_len)
    for solution in sorted(found, key=lambda s: s.items):
        print(solution)
    return 0 if found else 1


def cmd_bench(args: argparse.Namespace) -> int:
    # a flag every build refuses is a usage error, not one ERROR row per file
    Budget(args.max_nodes, args.max_depth, args.timeout_ms)
    files = sorted(Path(args.dir).glob("*.eq"))
    if not files:
        print(f"error: no .eq files in {args.dir}", file=sys.stderr)
        return ERROR_EXIT
    rows = []
    for path in files:
        started = time.monotonic()
        try:
            outcome = _build(args, _read_system(path))
            result = verdict(outcome)
            nodes = len(outcome.graph.labels)
            depth = outcome.graph.max_depth()
        except (OSError, ValueError):  # a ParseError is a ValueError
            result, nodes, depth = "ERROR", 0, 0
        elapsed_ms = int((time.monotonic() - started) * 1000)
        rows.append([path.name, args.scheme, result, nodes, depth, elapsed_ms])
    with open(args.csv, "w", newline="", encoding="utf-8") if args.csv else nullcontext(sys.stdout) as out:
        writer = csv.writer(out)
        writer.writerow(["file", "scheme", "result", "nodes", "depth", "time_ms"])
        writer.writerows(rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits with ERROR_EXIT on usage errors; argparse's own 2 is UNKNOWN's
    code.  Subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(ERROR_EXIT, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wordeq", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("solve", help="decide satisfiability of an .eq file")
    sub.add_argument("file")
    _add_build_flags(sub)
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("enumerate", help="enumerate bounded ground solutions")
    sub.add_argument("file")
    _add_build_flags(sub)
    sub.add_argument("--max-len", type=int, default=2)
    sub.add_argument("--max-path", type=int, default=24)
    sub.add_argument("--alphabet", default=None, help='letters for instantiation, e.g. "AB"')
    sub.set_defaults(func=cmd_enumerate)

    sub = subs.add_parser("verify", help="run a .nar program against an .eq system")
    sub.add_argument("eqfile")
    sub.add_argument("narfile")
    sub.add_argument("--scheme", choices=[s.value for s in Scheme], default="count")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("dot", help="export the solution graph as DOT")
    sub.add_argument("file")
    _add_build_flags(sub)
    sub.add_argument("--prune", action="store_true")
    sub.add_argument("-o", "--output", default=None)
    sub.set_defaults(func=cmd_dot)

    sub = subs.add_parser("oracle", help="brute-force bounded solutions")
    sub.add_argument("file")
    sub.add_argument("--max-len", type=int, default=2)
    sub.add_argument("--alphabet", default=None)
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("bench", help="run every .eq file in a directory, emit CSV")
    sub.add_argument("dir")
    _add_build_flags(sub)
    sub.add_argument("--csv", default=None)
    sub.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
