"""
Corpus fingerprints: build every ``benchmarks/instances/*/*.eq`` system with
its own scheme and node budget, and record what each build gave, so that a
change meant to keep graphs as they are is checked by one command.

    python tools/fingerprint.py                  # rewrite tools/fingerprints.tsv
    python tools/fingerprint.py --check          # rebuild all, name every line that moved
    python tools/fingerprint.py --check FILE...  # only the instances of these .eq files

A line per instance holds the verdict, ``complete``, the stop reason, the
node and back-edge counts, SHA-256 hashes (first 16 hex digits) of the sorted
fold targets, of ``to_dot`` and of ``to_dot(prune=True)``, and the shortest
witness program with its steps joined by ``; ``.  A change that
reshapes graphs on purpose regenerates the file; its diff names each build
that moved.  Run from anywhere; the solver is imported from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTANCES = os.path.join(ROOT, "benchmarks", "instances")
FINGERPRINTS = os.path.join(ROOT, "tools", "fingerprints.tsv")
sys.path.insert(0, os.path.join(ROOT, "src"))

from wordeq.graph import Budget, build, to_dot, verdict  # noqa: E402
from wordeq.parse import parse_system, serialize_program  # noqa: E402
from wordeq.rewrite import Scheme  # noqa: E402
from wordeq.solutions import min_witness  # noqa: E402

COLUMNS = ("instance", "verdict", "complete", "reason", "nodes", "back_edges",
           "fold_targets", "dot", "dot_pruned", "min_witness")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def instances(path: str) -> Iterator[Tuple[str, str, int, str]]:
    """(key, scheme, max_nodes, system text) of every block of an ``.eq`` file;
    the key is the file's path under the instance directory, ``:`` and the id."""
    name = os.path.relpath(os.path.abspath(path), INSTANCES).replace(os.sep, "/")
    with open(path, encoding="utf-8") as f:
        blocks = f.read().split("\n\n")
    for text in blocks:
        if text.strip():
            header = dict(item.split("=", 1) for item in text.splitlines()[0].lstrip("# ").split())
            yield f"{name}:{header['id']}", header["scheme"], int(header["max_nodes"]), text


def fingerprint(scheme: str, max_nodes: int, text: str) -> List[str]:
    outcome = build(parse_system(text), Scheme(scheme), Budget(max_nodes=max_nodes))
    graph = outcome.graph
    witness = min_witness(graph)
    return [
        verdict(outcome),
        str(int(outcome.complete)),
        outcome.reason or "-",
        str(len(graph.labels)),
        str(len(graph.back_edges)),
        _sha(repr(sorted(graph.back_edges))),
        _sha(to_dot(graph)),
        _sha(to_dot(graph, prune=True)),
        "-" if witness is None else serialize_program(witness).replace("\n", "; "),
    ]


def lines(files: List[str]) -> Dict[str, str]:
    out = {}
    for path in files:
        for key, scheme, max_nodes, text in instances(path):
            out[key] = "\t".join([key] + fingerprint(scheme, max_nodes, text))
    return out


def read(path: str) -> Dict[str, str]:
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n") for line in f if not line.startswith("#")]
    return {row.split("\t", 1)[0]: row for row in rows if row}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", nargs="*", metavar="FILE", default=None,
                        help="rebuild and compare with the committed file instead of rewriting it")
    args = parser.parse_args(argv)
    every = sorted(
        os.path.join(INSTANCES, d, f)
        for d in os.listdir(INSTANCES) if os.path.isdir(os.path.join(INSTANCES, d))
        for f in os.listdir(os.path.join(INSTANCES, d)) if f.endswith(".eq")
    )
    new = lines(args.check or every)
    if args.check is None:
        with open(FINGERPRINTS, "w", encoding="utf-8") as f:
            f.write("# " + "\t".join(COLUMNS) + "\n")
            f.writelines(line + "\n" for line in new.values())
        print(f"wrote {len(new)} lines to {os.path.relpath(FINGERPRINTS)}")
        return 0
    old = read(FINGERPRINTS)
    if not args.check:
        new.update((key, None) for key in old.keys() - new.keys())
    moved = [key for key in new if old.get(key) != new[key]]
    for key in moved:
        print(f"- {old.get(key, '(absent)')}\n+ {new[key] or '(absent)'}")
    print(f"{len(new) - len(moved)} of {len(new)} lines match, {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
