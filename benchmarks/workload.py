"""
Set-up of a benchmark run: import the solver from this checkout's sources
and load a workload's instance list.

Kept apart from ``run.py``, with few imports, because ``run.py`` times it in
fresh processes (``python3 -S benchmarks/workload.py <workload>``) for the
``setup_s`` metric.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import List, Optional

import checker

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
INSTANCES = os.path.join(HERE, "instances")


def import_wordeq():
    """Import the solver from this checkout's sources, and nowhere else."""
    package = os.path.join(SRC, "wordeq")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no wordeq sources at {SRC}")
    sys.path.insert(0, SRC)
    import wordeq
    import wordeq.graph
    import wordeq.parse
    import wordeq.rewrite
    import wordeq.solutions
    import wordeq.witness

    if os.path.dirname(os.path.abspath(wordeq.__file__)) != package:
        raise SystemExit(f"error: wordeq was imported from {wordeq.__file__}, not {package}")
    return wordeq


@dataclass
class Instance:
    id: str
    text: str
    scheme: str
    max_nodes: int
    system: checker.System  # the checker's own reading of the text
    expect: Optional[str] = None  # known verdict
    complete: bool = False  # termination class: must complete under its scheme
    max_len: int = 0  # enumeration bounds
    max_path: int = 0
    alphabet: str = ""
    parsed: object = None  # the solver's system, for workloads that parse in set-up


def load_instances(workload: str) -> List[Instance]:
    """The blocks of every ``.eq`` file of the workload, in file order."""
    directory = os.path.join(INSTANCES, workload)
    files = sorted(f for f in os.listdir(directory) if f.endswith(".eq")) if os.path.isdir(directory) else []
    if not files:
        raise SystemExit(f"error: no instance files in {directory}")
    out = []
    for name in files:
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            blocks = f.read().split("\n\n")
        for text in blocks:
            if not text.strip():
                continue
            header = dict(item.split("=", 1) for item in text.splitlines()[0].lstrip("# ").split())
            out.append(
                Instance(
                    id=header["id"],
                    text=text,
                    scheme=header["scheme"],
                    max_nodes=int(header["max_nodes"]),
                    system=checker.parse_text(text),
                    expect=header.get("expect"),
                    complete=header.get("complete") == "1",
                    max_len=int(header.get("max_len", 0)),
                    max_path=int(header.get("max_path", 0)),
                    alphabet=header.get("alphabet", ""),
                )
            )
    return out


def setup(workload: str):
    """What a run does before its first instance: import the solver and
    load the instance files, parsing them except where parsing is part of
    the timed operation."""
    wordeq = import_wordeq()
    instances = load_instances(workload)
    if workload != "decide":
        for inst in instances:
            inst.parsed = wordeq.parse.parse_system(inst.text)
    return wordeq, instances


if __name__ == "__main__":
    setup(sys.argv[1])
