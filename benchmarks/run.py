"""
Benchmark of the wordeq solver.

    python3 benchmarks/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the solver is imported from ``src/``.  Each
workload is a fixed instance list under ``benchmarks/instances/<workload>/``
(see ``make_instances.py``).  A run repeats whole passes over the list, in
an order shuffled by ``--seed``, as long as another pass still ends within
``--seconds`` of the first pass's start, and checks every output with
``checker.py``, which uses no solver code, outside the timing.  Every time
is scaled to the machine's nominal speed by ``speed.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run makes passes with every layer wrapped by ``tracer.py`` for half of
``--seconds``, then as many passes untraced, and reports the per-layer
metrics per pass together with ``trace.overhead_s``, the traced minus the
untraced operation time of one pass.

``--workload all`` runs the four workloads one after another, each in its
own process, and prints one result line per workload before a combined one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import checker
import speed
import workload as workload_mod
from workload import Instance

WORKLOADS = ("decide", "dup_labels", "long_labels", "enumerate")
# An operation this long is checked, with its batch, as soon as it ends.
BIG_OP_S = 0.01
# Set-up is timed in at least this many fresh processes over a run, after one untimed start.
SETUP_SAMPLES = 7


def time_setup(workload: str, meter: speed.Meter) -> float:
    """Scaled wall time of one fresh process that does ``workload.setup`` and exits.

    ``-S`` leaves out the interpreter's site hooks, which on some installs
    import unrelated packages, so the figure is the interpreter's start,
    the solver's import and the instance loading.
    """
    command = [sys.executable, "-S", os.path.join(workload_mod.HERE, "workload.py"), workload]
    return meter.time_call(lambda: subprocess.run(command, check=True))


@dataclass
class Output:
    verdict: str
    outcome: object  # BuildOutcome
    witness: object = None  # on decide SAT: min_witness program
    verified: Optional[bool] = None  # on decide SAT: verify(witness)
    found: object = None  # on enumerate: the solution set


def make_operation(workload: str, w) -> Callable[[Instance], Output]:
    """The timed operation of a workload.  Solver functions are looked up
    through their modules at call time, so the traced run sees them."""

    def budget(inst: Instance):
        return w.graph.Budget(max_nodes=inst.max_nodes)

    def decide(inst: Instance) -> Output:
        scheme = w.rewrite.Scheme(inst.scheme)
        system = w.parse.parse_system(inst.text)
        outcome = w.graph.build(system, scheme, budget(inst))
        result = w.graph.verdict(outcome)
        if result != w.graph.SAT:
            return Output(result, outcome)
        witness = w.solutions.min_witness(outcome.graph)
        return Output(result, outcome, witness, w.witness.verify(witness, system, scheme))

    def build(inst: Instance) -> Output:
        outcome = w.graph.build(inst.parsed, w.rewrite.Scheme(inst.scheme), budget(inst))
        return Output(w.graph.verdict(outcome), outcome)

    def enumerate_(inst: Instance) -> Output:
        outcome = w.graph.build(inst.parsed, w.rewrite.Scheme(inst.scheme), budget(inst))
        found = w.solutions.enumerate_solutions(outcome.graph, inst.max_len, inst.max_path, inst.alphabet)
        return Output(w.graph.verdict(outcome), outcome, found=found)

    return {"decide": decide, "dup_labels": build, "long_labels": build, "enumerate": enumerate_}[workload]


@dataclass
class Checks:
    """Checks of outputs against the checker; brute-force results are
    computed once per instance and reused."""

    unsat: Dict[str, Optional[str]] = field(default_factory=dict)
    enumerated: Dict[Tuple[str, frozenset], Optional[str]] = field(default_factory=dict)

    def check(self, inst: Instance, out: Output) -> Optional[str]:
        graph = out.outcome.graph
        complete = out.outcome.complete
        problem = checker.check_graph([n.label for n in graph.nodes], graph.back_edges, inst.max_nodes)
        if problem:
            return problem
        if inst.expect and out.verdict != inst.expect:
            return f"verdict {out.verdict}, known to be {inst.expect}"
        if inst.complete and not complete:
            return f"no complete graph under {inst.scheme}"
        if out.verdict == "SAT":
            if out.witness is not None:
                if not out.verified:
                    return "verify rejects the witness"
                steps = [(n.var, n.target) for n in out.witness]
            else:
                steps = checker.walk_to_accept(
                    graph.root,
                    [(parent, (n.var, n.target), child) for parent, n, child in graph.tree_edges],
                    {n.id for n in graph.nodes if n.label.kind.value == "accepted"},
                )
                if steps is None:
                    return "SAT without an accepting leaf"
            problem = checker.check_witness(inst.system, steps)
        elif out.verdict == "UNSAT":
            if not complete:
                return "UNSAT from an incomplete graph"
            if inst.id not in self.unsat:
                self.unsat[inst.id] = checker.check_unsat(inst.system)
            problem = self.unsat[inst.id]
        elif out.verdict == "UNKNOWN":
            if complete:
                return "UNKNOWN from a complete graph"
        else:
            return f"unknown verdict {out.verdict!r}"
        if problem is None and out.found is not None:
            found = frozenset(s.items for s in out.found)
            key = (inst.id, found)
            if key not in self.enumerated:
                self.enumerated[key] = checker.check_enumerated(inst.system, set(found), inst.alphabet, inst.max_len)
            problem = self.enumerated[key]
        return problem


@dataclass
class Pass:
    """The record of one or more passes over a workload's instances."""

    passes: int = 0
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    times: Dict[str, List[float]] = field(default_factory=dict)  # scaled, per instance
    problems: List[str] = field(default_factory=list)

    def seconds(self) -> float:
        return sum(sum(t) for t in self.times.values())


def run_passes(instances, operation, checks: Checks, rng: random.Random, meter: speed.Meter, record: Pass,
               seconds: float = 0.0, passes: int = 0, between: Callable[[], None] = lambda: None) -> Pass:
    """Whole passes over the instances, in a shuffled order, until
    ``passes`` are made or, without ``passes``, until one more pass, as
    long as the last, would end later than ``seconds`` after the first
    began; ``between`` runs after each pass, outside the timing.

    Operations run back to back in batches of about ``speed.PROBE_EVERY_S``;
    a batch's outputs are checked after the probe that closes it, so that
    the checker's work does not fall between timed operations.  An
    operation of ``BIG_OP_S`` or more closes its batch at once, so that no
    two large outputs are held together to raise the peak memory."""
    batch: List[Tuple[Instance, Output]] = []

    def close_batch() -> None:
        meter.settle()
        for inst, out in batch:
            record.decided += out.verdict in ("SAT", "UNSAT")
            problem = checks.check(inst, out)
            if problem:
                record.failed += 1
                record.problems.append(f"{inst.id}: {problem}")
        batch.clear()

    deadline = time.perf_counter() + seconds
    while True:
        pass_started = time.perf_counter()
        order = list(instances)
        rng.shuffle(order)
        for inst in order:
            record.attempted += 1
            started = time.perf_counter()
            try:
                out = operation(inst)
            except Exception as exc:  # a crash of the solver is a failed operation
                record.failed += 1
                record.problems.append(f"{inst.id}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            meter.add(elapsed, record.times.setdefault(inst.id, []))
            batch.append((inst, out))
            del out
            if elapsed >= BIG_OP_S or meter.due():
                close_batch()
        close_batch()
        record.passes += 1
        between()
        now = time.perf_counter()
        if passes and record.passes >= passes or not passes and now + (now - pass_started) > deadline:
            return record


def run(args: argparse.Namespace) -> Dict[str, object]:
    problems = checker.self_test()
    if problems:
        raise SystemExit("error: checker self-test failed: " + "; ".join(problems))
    wordeq, instances = workload_mod.setup(args.workload)
    operation = make_operation(args.workload, wordeq)
    checks = Checks()
    meter = speed.Meter()

    if not args.trace:
        # Set-up is sampled after every pass, so that its median spans the
        # run; the first start only fills the file cache.
        time_setup(args.workload, meter)
        setup_samples: List[float] = []
        record = run_passes(instances, operation, checks, random.Random(args.seed), meter, Pass(), seconds=args.seconds,
                            between=lambda: setup_samples.append(time_setup(args.workload, meter)))
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(time_setup(args.workload, meter))
        # Each instance's median scaled time over the passes; the rate is
        # that of a pass made at those times.
        per_instance = [statistics.median(t) for t in record.times.values()]
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "instances_per_s": (len(per_instance) / sum(per_instance), "1/s"),
            "instance_p50_ms": (1000 * statistics.median(per_instance), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "decided": (record.decided / record.passes, "count"),
        }
        records = [record]
    else:
        from tracer import METRICS, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(instances, operation, checks, random.Random(args.seed), meter, Pass(),
                                seconds=args.seconds / 2)
        finally:
            tracer.uninstall()
        untraced = run_passes(instances, operation, checks, random.Random(args.seed), meter, Pass(),
                              passes=traced.passes)
        units = {name: unit for name, unit, _ in METRICS}
        metrics = {name: (value, units[name]) for name, value in tracer.metrics(traced.passes).items()}
        metrics["trace.overhead_s"] = ((traced.seconds() - untraced.seconds()) / traced.passes, "s")
        absent = sorted(set(units) - set(metrics))
        if absent:
            print("absent metrics (their functions are gone): " + ", ".join(absent), file=sys.stderr)
        records = [traced, untraced]

    slowdowns = sorted(meter.slowdowns)
    print(f"machine slowdown over {len(slowdowns)} probes: median {statistics.median(slowdowns):.3f}, "
          f"from {slowdowns[0]:.3f} to {slowdowns[-1]:.3f}", file=sys.stderr)
    for record in records:
        for problem in record.problems[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> Dict[str, object]:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{workload}: {json.dumps(result)}", flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description="Benchmark of the wordeq solver.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
