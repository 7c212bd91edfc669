"""
Per-layer tracing of wordeq from outside the program.

``Tracer.install`` replaces each function named in ``TARGETS`` by a timing
wrapper, in every loaded ``wordeq`` module that binds it (``narrow.step`` is
also bound as ``graph.step``, ``rewrite.simplify`` as ``witness.simplify``
and so on), and ``uninstall`` puts the originals back.  A wrapper records
one span per call: its duration, and its self time, which is the duration
minus the time of the wrapped calls made inside it.  A few wrappers also
count outcomes of the call (splits found, count-check prunes, dead ends,
solutions found) or read sizes off the graphs ``build`` returns.

A target that the program no longer defines is reported in ``absent`` and
the metrics made from it are left out; it is not an error.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (span, module, function).  The span's first part names the layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("parse", "parse", "parse_system"),
    ("core.substitute", "core", "apply_to_word"),
    ("core.substitute", "core", "apply_to_state"),
    ("rewrite.simplify", "rewrite", "simplify"),
    ("rewrite.simplify_equation", "rewrite", "simplify_equation"),
    ("rewrite.reduce", "rewrite", "reduce"),
    ("rewrite.split", "rewrite", "_split_scan"),
    ("rewrite.count_check", "rewrite", "count_unsat"),
    ("narrow.compatible", "narrow", "compatible_narrowings"),
    ("narrow.step", "narrow", "step"),
    ("graph.build", "graph", "build"),
    ("solutions.min_witness", "solutions", "min_witness"),
    ("solutions.enumerate", "solutions", "enumerate_solutions"),
    ("witness.verify", "witness", "verify"),
)

# Every per-layer metric, with its unit and the span or graph reading it
# comes from; ``rewrite.self_s`` sums the self time of all rewrite spans.
METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("parse.calls", "count", "parse"),
    ("parse.self_s", "s", "parse"),
    ("core.substitute.calls", "count", "core.substitute"),
    ("core.substitute.self_s", "s", "core.substitute"),
    ("rewrite.simplify.calls", "count", "rewrite.simplify"),
    ("rewrite.self_s", "s", "rewrite.simplify"),
    ("rewrite.reduce.calls", "count", "rewrite.reduce"),
    ("rewrite.reduce.self_s", "s", "rewrite.reduce"),
    ("rewrite.split.calls", "count", "rewrite.split"),
    ("rewrite.split.self_s", "s", "rewrite.split"),
    ("rewrite.split.hit_share", "ratio", "rewrite.split"),
    ("rewrite.split.input_terms", "count", "rewrite.split"),
    ("rewrite.count_check.calls", "count", "rewrite.count_check"),
    ("rewrite.count_check.prunes", "count", "rewrite.count_check"),
    ("rewrite.pieces_out", "count", "rewrite.simplify_equation"),
    ("narrow.compatible.calls", "count", "narrow.compatible"),
    ("narrow.dead_ends", "count", "narrow.compatible"),
    ("narrow.step.calls", "count", "narrow.step"),
    ("narrow.step.self_s", "s", "narrow.step"),
    ("graph.build.calls", "count", "graph.build"),
    ("graph.build.self_s", "s", "graph.build"),
    ("graph.nodes", "count", "graph.shape"),
    ("graph.nodes_per_s", "1/s", "graph.shape"),
    ("graph.back_edges", "count", "graph.shape"),
    ("graph.fold_share", "ratio", "graph.shape"),
    ("graph.label_terms_max", "count", "graph.shape"),
    ("graph.label_terms_total", "count", "graph.shape"),
    ("graph.label_eqs_max", "count", "graph.shape"),
    ("graph.dup_label_share", "ratio", "graph.shape"),
    ("solutions.min_witness.calls", "count", "solutions.min_witness"),
    ("solutions.min_witness.self_s", "s", "solutions.min_witness"),
    ("solutions.enumerate.calls", "count", "solutions.enumerate"),
    ("solutions.enumerate.self_s", "s", "solutions.enumerate"),
    ("solutions.enumerate.found", "count", "solutions.enumerate"),
    ("witness.verify.calls", "count", "witness.verify"),
    ("witness.verify.self_s", "s", "witness.verify"),
)


def _count_split(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["rewrite.split.hits"] += result is not None
    tracer.counts["rewrite.split.input_terms"] += len(args[0]) + len(args[1])


def _count_prune(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["rewrite.count_check.prunes"] += bool(result)


def _count_pieces(tracer: "Tracer", args: tuple, result: object) -> None:
    if result is not None:
        tracer.counts["rewrite.pieces_out"] += len(result)


def _count_dead_end(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["narrow.dead_ends"] += not result


def _count_found(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["solutions.enumerate.found"] += len(result)


def _read_graph(tracer: "Tracer", args: tuple, result: object) -> None:
    """Sizes of a built graph: nodes, back edges and label sizes.  A label
    holds a duplicate when some equation occurs in it twice."""
    try:
        graph = result.graph
        labels = [node.label.equations for node in graph.nodes]
        back_edges = len(graph.back_edges)
    except AttributeError:
        tracer.absent.add("graph.shape")
        return
    counts = tracer.counts
    counts["graph.nodes"] += len(labels)
    counts["graph.back_edges"] += back_edges
    for equations in labels:
        if not equations:
            continue
        terms = sum(len(lhs) + len(rhs) for lhs, rhs in equations)
        counts["graph.labels"] += 1
        counts["graph.label_terms_total"] += terms
        counts["graph.dup_labels"] += len(set(equations)) < len(equations)
        tracer.maxima["graph.label_terms_max"] = max(tracer.maxima["graph.label_terms_max"], terms)
        tracer.maxima["graph.label_eqs_max"] = max(tracer.maxima["graph.label_eqs_max"], len(equations))


AFTER: Dict[str, Callable[["Tracer", tuple, object], None]] = {
    "rewrite.split": _count_split,
    "rewrite.count_check": _count_prune,
    "rewrite.simplify_equation": _count_pieces,
    "narrow.compatible": _count_dead_end,
    "graph.build": _read_graph,
    "solutions.enumerate": _count_found,
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = defaultdict(int)
        self.absent: set = set()
        self._children: List[float] = []  # time of wrapped calls inside each open span
        self._restore: List[Tuple[object, str, object]] = []

    def install(self, package: str = "wordeq") -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        installed = set()
        for span, module_name, function_name in TARGETS:
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, function_name, None)
            if not callable(original):
                continue
            installed.add(span)
            wrapper = self._wrap(span, original)
            for binder in modules:
                for attr, value in list(vars(binder).items()):
                    if value is original:
                        self._restore.append((binder, attr, original))
                        setattr(binder, attr, wrapper)
        self.absent |= {span for span, _, _ in TARGETS} - installed

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, span: str, function: Callable) -> Callable:
        children = self._children
        after = AFTER.get(span)

        def wrapper(*args, **kwargs):
            children.append(0.0)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                inner = children.pop()
                self.calls[span] += 1
                self.self_s[span] += elapsed - inner
                self.total_s[span] += elapsed
                if children:
                    children[-1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def metrics(self, passes: int) -> Dict[str, float]:
        """Every metric of ``METRICS`` whose source is present, per pass
        over the workload (shares and maxima are over all passes)."""
        calls, counts = self.calls, self.counts

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        values = {
            "parse.calls": calls["parse"] / passes,
            "parse.self_s": self.self_s["parse"] / passes,
            "core.substitute.calls": calls["core.substitute"] / passes,
            "core.substitute.self_s": self.self_s["core.substitute"] / passes,
            "rewrite.simplify.calls": calls["rewrite.simplify"] / passes,
            "rewrite.self_s": sum(t for s, t in self.self_s.items() if s.startswith("rewrite.")) / passes,
            "rewrite.reduce.calls": calls["rewrite.reduce"] / passes,
            "rewrite.reduce.self_s": self.self_s["rewrite.reduce"] / passes,
            "rewrite.split.calls": calls["rewrite.split"] / passes,
            "rewrite.split.self_s": self.self_s["rewrite.split"] / passes,
            "rewrite.split.hit_share": share(counts["rewrite.split.hits"], calls["rewrite.split"]),
            "rewrite.split.input_terms": counts["rewrite.split.input_terms"] / passes,
            "rewrite.count_check.calls": calls["rewrite.count_check"] / passes,
            "rewrite.count_check.prunes": counts["rewrite.count_check.prunes"] / passes,
            "rewrite.pieces_out": counts["rewrite.pieces_out"] / passes,
            "narrow.compatible.calls": calls["narrow.compatible"] / passes,
            "narrow.dead_ends": counts["narrow.dead_ends"] / passes,
            "narrow.step.calls": calls["narrow.step"] / passes,
            "narrow.step.self_s": self.self_s["narrow.step"] / passes,
            "graph.build.calls": calls["graph.build"] / passes,
            "graph.build.self_s": self.self_s["graph.build"] / passes,
            "graph.nodes": counts["graph.nodes"] / passes,
            "graph.nodes_per_s": share(counts["graph.nodes"], self.total_s["graph.build"]),
            "graph.back_edges": counts["graph.back_edges"] / passes,
            "graph.fold_share": share(counts["graph.back_edges"], counts["graph.nodes"]),
            "graph.label_terms_max": self.maxima["graph.label_terms_max"],
            "graph.label_terms_total": counts["graph.label_terms_total"] / passes,
            "graph.label_eqs_max": self.maxima["graph.label_eqs_max"],
            "graph.dup_label_share": share(counts["graph.dup_labels"], counts["graph.labels"]),
            "solutions.min_witness.calls": calls["solutions.min_witness"] / passes,
            "solutions.min_witness.self_s": self.self_s["solutions.min_witness"] / passes,
            "solutions.enumerate.calls": calls["solutions.enumerate"] / passes,
            "solutions.enumerate.self_s": self.self_s["solutions.enumerate"] / passes,
            "solutions.enumerate.found": counts["solutions.enumerate.found"] / passes,
            "witness.verify.calls": calls["witness.verify"] / passes,
            "witness.verify.self_s": self.self_s["witness.verify"] / passes,
        }
        absent = set(self.absent)
        if "graph.build" in absent:
            absent.add("graph.shape")
        return {name: values[name] for name, _, source in METRICS if source not in absent}
