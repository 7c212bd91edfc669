import importlib.util
import json
import os

from wordeq import graph, parse, rewrite, solutions, witness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_target():
    # A function the tracer wraps that the program stops calling through its
    # module leaves the benchmark's traced run short of metrics.  The tracer
    # is loaded from its file, without putting ``benchmarks/`` on the path.
    spec = importlib.util.spec_from_file_location("tracer", os.path.join(ROOT, "benchmarks", "tracer.py"))
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        system = parse.parse_system("A x y = x y A")
        outcome = graph.build(system, rewrite.Scheme.COUNT)
        built = dict(tracer.calls)
        assert graph.verdict(outcome) == graph.SAT
        program = solutions.min_witness(outcome.graph)
        assert witness.verify(program, system, rewrite.Scheme.COUNT)
        verified = dict(tracer.calls)
        assert solutions.enumerate_solutions(outcome.graph, 2, 6)
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(tracer.metrics(1)) == per_layer - {"trace.overhead_s"}
    # both the build and the verifier unfold through these
    for span in ("narrow.step", "rewrite.simplify", "rewrite.reduce"):
        assert built.get(span, 0) >= 1, span
        assert verified[span] > built[span], span
