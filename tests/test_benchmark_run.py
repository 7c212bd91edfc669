import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")

# A few instances of each workload: SAT and UNSAT decides, budget-truncated
# UNKNOWN builds, SAT builds without a witness program (the checker then
# walks the tree to an accepting leaf) and enumerations.
PICKS = {
    "decide": ["criterion6-212", "criterion6-306", "fig3b", "triptych-base", "triptych-count", "quadratic-0002",
               "sro_rep-0001", "one_variable-0001"],
    "dup_labels": ["criterion6-194", "criterion6-441"],
    "long_labels": ["criterion6-346", "criterion6-149"],
    "enumerate": ["commute-3", "reverse3-2", "fig3b-6"],
}


def test_untraced_operations_pass_the_checks(monkeypatch):
    # The benchmark's untraced run reads the solver through names of its own
    # (graph nodes, label kinds, tree edges, witnesses, solution items), so
    # a change to one of them fails here rather than only in a benchmark
    # run.  ``run.py`` is loaded from its file, with ``benchmarks/`` on the
    # path for its own imports.
    monkeypatch.syspath_prepend(BENCHMARKS)
    for name in {"checker", "speed", "workload"} - set(sys.modules):
        monkeypatch.setitem(sys.modules, name, None)  # recorded as absent: the undo drops what run.py imports
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location("benchmark_run", os.path.join(BENCHMARKS, "run.py"))
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "benchmark_run", run)  # dataclasses look their module up
    spec.loader.exec_module(run)
    verdicts = {}
    for workload in run.WORKLOADS:
        wordeq, instances = run.workload_mod.setup(workload)
        operation = run.make_operation(workload, wordeq)
        checks = run.Checks()
        picked = [inst for inst in instances if inst.id in PICKS[workload]]
        assert sorted(inst.id for inst in picked) == sorted(PICKS[workload])
        for inst in picked:
            out = operation(inst)
            assert checks.check(inst, out) is None, (workload, inst.id)
            verdicts[workload, inst.id] = out.verdict, out.witness is None
    assert verdicts["decide", "criterion6-212"] == ("UNSAT", True)
    assert verdicts["decide", "criterion6-306"] == verdicts["decide", "fig3b"] == ("SAT", False)
    assert verdicts["decide", "triptych-base"] == ("UNKNOWN", True)
    assert verdicts["dup_labels", "criterion6-194"] == verdicts["long_labels", "criterion6-346"] == ("SAT", True)
    assert verdicts["long_labels", "criterion6-149"] == ("UNKNOWN", True)
