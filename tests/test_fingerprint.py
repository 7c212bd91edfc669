import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fingerprints_of_named_instances_hold():
    # the named systems, and the budget-truncated builds of the two label workloads
    files = [
        os.path.join(ROOT, "benchmarks", "instances", *parts)
        for parts in (
            ("decide", "named.eq"),
            ("enumerate", "named.eq"),
            ("dup_labels", "criterion6.eq"),
            ("long_labels", "criterion6.eq"),
        )
    ]
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "fingerprint.py"), "--check", *files],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith(" 0 moved\n")
