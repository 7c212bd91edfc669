import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fingerprints_of_named_instances_hold():
    files = [os.path.join(ROOT, "benchmarks", "instances", w, "named.eq") for w in ("decide", "enumerate")]
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "fingerprint.py"), "--check", *files],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith(" 0 moved\n")
