import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fingerprints_of_the_corpus_hold():
    # every instance of every workload: the check that any change to the
    # build loop that moves a graph fails; the timeout is over 8x its time,
    # so a graph reader that turns quadratic fails it too
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "fingerprint.py"), "--check"],
        capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith(" 0 moved\n")
