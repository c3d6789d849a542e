"""Each benchmark workload runs briefly end to end: every verdict matches the
answer key, no operation fails, and every operation is decided.  This
catches a broken answer key or exit-code contract before a timed run does."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["universality-gadgets", "gw-betweenness", "nfa-order"])
def test_workload_runs_correct_and_fully_decided(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["metrics"]["decided_share"]["value"] == 1.0
