"""The benchmark runs against the program: each workload BENCHMARK.json
declares, run for one short second, must come out correct, with no
failed frame pair and every declared end-to-end metric finite. This
fails on a program change that breaks what the benchmark calls, such as
a renamed ``frontend.generate_sequence`` or ``pipeline.run``."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_correct_with_finite_metrics(workload):
    # the declared command with this interpreter for its python3
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "77", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    for metric in BENCHMARK["end_to_end"]:
        assert math.isfinite(result["metrics"][metric["name"]]["value"]), metric["name"]
