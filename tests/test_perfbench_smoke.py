"""The benchmark drives the command line, the tree readers and writers,
gold replay and ``ConstTree`` directly; its smoke mode runs every
workload at toy size and checks the results, so a change that breaks
the benchmark fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_mode_passes():
    run = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip().splitlines()[-1] == "smoke: ok"
