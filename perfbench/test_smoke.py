"""The benchmark's own test: its smoke mode must pass.

Smoke mode runs every workload at its smallest size, traced and untraced,
checks that every metric named in BENCHMARK.json is emitted, and checks that
a corrupted region CSV row fails the output check.
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_benchmark_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke: ok")
