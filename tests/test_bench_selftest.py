"""The benchmark's self-test: every workload at toy size, untraced and traced."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_workload_passes_its_output_check():
    proc = subprocess.run([sys.executable, "bench/bench.py", "--selftest"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for name in workloads:
        for trace in (0, 1):
            line = rf"selftest {re.escape(name)} trace={trace}: ok attempted=\d+ failed=0"
            assert re.search(rf"^{line}$", proc.stdout, re.MULTILINE), proc.stdout
