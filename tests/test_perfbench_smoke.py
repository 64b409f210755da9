"""A short run of the benchmark's `reports` workload as a correctness gate.

Every verdict of the run is checked against perfbench's own oracle, and every
JSON report against the digests recorded in perfbench/golden.json, so a
change that alters any report byte (or a verdict) fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reports_workload_matches_golden_digests():
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "reports",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stdout + proc.stderr
    assert result["failed"] == 0, proc.stdout + proc.stderr
    assert proc.returncode == 0
