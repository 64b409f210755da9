"""Short runs of the benchmark's workloads as a correctness gate.

Every verdict of a run is checked against perfbench's own oracle, and every
JSON report against the digests recorded in perfbench/golden.json, so a
change that alters any report byte (or a verdict) fails here.  `reports`
covers every command; `wide_strip` covers decompositions of about 1000
packed squares, their telescoping sums and the square count of their SVGs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_entry_points_resolve():
    # `perfbench/run.py --trace 1` wraps each of these names in place; a
    # rename or deletion in rectadd would break only the traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.ENTRY_POINTS.items():
        module = importlib.import_module(f"rectadd.{layer}")
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                assert attr in vars(getattr(module, cls_name)), f"{layer}.{name}"
            else:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_a_tracer_entered_after_importing_harness_wraps_the_command_modules(tmp_path):
    # in a fresh interpreter that has imported `harness` and run nothing, a
    # traced `cmd_decompose` with an SVG opens two `harness` spans: the
    # command's and that of the SVG writer its module calls
    code = (
        "import importlib.util, rectadd.harness as harness\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_spans', {str(ROOT / 'perfbench' / 'spans.py')!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "with spans.Tracer() as tracer:\n"
        "    tracer.active = True\n"
        f"    harness.cmd_decompose(rect='[0,8]x[0,5]', svg_path={str(tmp_path / 'd.svg')!r})\n"
        "print(tracer.spans('harness'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]


@pytest.mark.parametrize("workload", ["reports", "wide_strip", "telescope_mix"])
def test_workload_matches_oracle_and_golden_digests(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
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
