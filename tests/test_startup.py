"""What a fresh interpreter loads to run the CLI.

A launch pays for every module it imports, so the CLI imports no module
that only some commands use: `json` and `datetime` are imported when a
report is written, and the records are namedtuples, so `dataclasses` (and
the `inspect` it pulls in) is never loaded.  These tests assert the module
set of a fresh process, not a wall time.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NOT_AT_STARTUP = ("dataclasses", "inspect", "json", "datetime")


def _run(args: list, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, **kwargs)


def test_building_the_parser_loads_no_optional_module():
    code = (
        "import sys, rectadd.cli; rectadd.cli.build_parser(); "
        f"print(','.join(m for m in {NOT_AT_STARTUP!r} if m in sys.modules))"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_module_launch_writes_a_report_that_parses(tmp_path):
    out = tmp_path / "report.json"
    proc = _run(["-m", "rectadd", "decompose", "--rect", "[0,8]x[0,5]", "--json", str(out)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["command"] == "decompose" and report["exit_status"] == 0
    assert [f["status"] for f in report["findings"]] == ["verified"] * 3
