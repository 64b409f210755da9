"""What a fresh interpreter loads to run the CLI.

A launch pays for every module it imports, so the CLI imports no module
that only some commands use: the parser is built before any layer is
imported, `harness` is imported once the arguments parse, `suites` only by
`proptest`, `json` and `datetime` when a report is written, and the records
are namedtuples, so `dataclasses` (and the `inspect` it pulls in) is never
loaded.  These tests assert the module set of a fresh process, not a wall
time.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAYERS = ("numeric", "geometry", "rectfn", "decompose", "harness", "suites")
NOT_AT_STARTUP = ("dataclasses", "inspect", "json", "datetime", "fractions", *(f"rectadd.{m}" for m in LAYERS))
# runs `python -m rectadd` with sys.argv[1:] and prints, as the last line of
# stdout, the rectadd modules loaded by the time the interpreter exits
AS_MODULE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith('rectadd.'))))\n"
    "sys.argv[0] = 'rectadd'\n"
    "runpy.run_module('rectadd', run_name='__main__', alter_sys=True)"
)


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


@pytest.mark.parametrize(
    "argv, status, layers",
    [
        (["decompose", "--rect", "[0,8]x[0,5]"], 0, ["numeric", "geometry", "rectfn", "decompose", "harness"]),
        (["counterexample", "--samples", "10"], 0, ["numeric", "geometry", "rectfn", "decompose", "harness"]),
        (["proptest", "--suite", "field", "--cases", "5"], 0, LAYERS),
        (["proptest", "--suite", "nope"], 2, []),
    ],
    ids=["decompose", "counterexample", "proptest", "refused"],
)
def test_a_launch_loads_only_the_layers_its_command_runs(argv, status, layers):
    proc = _run(["-c", AS_MODULE, *argv])
    assert proc.returncode == status, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert sorted(loaded) == sorted(f"rectadd.{m}" for m in ("cli", *layers))
