"""What a fresh interpreter loads to run the CLI.

A launch pays for every module it imports, and without a bytecode cache it
compiles each one, so the CLI imports no module that only some commands
use: the parser is built before any layer is imported, the one command
module that runs is imported once the arguments parse (`harness`, which
loads every command module, never is), `suites` is loaded only by
`proptest` and `decompose` only by the commands and suites that
decompose, `json` and `datetime` when a report is written, and the records
are namedtuples, so `dataclasses` (and the `inspect` it pulls in) is never
loaded.  These tests assert the module set of a fresh process and the
source lines it loaded, not a wall time.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from rectadd.cli import COMMANDS, SUITE_NAMES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# the module of each command, above the report model
COMMAND_MODULES = {name: "command_" + name.replace("-", "_") for name in COMMANDS}
LAYERS = ("numeric", "geometry", "rectfn", "decompose", "suites", "report", *COMMAND_MODULES.values(), "harness")
NOT_AT_STARTUP = ("dataclasses", "inspect", "json", "datetime", "fractions", *(f"rectadd.{m}" for m in LAYERS))
# runs `python -m rectadd` with sys.argv[1:] and prints, as the last line of
# stdout, the file of each rectadd module loaded by the time the interpreter
# exits (the package's own `__init__.py` included)
AS_MODULE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print({m: sys.modules[m].__file__ for m in sys.modules"
    " if m.split('.')[0] == 'rectadd'}))\n"
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


# one quick accepted launch of each command but proptest, which launches once
# per suite
ARGV = {
    "counterexample": ["--samples", "10"],
    "decompose": ["--rect", "[0,8]x[0,5]"],
    "dyadic-approx": ["--rect", "[0,1]x[0,1]", "--max-order", "3"],
    "probe": ["--depth", "1", "--offsets", "1"],
}
BELOW = ("numeric", "geometry", "rectfn")
DECOMPOSING_SUITES = ("halving", "oracle", "telescope", "tiling")
# (case id, argv, exit status, the command whose module runs or None, layers
# below the commands that it loads)
CASES = [
    *((name, [name, *ARGV[name]], 0, name, BELOW + ("decompose",) * (name == "decompose"))
      for name in COMMANDS if name != "proptest"),
    *((f"proptest-{suite}", ["proptest", "--suite", suite, "--cases", "5"], 0, "proptest",
       BELOW + ("suites",) + ("decompose",) * (suite in DECOMPOSING_SUITES))
      for suite in SUITE_NAMES),
    # refused by `cmd_proptest` before `suites` loads, and by the parser
    ("proptest-no-cases", ["proptest", "--suite", "field", "--cases", "0"], 2, "proptest", ()),
    ("refused", ["proptest", "--suite", "nope"], 2, None, ()),
]
# The rectadd source lines each launch loads, the measured figure of each
# case.  Without a bytecode cache a launch compiles every line it loads, so
# a module dragged back into a launch fails here even where it would move
# the launch time by less than its noise.  A ceiling allows SLACK lines more
# than the figure, fewer than the smallest module a launch could wrongly load.
LINES = {
    "counterexample": 1497,
    "decompose": 1992,
    "dyadic-approx": 1472,
    "probe": 1542,
    "proptest-additivity": 1645,
    "proptest-field": 1645,
    "proptest-halving": 2034,
    "proptest-oracle": 2034,
    "proptest-telescope": 2034,
    "proptest-tiling": 2034,
    "proptest-no-cases": 353,
    "refused": 227,
}
SLACK = 30


def test_every_command_and_suite_has_a_launch():
    assert set(ARGV) | {"proptest"} == set(COMMANDS)
    assert set(DECOMPOSING_SUITES) < set(SUITE_NAMES)
    assert [case[0] for case in CASES] == list(LINES)
    assert SLACK < min(_lines(os.path.join(SRC, "rectadd", f"{m}.py")) for m in COMMAND_MODULES.values())


def _lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return len(fh.read().splitlines())


@pytest.mark.parametrize("case, argv, status, command, below", CASES, ids=[c[0] for c in CASES])
def test_a_launch_loads_only_the_layers_its_command_runs(case, argv, status, command, below):
    proc = _run(["-c", AS_MODULE, *argv])
    assert proc.returncode == status, proc.stderr
    files = ast.literal_eval(proc.stdout.splitlines()[-1])
    loaded = {m.partition(".")[2] for m in files} - {""}
    runs = ("report", COMMAND_MODULES[command]) if command else ()
    assert sorted(loaded) == sorted(("cli", *runs, *below))
    others = {COMMAND_MODULES[name] for name in COMMANDS if name != command}
    assert loaded & others == set()
    assert sum(map(_lines, files.values())) <= LINES[case] + SLACK
