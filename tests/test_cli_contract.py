"""The CLI's exit contract across every command, on argument vectors drawn
from each command's flags in `cli.COMMANDS`.

Exit 0 means every decidable claim held, 1 that one was violated, and 2
that the input was refused or a file could not be written; no input may
crash `cli.main`.  Each vector is drawn from a seeded generator: every flag
takes a value from its accepted range, or is left out when it is optional,
and about a third of the vectors give one flag an edge value instead: a
budget's boundary or one past it, a value below the accepted range, or
malformed text.  The other flags of an edge vector keep their defaults, so
a boundary runs at the cost its budget was measured at.  A command added
to `COMMANDS` is drawn the day it lands: a flag this file does not know
gets the generic values of its type.
"""

import inspect
import json
import random

from rectadd import harness, numeric
from rectadd.cli import COMMANDS, main

SEED = 31
VECTORS_PER_COMMAND = 40
EDGE_SHARE = 0.35
LONG = "7" * numeric.MAX_LITERAL_DIGITS

# accepted values of each flag, the first one cheapest
VALID = {
    "--rect": ["[0,8]x[0,5]", "[0,1+1*sqrt2]x[0,1]", "[1/3,2+1/7*sqrt2]x[-1/5,1/9]", "[0,1]x[1,0+1*sqrt2]"],
    "--within": ["[0,1]x[0,1]", "[1/4,3/4]x[0,1+1*sqrt2]"],
    "--function": ["counterexample", "product", "constant:3/2", "constant:1-1*sqrt2"],
    "--point": ["1/2,1/2", "0,0+1*sqrt2", "-1/3,2"],
    "--alpha": ["1", "3/2", "0.5", "1/3", "2", "0"],
    "--seed": ["0", "1", "7", "-5"],
}
# edge values of each flag whatever the command: literal digit budgets,
# malformed text and values out of range
EDGES = {
    "--rect": [f"[0,1/{LONG}]x[0,1]", f"[0,1/{LONG}7]x[0,1]", "[0,1]", "[1,0]x[0,1]", "[0,1]x[0,1", "", "[a,b]x[c,d]"],
    "--within": [f"[0,1/{LONG}]x[0,1]", f"[0,1/{LONG}7]x[0,1]", "[0,1]", "x"],
    "--function": ["nope", "constant:", "constant:x", f"constant:{LONG}", f"constant:{LONG}7"],
    "--point": [f"1/{LONG},1/3", f"1/{LONG}7,1/3", "1/2", "a,b", "1,2,3", ""],
    "--alpha": [
        f"1/{harness.MAX_ALPHA_DENOMINATOR}", f"1/{harness.MAX_ALPHA_DENOMINATOR + 1}",
        "1" * harness.MAX_ALPHA_DIGITS + "/" + "2" * harness.MAX_ALPHA_DIGITS,
        "1" * (harness.MAX_ALPHA_DIGITS + 1) + "/" + "2" * (harness.MAX_ALPHA_DIGITS + 1),
        "1e-3", "1/0", "-1", "3", "x", "",
    ],
}
# (command, flag) -> the budget of an integer flag, by its name in `harness`
BUDGETS = {
    ("counterexample", "--samples"): "MAX_SAMPLES",
    ("counterexample", "--min-order"): "MAX_ORDER",
    ("counterexample", "--max-order"): "MAX_ORDER",
    ("decompose", "--max-steps"): "MAX_STEPS",
    ("dyadic-approx", "--max-order"): "MAX_ORDER",
    ("probe", "--depth"): "MAX_ORDER",
    ("probe", "--offsets"): "MAX_PROBE_SQUARES",
    ("proptest", "--cases"): "MAX_CASES",
}
# `--offsets` alone reaches the square budget at the probe's default depth
PROBE_DEPTH = inspect.signature(harness.cmd_probe).parameters["depth"].default


def _int_edges(command: str, flag: str) -> list:
    edges = ["0", "-1", "x", "1.5", ""]
    budget = BUDGETS.get((command, flag))
    if budget is not None:
        top = getattr(harness, budget)
        if budget == "MAX_PROBE_SQUARES":
            top //= PROBE_DEPTH
        edges += [str(top), str(top + 1)]
    return edges


def _value(rng: random.Random, command: str, flag: str, options: dict, edge: bool, tmp_path) -> str:
    if flag == "--svg":
        return str((tmp_path / "missing" if edge else tmp_path) / f"{rng.getrandbits(32):08x}.svg")
    if "choices" in options:
        return "nope" if edge else rng.choice(options["choices"])
    if options.get("type") is int:
        if edge:
            return rng.choice(_int_edges(command, flag))
        return rng.choice(VALID["--seed"]) if flag == "--seed" else str(rng.randint(1, 8))
    pool = EDGES if edge else VALID
    return rng.choice(pool.get(flag, ["", "x"] if edge else ["1"]))


def _cheapest(flag: str, options: dict) -> str:
    return options["choices"][0] if "choices" in options else VALID.get(flag, ["1"])[0]


def draw(rng: random.Random, command: str, tmp_path) -> list:
    """One argument vector of `command`, with at most one edge value."""
    flags = COMMANDS[command][2]
    edge = rng.randrange(len(flags)) if rng.random() < EDGE_SHARE else None
    argv = [command]
    for i, (flag, options) in enumerate(flags):
        if i == edge:
            argv += [flag, _value(rng, command, flag, options, True, tmp_path)]
        elif edge is not None:
            if options.get("required"):
                argv += [flag, _cheapest(flag, options)]
        elif options.get("required") or rng.random() < 0.6:
            argv += [flag, _value(rng, command, flag, options, False, tmp_path)]
    if rng.random() < 0.3:
        unwritable = rng.random() < 0.1
        argv += ["--json", str((tmp_path / "missing" if unwritable else tmp_path) / f"{rng.getrandbits(32):08x}.json")]
    return argv


def _exit(argv: list) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_every_drawn_vector_keeps_the_exit_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    tally = {command: {0: 0, 1: 0, 2: 0} for command in COMMANDS}
    for command in COMMANDS:
        for _ in range(VECTORS_PER_COMMAND):
            argv = draw(rng, command, tmp_path)
            code = _exit(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), argv
            tally[command][code] += 1
            assert (code == 1) == any(line.startswith("[violated]") for line in out.splitlines()), argv
            json_path = argv[argv.index("--json") + 1] if "--json" in argv else None
            if code == 2:
                assert out == "", argv
                named = [line for line in err.splitlines() if line.startswith(f"rectadd {command}:")]
                assert len(named) == 1 and err.splitlines()[-1] == named[0], (argv, err)
                # a parser refusal puts its usage above the line
                assert err.startswith("usage: rectadd") or err == named[0] + "\n", (argv, err)
            elif json_path is not None:
                with open(json_path, encoding="utf-8") as fh:
                    assert json.load(fh)["exit_status"] == code, argv
    # the draws lean to accepted inputs, and reach every exit of each command
    accepted = sum(t[0] + t[1] for t in tally.values())
    assert accepted > len(COMMANDS) * VECTORS_PER_COMMAND // 2, tally
    assert all(t[0] and t[2] for t in tally.values()), tally
