"""Command-line interface: `rectadd <command> [flags]`.

Commands print one line per finding and exit 0 only when no finding is
violated, 1 when one is, and 2 when the input is refused or a report file
cannot be written; `--json PATH` additionally writes the full report.
"""

from __future__ import annotations

import argparse
import functools
import sys
from importlib import import_module

# `suites.SUITE_NAMES`, spelled out so that building the parser imports no
# layer: a launch imports its command's module only once its arguments parse
SUITE_NAMES = ("additivity", "field", "halving", "oracle", "telescope", "tiling")

# name -> (function, help, flags).  Each flag's dest is a keyword of the
# function, and an omitted flag is not passed, so the function's signature
# holds every default.  The function `cmd_<x>` lives in the module
# `command_<x>`, and `main` looks it up there when the command runs, which
# loads that command's module alone, so a wrapper installed on the module
# (perfbench's layer spans) also sees CLI calls.
COMMANDS = {
    "counterexample": (
        "cmd_counterexample",
        "positivity on random dyadic squares vs a negative witness rectangle",
        (
            ("--min-order", {"type": int}),
            ("--max-order", {"type": int}),
            ("--samples", {"type": int}),
            ("--seed", {"type": int}),
            ("--function", {}),
        ),
    ),
    "decompose": (
        "cmd_decompose",
        "greedy square decomposition with certificates",
        (
            ("--rect", {"required": True, "help": "rectangle literal [x1,x2]x[y1,y2]"}),
            ("--max-steps", {"type": int}),
            ("--function", {}),
            ("--svg", {"dest": "svg_path", "metavar": "PATH", "help": "render the figure here"}),
        ),
    ),
    "dyadic-approx": (
        "cmd_dyadic_approx",
        "inner dyadic cover sums vs the exact rectangle value",
        (
            ("--rect", {"required": True}),
            ("--function", {}),
            ("--max-order", {"type": int}),
        ),
    ),
    "probe": (
        "cmd_probe",
        "sampled quotients F(Q)/|Q|^alpha near a point",
        (
            ("--function", {}),
            ("--point", {"help": "comma-separated pair of QNum literals, e.g. '1/2,0+1*sqrt2'"}),
            ("--alpha", {"help": "rational exponent in [0,2], e.g. 1 or 3/2"}),
            ("--depth", {"type": int}),
            ("--offsets", {"type": int}),
            ("--within", {"help": "optional rectangle literal; containment is recorded"}),
        ),
    ),
    "proptest": (
        "cmd_proptest",
        "run a named exact-invariant suite",
        (
            ("--suite", {"required": True, "choices": SUITE_NAMES}),
            ("--cases", {"type": int}),
            ("--seed", {"type": int}),
        ),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, and each call of `main` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="rectadd",
        description="Exact verification and figures for additive rectangle "
        "functions, dyadic covers, and greedy square decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    kwargs = vars(parser.parse_args(argv))
    from .report import write_report_json

    command = kwargs.pop("command")
    json_path = kwargs.pop("json", None)
    function = COMMANDS[command][0]
    module = import_module(f"{__package__}.command_{function.removeprefix('cmd_')}")
    # exit 1 is reserved for a violated claim; refused input and files that
    # cannot be written (--svg, --json) exit 2 before any finding is printed
    try:
        report = getattr(module, function)(**kwargs)
        if json_path:
            write_report_json(report, json_path)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        parser.exit(2, f"rectadd {command}: {exc}\n")
    for f in report.findings:
        line = f"[{f.status}] {f.claim}"
        for label, values in (("exact", f.exact_values), ("approx", f.approximations)):
            if values:
                more = ", ..." if len(values) > 8 else ""
                line += f"  {label}: " + ", ".join(values[:8]) + more
        print(line)
    if json_path:
        print(f"report written to {json_path}")
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
