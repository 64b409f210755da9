"""Command-line interface: `rectadd <command> [flags]`.

Commands print one line per finding and exit 0 only when no finding is
violated, 1 when one is, and 2 when the input is refused or a report file
cannot be written; `--json PATH` additionally writes the full report.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import harness
from .suites import SUITE_NAMES


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectadd",
        description="Exact verification and figures for additive rectangle "
        "functions, dyadic covers, and greedy square decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "counterexample",
        help="positivity on random dyadic squares vs a negative witness rectangle",
    )
    p.add_argument("--min-order", type=int, default=0)
    p.add_argument("--max-order", type=int, default=12)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--function", default="counterexample")
    _add_json_flag(p)

    p = sub.add_parser("decompose", help="greedy square decomposition with certificates")
    p.add_argument("--rect", required=True, help="rectangle literal [x1,x2]x[y1,y2]")
    p.add_argument("--max-steps", type=int, default=20)
    p.add_argument("--function", default="counterexample")
    p.add_argument("--svg", metavar="PATH", help="render the decomposition figure here")
    _add_json_flag(p)

    p = sub.add_parser(
        "dyadic-approx", help="inner dyadic cover sums vs the exact rectangle value"
    )
    p.add_argument("--rect", required=True)
    p.add_argument("--function", default="product")
    p.add_argument("--max-order", type=int, default=6)
    _add_json_flag(p)

    p = sub.add_parser("probe", help="sampled quotients F(Q)/|Q|^alpha near a point")
    p.add_argument("--function", default="product")
    p.add_argument(
        "--point",
        default="1/2,1/2",
        help="comma-separated pair of QNum literals, e.g. '1/2,0+1*sqrt2'",
    )
    p.add_argument("--alpha", default="1", help="rational exponent in [0,2], e.g. 1 or 3/2")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--offsets", type=int, default=3)
    p.add_argument("--within", help="optional rectangle literal; containment is recorded")
    _add_json_flag(p)

    p = sub.add_parser("proptest", help="run a named exact-invariant suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    _add_json_flag(p)

    return parser


def _run(args: argparse.Namespace) -> harness.Report:
    if args.command == "counterexample":
        return harness.cmd_counterexample(
            min_order=args.min_order,
            max_order=args.max_order,
            samples=args.samples,
            seed=args.seed,
            function=args.function,
        )
    if args.command == "decompose":
        return harness.cmd_decompose(
            rect=args.rect,
            max_steps=args.max_steps,
            function=args.function,
            svg_path=args.svg,
        )
    if args.command == "dyadic-approx":
        return harness.cmd_dyadic_approx(
            rect=args.rect, function=args.function, max_order=args.max_order
        )
    if args.command == "probe":
        parts = args.point.split(",")
        if len(parts) != 2:
            raise ValueError(f"--point wants 'x,y', got {args.point!r}")
        return harness.cmd_probe(
            function=args.function,
            point=(parts[0], parts[1]),
            alpha=Fraction(args.alpha),
            depth=args.depth,
            offsets=args.offsets,
            within=args.within,
        )
    if args.command == "proptest":
        return harness.cmd_proptest(suite=args.suite, cases=args.cases, seed=args.seed)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exit 1 is reserved for a violated claim; refused input and files that
    # cannot be written (--svg here, --json below) exit 2
    try:
        report = _run(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        parser.exit(2, f"rectadd {args.command}: {exc}\n")
    for f in report.findings:
        line = f"[{f.status}] {f.claim}"
        if f.exact_values:
            line += "  exact: " + ", ".join(f.exact_values[:8])
            if len(f.exact_values) > 8:
                line += ", ..."
        if f.approximations:
            line += "  approx: " + ", ".join(f.approximations[:8])
            if len(f.approximations) > 8:
                line += ", ..."
        print(line)
    if getattr(args, "json", None):
        try:
            harness.write_report_json(report, args.json)
        except OSError as exc:
            parser.exit(2, f"rectadd {args.command}: {exc}\n")
        print(f"report written to {args.json}")
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
