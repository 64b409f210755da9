"""The report model every command builds, and the one budget they share.

A command returns a Report whose findings carry exact field values next to
display decimals; a finding is `verified` or `violated` only when the claim
is exactly decidable, and sampled liminf evidence is always `evidence-only`.
Reports serialize to JSON (schema 1).
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # a launch that refuses its input before any work loads no layer
    from .numeric import QNum

SCHEMA_VERSION = 1
DISPLAY_DIGITS = 6
# The largest mesh order a command reaches: the orders `cmd_counterexample`
# draws its squares from, `cmd_dyadic_approx`'s max_order and `cmd_probe`'s
# depth (a probe scale 2^-j is a mesh order).  `cmd_dyadic_approx` evaluates
# one cover per order up to its max_order: through the CLI, the witness
# takes 0.1 s up to order 1000 and 0.2 s up to order 2000 with the budget
# raised, of which the command itself takes 0.02 s and 0.11 s in process;
# the rest is the launch (median of 3 on a 2-CPU x86_64 host, Python
# 3.11.7).
MAX_ORDER = 1000

VERIFIED = "verified"
VIOLATED = "violated"
EVIDENCE = "evidence-only"


# A claim, its status, and tuples of exact literals and display decimals.
Finding = namedtuple("Finding", "claim status exact_values approximations", defaults=((), ()))


class Report(namedtuple("Report", "command inputs findings")):
    """A command's name, the dict of its inputs, and its tuple of Findings."""

    __slots__ = ()

    @property
    def exit_status(self) -> int:
        return 1 if any(f.status == VIOLATED for f in self.findings) else 0


def _lits(*values: QNum) -> tuple[str, ...]:
    return tuple(v.literal() for v in values)


def _approxs(*values: QNum) -> tuple[str, ...]:
    return tuple(v.approximate(DISPLAY_DIGITS) for v in values)


def report_to_dict(report: Report, timestamp: Optional[str] = None) -> dict:
    """JSON-ready dict.  `generated_at` is the only field excluded from
    byte-for-byte determinism guarantees."""
    if timestamp is None:
        from datetime import datetime, timezone  # on use: a CLI launch without --json skips it

        timestamp = datetime.now(timezone.utc).isoformat()
    return {
        "schema": SCHEMA_VERSION,
        "command": report.command,
        "generated_at": timestamp,
        "inputs": report.inputs,
        "findings": [
            {
                "claim": f.claim,
                "status": f.status,
                "exact_values": list(f.exact_values),
                "approximations": list(f.approximations),
            }
            for f in report.findings
        ],
        "exit_status": report.exit_status,
    }


def write_report_json(report: Report, path: str) -> None:
    import json  # on use: a CLI launch without --json skips it

    # one write of the whole text: json.dump writes once per encoder chunk
    text = json.dumps(report_to_dict(report), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
