"""Machine-checked reports for the library's headline constructions.

`harness` holds no code: it re-exports the report model in `report` and
each command's function, budgets and helpers from the command's own module
(`command_counterexample`, `command_decompose`, `command_dyadic_approx`,
`command_probe`, `command_proptest`), so `harness.cmd_*` is the function
that runs the CLI command of the same name.  Importing it loads all five
command modules; the CLI does not import it, so a launch compiles only the
command it runs.  A patch of what a command reads, its own function
included, goes on the command's module.
"""

from .report import (
    DISPLAY_DIGITS, EVIDENCE, MAX_ORDER, SCHEMA_VERSION, VERIFIED, VIOLATED, Finding, Report, report_to_dict,
    write_report_json,
)
from .command_counterexample import MAX_SAMPLES, WITNESS_RECT, cmd_counterexample
from .command_decompose import MAX_STEPS, MAX_TILES, cmd_decompose, write_decomposition_svg
from .command_dyadic_approx import cmd_dyadic_approx, inner_cover_sum, shrink_bound
from .command_probe import MAX_ALPHA_DENOMINATOR, MAX_ALPHA_DIGITS, MAX_PROBE_SQUARES, MAX_ROOT_WORK, cmd_probe
from .command_proptest import MAX_CASES, cmd_proptest

__all__ = [
    "Finding", "Report", "report_to_dict", "write_report_json", "write_decomposition_svg",
    "cmd_counterexample", "cmd_decompose", "cmd_dyadic_approx", "cmd_probe", "cmd_proptest",
]
