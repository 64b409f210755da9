"""Machine-checked reports for the library's headline constructions.

`harness.cmd_*` runs the CLI command of the same name.  Each command is a
module of its own with its budgets and helpers (`command_counterexample`,
`command_decompose`, `command_dyadic_approx`, `command_probe`,
`command_proptest`); none imports another, and all build on the report
model in `report`.  Each name below is imported from its module on first
use (PEP 562), so a CLI launch compiles only the command it runs.  A name
read here is then bound here: a wrapper set on `harness` is what `cli.main`
calls, and a patch of what a command itself reads goes on its module.
"""

from importlib import import_module as _import_module

__all__ = [
    "Finding", "Report", "report_to_dict", "write_report_json", "write_decomposition_svg",
    "cmd_counterexample", "cmd_decompose", "cmd_dyadic_approx", "cmd_probe", "cmd_proptest",
]

# module -> the names `harness` exports from it
_EXPORTS = {
    "report": (
        "SCHEMA_VERSION", "DISPLAY_DIGITS", "MAX_ORDER", "VERIFIED", "VIOLATED", "EVIDENCE", "Finding", "Report",
        "report_to_dict", "write_report_json",
    ),
    "command_counterexample": ("MAX_SAMPLES", "WITNESS_RECT", "cmd_counterexample"),
    "command_decompose": ("MAX_TILES", "MAX_STEPS", "cmd_decompose", "write_decomposition_svg"),
    "command_dyadic_approx": ("cmd_dyadic_approx", "inner_cover_sum", "shrink_bound"),
    "command_probe": ("MAX_ALPHA_DENOMINATOR", "MAX_ROOT_WORK", "MAX_ALPHA_DIGITS", "MAX_PROBE_SQUARES", "cmd_probe"),
    "command_proptest": ("MAX_CASES", "cmd_proptest"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__package__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOMES})
