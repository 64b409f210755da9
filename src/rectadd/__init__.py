"""Exact-arithmetic toolkit for additive functions of rectangles.

Numbers live in Q(sqrt2), rectangles carry exact corners, rectangle
functions are corner differences of point functions, and the greedy square
decomposition comes with machine-checkable halving and telescoping
certificates.  See the CLI (`rectadd --help`) for the report commands.

Each exported name is imported from its module on first use (PEP 562), so
`import rectadd` loads no layer, and a CLI launch loads only the layers its
command runs.
"""

from importlib import import_module as _import_module
from sys import modules as _modules
from types import ModuleType as _ModuleType

# module -> the names the package exports from it
_EXPORTS = {
    "numeric": ("Fraction", "QNum", "SQRT2", "ZERO", "ONE", "qnum", "parse_qnum"),
    "geometry": (
        "Rect",
        "DyadicSquare",
        "split",
        "as_dyadic_square",
        "dyadic_inner_cover_span",
        "dyadic_inner_cover_rect",
        "parse_rect",
    ),
    "rectfn": (
        "PointFunction",
        "Product",
        "Counterexample",
        "Constant",
        "Table",
        "PRODUCT",
        "COUNTEREXAMPLE",
        "RectFunction",
        "corner_difference",
        "named_point_function",
        "named_rect_function",
        "check_additivity",
        "strong_continuity_witness",
        "liminf_quotient_probe",
        "ProbeReport",
    ),
    "decompose": (
        "Step",
        "Decomposition",
        "HalvingCertificate",
        "greedy_step",
        "decompose",
        "verify_halving",
        "telescope",
        "continued_fraction_counts",
    ),
    "report": ("Finding", "Report", "report_to_dict"),
    "command_counterexample": ("cmd_counterexample",),
    "command_decompose": ("cmd_decompose", "write_decomposition_svg"),
    "command_dyadic_approx": ("cmd_dyadic_approx",),
    "command_probe": ("cmd_probe",),
    "command_proptest": ("cmd_proptest",),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
# `decompose` is the function, not its module
_SUBMODULES = ("numeric", "geometry", "rectfn", "harness", "suites")
__all__ = [*_HOMES, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    # Importing the submodule `rectadd.decompose`, by whatever import
    # statement and after whichever other layer, binds the module as the
    # package attribute `decompose`.  The package's `decompose` is the
    # function, so this property drops a module bound to the name and keeps
    # any other value.
    @property
    def decompose(self):
        return self.__dict__.get("decompose") or __getattr__("decompose")

    @decompose.setter
    def decompose(self, value) -> None:
        if not isinstance(value, _ModuleType):
            self.__dict__["decompose"] = value


_modules[__name__].__class__ = _Package
