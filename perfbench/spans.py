"""Layer spans around calls into rectadd's public functions.

While installed, every entry point below is replaced, in every rectadd
module that refers to it, by a wrapper that times the call.  Calls from one
layer into another, and from the benchmark into any layer, therefore open a
span; calls inside a module (and field operators such as `QNum.__mul__`,
which are too fine-grained to time one by one) count toward the enclosing
span.  A layer's self time is the time its spans cover minus the time their
child spans cover.  Spans are aggregated per layer as they close.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("numeric", "geometry", "rectfn", "decompose", "harness", "suites", "cli")

ENTRY_POINTS = {
    "numeric": ("parse_qnum", "QNum.__floor__", "QNum.approximate", "QNum.literal"),
    "geometry": (
        "Rect.__init__",
        "DyadicSquare.to_rect",
        "split",
        "as_dyadic_square",
        "dyadic_inner_cover_span",
        "dyadic_inner_cover_rect",
        "parse_rect",
    ),
    "rectfn": (
        "RectFunction.value",
        "Table.__init__",
        "named_rect_function",
        "corner_difference",
        "check_additivity",
        "liminf_quotient_probe",
    ),
    "decompose": ("greedy_step", "decompose", "verify_halving", "telescope", "continued_fraction_counts"),
    "harness": (
        "cmd_counterexample",
        "cmd_decompose",
        "cmd_dyadic_approx",
        "cmd_probe",
        "cmd_proptest",
        "inner_cover_sum",
        "report_to_dict",
        "write_report_json",
        "write_decomposition_svg",
    ),
    "suites": ("run_suite",),
    "cli": ("build_parser", "main"),
}


class Tracer:
    """Install with `with tracer:`; spans are recorded only while `active`."""

    def __init__(self) -> None:
        self.active = False
        self._totals = {layer: [0, 0] for layer in LAYERS}  # self ns, spans
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def self_ns(self, layer: str) -> int:
        return self._totals[layer][0]

    def spans(self, layer: str) -> int:
        return self._totals[layer][1]

    def _wrap(self, layer: str, fn):
        stack, totals, clock = self._stack, self._totals[layer], time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            child = [0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                totals[0] += dt - child[0]
                totals[1] += 1
                if stack:
                    stack[-1][0] += dt

        return span

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "rectadd" or n.startswith("rectadd.")]
        for layer, names in ENTRY_POINTS.items():
            home = importlib.import_module(f"rectadd.{layer}")
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, attr, self._wrap(layer, cls.__dict__[attr]))
                    continue
                fn = getattr(home, name)
                wrapped = self._wrap(layer, fn)
                for m in modules:
                    for ref in [k for k, v in vars(m).items() if v is fn]:
                        self._patch(m, ref, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
