"""The package's exports, which it imports on first use, and `harness`'s
re-exports: each is the object its module defines, and `rectadd.decompose` is the
function whichever import of the submodule `rectadd.decompose` came first.
Each check runs in a fresh interpreter, because a module that the test
process has already imported hides what an import order does."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# every public name of `import rectadd`, by the module that defines it
EXPORTS = {
    "numeric": ["Fraction", "QNum", "SQRT2", "ZERO", "ONE", "qnum", "parse_qnum"],
    "geometry": [
        "Rect", "DyadicSquare", "split", "as_dyadic_square", "dyadic_inner_cover_span",
        "dyadic_inner_cover_rect", "parse_rect",
    ],
    "rectfn": [
        "PointFunction", "Product", "Counterexample", "Constant", "Table", "PRODUCT", "COUNTEREXAMPLE",
        "RectFunction", "corner_difference", "named_point_function", "named_rect_function",
        "check_additivity", "strong_continuity_witness", "liminf_quotient_probe", "ProbeReport",
    ],
    "decompose": [
        "Step", "Decomposition", "HalvingCertificate", "greedy_step", "decompose", "verify_halving",
        "telescope", "continued_fraction_counts",
    ],
    "harness": [
        "Finding", "Report", "cmd_counterexample", "cmd_decompose", "cmd_dyadic_approx", "cmd_probe",
        "cmd_proptest", "report_to_dict", "write_decomposition_svg",
    ],
}
SUBMODULES = ["numeric", "geometry", "rectfn", "harness", "suites"]
PUBLIC = [n for names in EXPORTS.values() for n in names] + SUBMODULES
# every public name of `rectadd.harness`, by the module that defines it
HARNESS = {
    "report": [
        "SCHEMA_VERSION", "DISPLAY_DIGITS", "MAX_ORDER", "VERIFIED", "VIOLATED", "EVIDENCE", "Finding", "Report",
        "report_to_dict", "write_report_json",
    ],
    "command_counterexample": ["MAX_SAMPLES", "WITNESS_RECT", "cmd_counterexample"],
    "command_decompose": ["MAX_TILES", "MAX_STEPS", "cmd_decompose", "write_decomposition_svg"],
    "command_dyadic_approx": ["cmd_dyadic_approx", "inner_cover_sum", "shrink_bound"],
    "command_probe": ["MAX_ALPHA_DENOMINATOR", "MAX_ROOT_WORK", "MAX_ALPHA_DIGITS", "MAX_PROBE_SQUARES", "cmd_probe"],
    "command_proptest": ["MAX_CASES", "cmd_proptest"],
}


def _fresh(code: str) -> object:
    """What a fresh interpreter running code prints, read as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_export_is_the_object_its_module_holds():
    code = (
        "import importlib, json, sys, rectadd\n"
        f"exports, submodules = {EXPORTS!r}, {SUBMODULES!r}\n"
        "wrong = [n for m, names in exports.items() for n in names\n"
        "         if getattr(rectadd, n) is not getattr(importlib.import_module('rectadd.' + m), n)]\n"
        "wrong += [m for m in submodules if getattr(rectadd, m) is not sys.modules['rectadd.' + m]]\n"
        "print(json.dumps(wrong))"
    )
    assert _fresh(code) == []


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read-first"])
@pytest.mark.parametrize(
    "statement", ["import rectadd.harness", "import rectadd.decompose", "from rectadd.decompose import Step"]
)
def test_decompose_stays_the_function_after_the_submodule_loads(statement, read_first):
    code = (
        "import json, sys, rectadd\n"
        + ("rectadd.decompose\n" if read_first else "")
        + f"{statement}\n"
        "from rectadd import decompose\n"
        "fn = sys.modules['rectadd.decompose'].decompose\n"
        "print(json.dumps([rectadd.decompose is fn, decompose is fn, callable(fn)]))"
    )
    assert _fresh(code) == [True, True, True]


def test_a_function_bound_to_decompose_is_kept(monkeypatch):
    import rectadd

    def fake(r, max_steps):
        return None

    monkeypatch.setattr(rectadd, "decompose", fake)
    assert rectadd.decompose is fake


def test_dir_and_star_import_cover_every_export():
    code = (
        "import json, rectadd\n"
        "listed = [n for n in dir(rectadd) if not n.startswith('_')]\n"
        "bound = {}\n"
        "exec('from rectadd import *', bound)\n"
        "same = all(bound[n] is getattr(rectadd, n) for n in rectadd.__all__)\n"
        "print(json.dumps([listed, sorted(rectadd.__all__), same, hasattr(rectadd, 'nothing')]))"
    )
    listed, exported, same, has_nothing = _fresh(code)
    assert listed == exported == sorted(PUBLIC)
    assert same and not has_nothing


def test_every_harness_name_is_the_object_its_module_holds():
    code = (
        "import importlib, json, rectadd.harness as harness\n"
        f"homes = {HARNESS!r}\n"
        "wrong = [n for m, names in homes.items() for n in names\n"
        "         if getattr(harness, n) is not getattr(importlib.import_module('rectadd.' + m), n)]\n"
        "print(json.dumps([wrong, [n for n in dir(harness) if not n.startswith('_')]]))"
    )
    wrong, listed = _fresh(code)
    assert wrong == []
    assert listed == sorted(n for names in HARNESS.values() for n in names)


def test_only_the_decompose_module_shares_a_name_with_an_export():
    # importing a submodule binds its name on the package, which `_Package`
    # undoes for `decompose` alone
    import pkgutil

    import rectadd

    modules = {m.name for m in pkgutil.iter_modules(rectadd.__path__)}
    assert modules & set(PUBLIC) - set(SUBMODULES) == {"decompose"}
