"""The package's import graph is strictly layered: a module imports only
modules below it in LAYERS, type-checking imports included, so no layer
knows of the ones that build on it.  The command modules share one layer:
none imports another, so a launch of one compiles no other."""

import ast
from pathlib import Path

from rectadd.decompose import Step

SRC = Path(__file__).resolve().parent.parent / "src" / "rectadd"
COMMAND_MODULES = (
    "command_counterexample", "command_decompose", "command_dyadic_approx", "command_probe", "command_proptest",
)
LAYERS = ("numeric", "geometry", "rectfn", "decompose", "suites", "report", *COMMAND_MODULES, "harness", "cli")
# the package's re-exports and its `python -m` entry point sit above every layer
EXEMPT = ("__init__", "__main__")


def relative_imports(source: str) -> set[str]:
    """The package modules a source imports by relative import, wherever the
    import statement stands."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module.split(".")[0])
            else:
                imported.update(a.name for a in node.names)
    return imported


def test_checker_sees_every_relative_import():
    source = (
        "import math\nfrom typing import TYPE_CHECKING\nfrom . import harness, suites\n"
        "from .numeric import QNum\nif TYPE_CHECKING:\n    from .decompose import Step\n"
        "def f():\n    from .cli import main\n"
    )
    assert relative_imports(source) == {"harness", "suites", "numeric", "decompose", "cli"}


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - set(EXEMPT) == set(LAYERS)


def test_relative_imports_go_down_the_layers():
    upward = []
    for i, name in enumerate(LAYERS):
        for imported in relative_imports((SRC / f"{name}.py").read_text(encoding="utf-8")):
            if LAYERS.index(imported) >= i:
                upward.append(f"{name} -> {imported}")
    assert upward == []


def test_no_command_module_imports_another():
    crossing = {
        name: sorted(relative_imports((SRC / f"{name}.py").read_text(encoding="utf-8")) & set(COMMAND_MODULES))
        for name in COMMAND_MODULES
    }
    assert {name: found for name, found in crossing.items() if found} == {}


# numeric's hash encoding: the hash a QNum caches and the helpers that
# compute it from numerators; no other module may depend on it
HASH_INTERNALS = {"_hash", "_HASH_MODULUS", "_scaled_hash"}


def hash_internals(source: str) -> set[str]:
    """The names of HASH_INTERNALS a source uses: read or written as an
    attribute, imported, named, or spelled out as a string."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used & HASH_INTERNALS


def test_checker_sees_every_use_of_the_hash_encoding():
    source = (
        '"""`_scaled_hash` in a docstring is prose."""\n'
        "from .numeric import _HASH_MODULUS as M, QNum\n"
        "def f(q, inv):\n    q._hash = numeric._scaled_hash(3, inv)\n    return _scaled_hash, q._hashed\n"
    )
    assert hash_internals(source) == {"_hash", "_HASH_MODULUS", "_scaled_hash"}
    assert hash_internals("def f(q):\n    return getattr(q, '_hash')\n") == {"_hash"}
    assert hash_internals("h = hash(q)\n_hash = None\n") == {"_hash"}


def test_only_numeric_knows_the_hash_encoding():
    users = {
        p.stem: sorted(hash_internals(p.read_text(encoding="utf-8")))
        for p in sorted(SRC.glob("*.py"))
    }
    assert users.pop("numeric") == sorted(HASH_INTERNALS)
    assert {name: used for name, used in users.items() if used} == {}


# the one builder of squares: only it, and numeric's definition, name the
# list constructor that builds and hashes every edge
EDGE_BUILDER = "_from_numerator_lists"


def edge_builder_users(source: str) -> list[str]:
    """The qualified names of the functions and classes whose code names
    EDGE_BUILDER, read or defined, with `<module>` for module-level code;
    importing it is not naming it."""
    users = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if child.name == EDGE_BUILDER:
                    users.append(inner)
                visit(child, inner)
            else:
                named = isinstance(child, ast.Name) and child.id == EDGE_BUILDER
                if named or isinstance(child, ast.Attribute) and child.attr == EDGE_BUILDER:
                    users.append(scope or "<module>")
                visit(child, scope)

    visit(ast.parse(source), "")
    return users


def test_checker_sees_every_use_of_the_edge_builder():
    source = (
        "from .numeric import _from_numerator_lists\n"
        "def _from_numerator_lists(As, Bs, L):\n    return []\n"
        "class D:\n    def all_squares(self):\n        return _from_numerator_lists([], [], 1)\n"
        "    def other(self):\n        f = numeric._from_numerator_lists\n"
        "built = _from_numerator_lists\n"
        "def f():\n    return '_from_numerator_lists'\n"
    )
    assert edge_builder_users(source) == ["_from_numerator_lists", "D.all_squares", "D.other", "<module>"]


def test_only_all_squares_builds_squares():
    users = {
        p.stem: edge_builder_users(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.glob("*.py"))
    }
    assert users.pop("numeric") == [EDGE_BUILDER]
    assert {name: found for name, found in users.items() if found} == {"decompose": ["Decomposition.all_squares"]}
    # a Step is a bare record, so it has no method to build its own squares
    assert Step.__bases__ == (tuple,)


# the row rule: only `Decomposition._corners` says where a row ends, so
# `telescope` reads none of the fields the row bounds come from
ROW_FIELDS = {"steps", "remainder", "original"}


def row_fields_read(source: str, function: str) -> set[str]:
    """The names of ROW_FIELDS that the module-level function `function`
    reads, as an attribute or spelled out as a string, nested code
    included."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            used = set()
            for child in ast.walk(node):
                if isinstance(child, ast.Attribute):
                    used.add(child.attr)
                elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                    used.add(child.value)
            return used & ROW_FIELDS
    raise LookupError(function)


def test_checker_sees_every_row_field_read():
    source = (
        "def telescope(F, d):\n    '''The steps, the remainder and the original.'''\n"
        "    ends = [s.x for s in d.steps[1:]] + [getattr(d, 'original')]\n"
        "    return [(lambda: d.remainder)()]\n"
        "def other(d):\n    return d.steps, d.original.x2\n"
    )
    assert row_fields_read(source, "telescope") == {"steps", "original", "remainder"}
    assert row_fields_read("def telescope(F, d):\n    return d._corners(d._values())\n", "telescope") == set()


def test_telescope_reads_its_rows_only():
    source = (SRC / "decompose.py").read_text(encoding="utf-8")
    assert row_fields_read(source, "telescope") == set()


# the frame holds the remainder's lower-left corner at positions 4 and 5;
# outside decompose.py, whose `_corners` is the row rule, no code reads it there
REMAINDER_CORNER = {4, 5}


def remainder_corner_reads(source: str) -> list[str]:
    """The subscripts of a source that index a list at a position of
    REMAINDER_CORNER: a constant index there, or a slice with a constant
    start there, in source order."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            k = node.slice.lower if isinstance(node.slice, ast.Slice) else node.slice
            if isinstance(k, ast.Constant) and type(k.value) is int and k.value in REMAINDER_CORNER:
                reads.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [text for *_, text in sorted(reads)]


def test_checker_sees_every_read_of_the_remainder_corner():
    source = (
        '"""As[4] in a docstring is prose."""\n'
        "wa = As[1] - As[4]\nrx, ry = V[5], frame[0][4]\nAs[4:6] = xa, ya\n"
        "row = d._corners(As)[-1]\nhead, sides = As[:4], As[8::3]\nkey, on = d['4'], flags[True]\n"
    )
    assert remainder_corner_reads(source) == ["As[4]", "V[5]", "frame[0][4]", "As[4:6]"]


def test_only_decompose_reads_the_remainder_corner_off_the_frame():
    reads = {p.stem: remainder_corner_reads(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert reads.pop("decompose") != []
    assert {name: found for name, found in reads.items() if found} == {}
