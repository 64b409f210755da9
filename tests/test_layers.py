"""The package's import graph is strictly layered: a module imports only
modules below it in LAYERS, type-checking imports included, so no layer
knows of the ones that build on it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rectadd"
LAYERS = ("numeric", "geometry", "rectfn", "decompose", "suites", "harness", "cli")
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
