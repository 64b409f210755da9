"""The API names in the README and in the package's docstrings: every
backticked `head.attr` whose head is a rectadd module or a name the package
exports must resolve by getattr, so a rename cannot leave a stale name
behind in the docs."""

import ast
import fnmatch
import importlib
import pkgutil
import re
from pathlib import Path

import rectadd
from rectadd import cli, suites

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "rectadd"
# inline code spans, once fenced blocks are cut out
_FENCED = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
# a dotted name, not inside a longer one, perhaps ending in a `*` wildcard
_DOTTED = re.compile(r"(?<![\w.])([A-Za-z_]\w*)((?:\.\w+)+)(\*?)")


def _heads() -> dict:
    # the package's public names, then its modules, which win: the package
    # binds `decompose` to the function, but `decompose.x` names the module
    heads = {n: getattr(rectadd, n) for n in dir(rectadd) if not n.startswith("_")}
    for m in pkgutil.iter_modules(rectadd.__path__):
        if not m.name.startswith("_"):  # importing __main__ runs the CLI
            heads[m.name] = importlib.import_module(f"rectadd.{m.name}")
    return heads


def _resolves(obj, attrs: list[str], wildcard: bool) -> bool:
    *path, last = attrs
    for a in path:
        if not hasattr(obj, a):
            return False
        obj = getattr(obj, a)
    if wildcard:
        return bool(fnmatch.filter(dir(obj), last + "*"))
    return hasattr(obj, last)


def stale_names(text: str) -> list[str]:
    """The backticked rectadd names in markdown text that do not resolve."""
    heads = _heads()
    stale = []
    for span in _SPAN.findall(_FENCED.sub("", text)):
        for head, tail, star in _DOTTED.findall(span):
            attrs = tail[1:].split(".")
            if head == "rectadd":
                head, attrs = attrs[0], attrs[1:]
                if head not in heads:
                    stale.append(f"rectadd.{head}")
                    continue
                if not attrs:
                    continue
            if head in heads and not _resolves(heads[head], attrs, bool(star)):
                stale.append(f"{head}{tail}{star}")
    return stale


def test_heads_cover_every_package_export():
    # the package imports its exports on first use, so only its `__dir__`
    # shows them to `_heads`
    assert set(rectadd.__all__) <= set(_heads())


def test_suite_names_match_the_readme():
    listed = re.search(r"^`proptest` suites: (.+?)\.\s", README.read_text(encoding="utf-8"), re.S | re.M)
    assert cli.SUITE_NAMES == suites.SUITE_NAMES == tuple(re.findall(r"`(\w+)`", listed.group(1)))


def test_checker_flags_only_stale_rectadd_names():
    text = (
        "`PointFunction.cuts(As, Bs)` and `Step.row_ends()` are gone; "
        "`rectadd.nothing` never was; `random.Random`, `q.a == A/D`, "
        "`harness.cmd_*`, `rectadd.cli`, `rectadd.harness.MAX_TILES`, "
        "`Rect._make` and `f.rect_kernel(*numerators(r))` are fine.\n"
        "```\nStep.also_gone\n```\n"
    )
    assert stale_names(text) == ["PointFunction.cuts", "Step.row_ends", "rectadd.nothing"]


def test_readme_names_resolve():
    text = README.read_text(encoding="utf-8")
    assert len(_SPAN.findall(text)) > 100
    assert stale_names(text) == []


def docstrings(source: str) -> list[str]:
    """The module, class and function docstrings of a Python source."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, kinds)]
    return [doc for doc in map(ast.get_docstring, nodes) if doc]


def test_docstrings_are_collected_from_every_level():
    source = (
        '"""module `Step.gone`"""\n'
        'class C:\n    """class"""\n    def m(self):\n        """method"""\n'
        'def f():\n    """function"""\n    x = "no docstring"\n'
    )
    assert docstrings(source) == ["module `Step.gone`", "class", "function", "method"]
    assert stale_names(docstrings(source)[0]) == ["Step.gone"]


def test_docstring_names_resolve():
    docs = {p.name: docstrings(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert sum(map(len, docs.values())) > 50
    stale = {name: [n for doc in found for n in stale_names(doc)] for name, found in docs.items()}
    assert {name: names for name, names in stale.items() if names} == {}
