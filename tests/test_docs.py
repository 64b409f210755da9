"""The API names in the README and in the package's docstrings: every
backticked `head.attr` whose head is a rectadd module or a name the package
exports must resolve by getattr, and every bare backticked private `_name`
must be a module-level name or class attribute in rectadd, so a rename
cannot leave a stale name behind in the docs."""

import ast
import fnmatch
import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

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
# a private name, not inside a longer one
_PRIVATE = re.compile(r"(?<![\w.])(_\w+)")


def _heads() -> dict:
    # the package's public names, then its modules, which win: the package
    # binds `decompose` to the function, but `decompose.x` names the module
    heads = {n: getattr(rectadd, n) for n in dir(rectadd) if not n.startswith("_")}
    for m in pkgutil.iter_modules(rectadd.__path__):
        if not m.name.startswith("_"):  # importing __main__ runs the CLI
            heads[m.name] = importlib.import_module(f"rectadd.{m.name}")
    return heads


def _private_names() -> set:
    """The module-level names of the package and its modules, and the
    attributes of every class they define."""
    names = set(vars(rectadd))
    for m in _heads().values():
        if isinstance(m, ModuleType):
            names.update(vars(m))
            for obj in vars(m).values():
                if isinstance(obj, type) and obj.__module__ == m.__name__:
                    names.update(dir(obj))
    return names


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
    heads, private = _heads(), _private_names()
    stale = []
    for span in _SPAN.findall(_FENCED.sub("", text)):
        stale += [name for name in _PRIVATE.findall(span) if name not in private]
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


# an exit-code row's "above N" or "more than N", then the budget it names
_BUDGET = re.compile(
    r"(?:above|more than) (\d[\d,]*(?:\^\d+)?)(?: [a-z]+)* "
    r"\((?:the [\w-]+ budget )?`((?:harness|numeric)\.MAX_\w+)`"
)


def budget_rows(text: str) -> list[tuple[str, int, str]]:
    """(constant, number given, row) for every budget an exit-code row names;
    a row that names a budget without giving its number gives None."""
    found = []
    for row in re.findall(r"^\| 2 \|.*$", text, re.M):
        given = {name: number for number, name in _BUDGET.findall(row)}
        for name in dict.fromkeys(re.findall(r"`((?:harness|numeric)\.MAX_\w+)`", row)):
            number = given.get(name)
            if number is not None:
                base, _, power = number.replace(",", "").partition("^")
                number = int(base) ** int(power or 1)
            found.append((name, number, row))
    return found


def test_budget_rows_read_every_way_a_row_gives_its_number():
    text = (
        "| 2 | `x` is above 10^10 (the root budget `harness.MAX_ROOT_WORK`); |\n"
        "| 2 | `y` has more than 4,500 digits (the digit budget `numeric.MAX_LITERAL_DIGITS`) |\n"
        "| 2 | `z` has a denominator above 1000 (`harness.MAX_ALPHA_DENOMINATOR`) |\n"
        "| 2 | `w` is too large (`harness.MAX_CASES`) |\n"
        "| 1 | above 7 (`harness.MAX_STEPS`) |\n"
    )
    assert [(name, number) for name, number, _ in budget_rows(text)] == [
        ("harness.MAX_ROOT_WORK", 10**10),
        ("numeric.MAX_LITERAL_DIGITS", 4500),
        ("harness.MAX_ALPHA_DENOMINATOR", 1000),
        ("harness.MAX_CASES", None),
    ]


def _budget(name: str) -> int:
    module, constant = name.split(".")
    return getattr(importlib.import_module(f"rectadd.{module}"), constant)


def test_readme_budget_rows_give_the_budgets():
    # a budget changed in code cannot leave its exit-code row stale, and
    # every harness budget has a row
    rows = budget_rows(README.read_text(encoding="utf-8"))
    assert [row for name, number, row in rows if number != _budget(name)] == []
    harness = importlib.import_module("rectadd.harness")
    budgets = {f"harness.{n}" for n in dir(harness) if n.startswith("MAX_")}
    assert {name for name, _, _ in rows} == budgets | {"numeric.MAX_LITERAL_DIGITS"}


def test_checker_flags_only_stale_rectadd_names():
    text = (
        "`PointFunction.cuts(As, Bs)` and `Step.row_ends()` are gone; "
        "`rectadd.nothing` never was; `random.Random`, `q.a == A/D`, "
        "`harness.cmd_*`, `rectadd.cli`, `rectadd.harness.MAX_TILES`, "
        "`Rect._make` and `f.rect_kernel(*numerators(r))` are fine.\n"
        "`_cuts`, `_gone(As, _sign2)`, `Step._hi`, `Step.squares`, `Step.edges()`, `Step.hi` and "
        "`_hash_over(a, b, inv)` are gone; `_sign2`, "
        "`_scaled_hash(n, inv)`, `_value_difference`, `__getattr__`, `__init__` and `x_1` are fine.\n"
        "```\nStep.also_gone _also_gone\n```\n"
    )
    assert stale_names(text) == [
        "PointFunction.cuts", "Step.row_ends", "rectadd.nothing", "_cuts", "_gone", "Step._hi", "Step.squares",
        "Step.edges", "Step.hi", "_hash_over",
    ]


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
