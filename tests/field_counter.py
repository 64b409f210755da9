"""Count the QNum operations a piece of code makes, the objects it builds,
and the calls it makes to a function of rectadd."""

import sys

from rectadd import harness, numeric
from rectadd.geometry import DyadicSquare, Rect
from rectadd.numeric import QNum
from rectadd.rectfn import PointFunction, corner_difference


def count_field_calls(monkeypatch, *names: str) -> list:
    """Patch the named QNum operators to record each call; the returned
    list grows by one per call until the monkeypatch is undone."""
    calls = []
    for name in names:
        op = getattr(QNum, name)

        def counting(self, other, op=op):
            calls.append(op)
            return op(self, other)

        monkeypatch.setattr(QNum, name, counting)
    return calls


def count_builds(monkeypatch) -> list:
    """Count the QNums, Rects and DyadicSquares built: every QNum made by
    its constructor or from an integer triple, and every validated Rect and
    DyadicSquare, the ones that pass through `__init__`.  The squares of a
    decomposition step and the pieces of a split are built unchecked
    (`Rect._make`), so they are not counted."""
    built = []

    def record(fn):
        def counting(*args, **kwargs):
            built.append(fn)
            return fn(*args, **kwargs)

        return counting

    monkeypatch.setattr(numeric, "_alloc", record(numeric._alloc))
    monkeypatch.setattr(QNum, "__init__", record(QNum.__init__))
    for cls in (Rect, DyadicSquare):
        monkeypatch.setattr(cls, "__init__", record(cls.__init__))
    return built


def count_calls(monkeypatch, fn) -> list:
    """Patch every rectadd module attribute bound to fn (its home module's
    and each name a module imported it under) to record each call; the
    returned list grows by one per call until the monkeypatch is undone."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(fn)
        return fn(*args, **kwargs)

    modules = [m for n, m in sys.modules.items() if n == "rectadd" or n.startswith("rectadd.")]
    for m in modules:
        for name in [k for k, v in vars(m).items() if v is fn]:
            monkeypatch.setattr(m, name, counting)
    return calls


def counterexample_squares(monkeypatch, f, **kwargs):
    """`cmd_counterexample(**kwargs)` run on the point function f, patched in
    through `harness.named_rect_function`, and the mesh squares (n, k, m)
    its kernel was asked for, in draw order, each checked to come as the
    numerators [k, k+1]x[m, m+1] over 2^n."""
    squares = []

    class Recording(PointFunction):
        def value(self, x, y):
            return f.value(x, y)

        def rect_kernel(self, As, Bs, L):
            n, k, m = L.bit_length() - 1, As[0], As[2]
            assert (As, Bs, L) == ([k, k + 1, m, m + 1], [0, 0, 0, 0], 1 << n)
            squares.append((n, k, m))
            return f.rect_kernel(As, Bs, L)

    monkeypatch.setattr(harness, "named_rect_function", lambda name: corner_difference(Recording()))
    return harness.cmd_counterexample(**kwargs), squares
