"""The greedy decomposition in field arithmetic, one QNum step at a time.

A test oracle: the package runs the greedy loop on integer numerators over
one denominator (`decompose`), and the tests compare its steps with this
loop, which divides, floors, multiplies and subtracts QNums and validates
every remainder `Rect`.  It also reads one step's squares and edges off
`Decomposition.all_squares`, the package's only builder of squares, and
builds a step's row by field arithmetic, so a step can be tiled alone.
Its `scan_halving` is the halving certificate by two full scans of exact
comparisons, the reference for `verify_halving`'s Euclid-chain certificate.
"""

import math
from itertools import islice
from typing import Optional

from rectadd.decompose import Decomposition, HalvingCertificate, HalvingCheck, Step
from rectadd.geometry import Rect
from rectadd.numeric import _sign2, dyadic


def field_greedy_step(r: Rect) -> tuple[Step, Optional[Rect]]:
    """Pack floor(longer/shorter) squares of the shorter side into r from
    its min corner; the remainder is the strip left at the max end, or None
    when the squares fill r."""
    w, h = r.width, r.height
    if w >= h:
        count = math.floor(w / h)
        used = r.x1 + h * count
        rem = None if used == r.x2 else Rect(used, r.x2, r.y1, r.y2)
        return Step(r.x1, r.y1, h, count, along_x=True), rem
    count = math.floor(h / w)
    used = r.y1 + w * count
    rem = None if used == r.y2 else Rect(r.x1, r.x2, used, r.y2)
    return Step(r.x1, r.y1, w, count, along_x=False), rem


def field_decompose(r: Rect, max_steps: int) -> tuple[list[Step], Optional[Rect]]:
    """Greedy steps until the packing is exact or max_steps is hit: the
    steps and the remainder."""
    steps: list[Step] = []
    current: Optional[Rect] = r
    while current is not None and len(steps) < max_steps:
        step, current = field_greedy_step(current)
        steps.append(step)
    return steps, current


def field_row(step: Step) -> Rect:
    """The rectangle a step's squares fill, by field arithmetic on its own x,
    y and side."""
    first, lo = (step.x, step.y) if step.along_x else (step.y, step.x)
    far, hi = first + step.count * step.side, lo + step.side
    return Rect(first, far, lo, hi) if step.along_x else Rect(lo, hi, first, far)


def alone(step: Step) -> Decomposition:
    """The step alone: a one-step decomposition whose original is the step's
    row, so its squares are built over a frame of their own."""
    return Decomposition(field_row(step), (step,), None)


def squares_by_step(d: Decomposition) -> list[list[Rect]]:
    """`d.all_squares()` cut into each step's slice."""
    squares = iter(d.all_squares())
    return [list(islice(squares, s.count)) for s in d.steps]


def step_edges(step: Step, squares: list[Rect]) -> tuple:
    """The count + 1 square boundaries along a step's packing axis: its own
    corner coordinate, then each of its squares' far edges."""
    if step.along_x:
        return (step.x, *(sq.x2 for sq in squares))
    return (step.y, *(sq.y2 for sq in squares))


def scan_halving(d: Decomposition) -> HalvingCertificate:
    """sides[n+1] <= sides[n] for every n, then sides[n+2] <= sides[n]/2 for
    every n, each one `_sign2` on the sides' numerators over the frame's L:
    the first comparison that fails, or none."""
    As, Bs, _ = d.frame
    i = 0 if d.steps[0].along_x else 2
    As, Bs = [As[i + 1] - As[i], *As[8::3]], [Bs[i + 1] - Bs[i], *Bs[8::3]]
    for n in range(len(As) - 1):
        if _sign2(As[n] - As[n + 1], Bs[n] - Bs[n + 1]) < 0:
            sides = d.sides
            return HalvingCertificate(HalvingCheck(n, "monotone", sides[n + 1], sides[n]))
    for n in range(len(As) - 2):
        if _sign2(As[n] - 2 * As[n + 2], Bs[n] - 2 * Bs[n + 2]) < 0:
            sides = d.sides
            return HalvingCertificate(HalvingCheck(n, "halving", sides[n + 2], sides[n] * dyadic(1, 1)))
    return HalvingCertificate(None)
