"""The greedy decomposition in field arithmetic, one QNum step at a time.

A test oracle: the package runs the greedy loop on integer numerators over
one denominator (`decompose`), and the tests compare its steps with this
loop, which divides, floors, multiplies and subtracts QNums and validates
every remainder `Rect`.
"""

import math
from typing import Optional

from rectadd.decompose import Step
from rectadd.geometry import Rect


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
