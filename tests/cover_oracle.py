"""The dyadic inner cover as an explicit list of mesh squares.

A test oracle: the package sums and bounds the cover through its O(1) span
and union forms (`dyadic_inner_cover_span`, `dyadic_inner_cover_rect`), and
the tests compare those against this enumeration.
"""

import random

from rectadd.geometry import DyadicSquare, Rect, dyadic_inner_cover_span
from rectadd.numeric import dyadic


def dyadic_inner_cover(r: Rect, order: int) -> list[DyadicSquare]:
    """All order-n mesh squares contained in r (closed containment), row-major.

    Count equals max(0, floor(x2*2^n) - ceil(x1*2^n)) * max(0, ...) exactly.
    """
    k_lo, k_hi, m_lo, m_hi = dyadic_inner_cover_span(r, order)
    if k_hi <= k_lo or m_hi <= m_lo:
        return []
    return [
        DyadicSquare(order, k, m)
        for m in range(m_lo, m_hi)
        for k in range(k_lo, k_hi)
    ]


def rand_mesh_rect(rng: random.Random) -> Rect:
    """A rectangle with corners on the order-j mesh for a small j, negative
    ones too: from order j on its scaled corners are integers, where a
    floor and a ceiling meet, and its inner cover is the rectangle itself."""
    j = rng.randint(0, 5)
    k, m = rng.randint(-40, 40), rng.randint(-40, 40)
    return Rect(dyadic(k, j), dyadic(k + rng.randint(1, 40), j), dyadic(m, j), dyadic(m + rng.randint(1, 40), j))
