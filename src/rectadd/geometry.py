"""Closed axis-parallel rectangles with exact Q(sqrt2) corners, and the
dyadic mesh: squares of side 2^-n aligned at integer multiples of 2^-n.

Diameters are exposed squared so every quantity stays inside the field;
delta -> 0 exactly when the squared diameter does, so continuity statements
transfer unchanged.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Literal, Optional

from .numeric import QNum, _floor, dyadic, numerators, parse_qnum, qnum

__all__ = [
    "Rect",
    "DyadicSquare",
    "Axis",
    "split",
    "as_dyadic_square",
    "dyadic_inner_cover_span",
    "coarser_cover_span",
    "dyadic_inner_cover_rect",
    "parse_rect",
]

Axis = Literal["vertical", "horizontal"]


class Rect(namedtuple("Rect", "x1 x2 y1 y2")):
    """[x1, x2] x [y1, y2] with strictly positive width and height.

    An immutable record, compared and hashed by its corners: `__new__`
    coerces them to QNum and `__init__` checks that the rectangle is not
    degenerate; `Rect._make` does neither, for corners known to be ordered.
    """

    __slots__ = ()

    def __new__(cls, x1: QNum, x2: QNum, y1: QNum, y2: QNum) -> "Rect":
        if not (
            isinstance(x1, QNum) and isinstance(x2, QNum)
            and isinstance(y1, QNum) and isinstance(y2, QNum)
        ):
            x1, x2, y1, y2 = qnum(x1), qnum(x2), qnum(y1), qnum(y2)
        return tuple.__new__(cls, (x1, x2, y1, y2))

    def __init__(self, *args, **kwargs) -> None:
        # the corners as given; self holds them coerced
        x1, x2, y1, y2 = self
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"degenerate rectangle: [{x1},{x2}]x[{y1},{y2}]")

    @property
    def width(self) -> QNum:
        x1, x2, _, _ = self
        return x2 - x1

    @property
    def height(self) -> QNum:
        _, _, y1, y2 = self
        return y2 - y1

    def area(self) -> QNum:
        return self.width * self.height

    def diameter_sq(self) -> QNum:
        return self.width * self.width + self.height * self.height

    def is_square(self) -> bool:
        return self.width == self.height

    def contains_point(self, x: QNum, y: QNum) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x1 <= other.x1
            and other.x2 <= self.x2
            and self.y1 <= other.y1
            and other.y2 <= self.y2
        )

    def corners(self) -> tuple[tuple[QNum, QNum], ...]:
        """The four corner points, lower-left first, row-major."""
        x1, x2, y1, y2 = self
        return (x1, y1), (x2, y1), (x1, y2), (x2, y2)

    def literal(self) -> str:
        x1, x2, y1, y2 = self
        return f"[{x1.literal()},{x2.literal()}]x[{y1.literal()},{y2.literal()}]"

    def __str__(self) -> str:
        return self.literal()


class DyadicSquare(namedtuple("DyadicSquare", "order k m")):
    """Mesh identity (order n, column k, row m) of the square
    [k*2^-n, (k+1)*2^-n] x [m*2^-n, (m+1)*2^-n].  k and m may be negative;
    the mesh covers the whole plane.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.order < 0:
            raise ValueError("dyadic order must be >= 0")

    @property
    def side(self) -> QNum:
        return dyadic(1, self.order)

    def to_rect(self) -> Rect:
        n, k, m = self
        return Rect(dyadic(k, n), dyadic(k + 1, n), dyadic(m, n), dyadic(m + 1, n))


def split(r: Rect, axis: Axis, c: QNum) -> tuple[Rect, Rect]:
    """Cut r along x = c (vertical) or y = c (horizontal) into two adjacent
    rectangles, left/bottom piece first.  c must lie strictly inside."""
    c = qnum(c)
    x1, x2, y1, y2 = r
    # c strictly inside a valid r makes both pieces valid: built unchecked
    if axis == "vertical":
        if not (x1 < c < x2):
            raise ValueError(f"split abscissa {c} not strictly inside ({x1}, {x2})")
        return Rect._make((x1, c, y1, y2)), Rect._make((c, x2, y1, y2))
    if axis == "horizontal":
        if not (y1 < c < y2):
            raise ValueError(f"split ordinate {c} not strictly inside ({y1}, {y2})")
        return Rect._make((x1, x2, y1, c)), Rect._make((x1, x2, c, y2))
    raise ValueError(f"axis must be 'vertical' or 'horizontal', got {axis!r}")


def _dyadic_index(v: QNum, n: int) -> Optional[int]:
    # k with v == k / 2^n, for a dyadic v; the triple (k', 0, 2^n') of v is
    # normalised, so such a k exists iff n' <= n
    shift = n - (v._D.bit_length() - 1)
    return v._A << shift if shift >= 0 else None


def as_dyadic_square(r: Rect) -> Optional[DyadicSquare]:
    """The mesh identity of r when it coincides exactly with a dyadic square
    of some order n >= 0, else None."""
    if not all(v.is_dyadic() for v in r):
        return None
    if not r.is_square():
        return None
    w = r.width  # dyadic, so its triple is (p, 0, 2^n)
    if w._A != 1:
        return None
    n = w._D.bit_length() - 1
    k, m = _dyadic_index(r.x1, n), _dyadic_index(r.y1, n)
    if k is None or m is None:
        return None
    return DyadicSquare(n, k, m)


def dyadic_inner_cover_span(r: Rect, order: int) -> tuple[int, int, int, int]:
    """Index ranges (k_lo, k_hi, m_lo, m_hi) of the order-n mesh squares
    entirely contained in r: columns k_lo..k_hi-1, rows m_lo..m_hi-1.
    Either range may be empty (hi <= lo).

    The lows are ceilings and the highs floors of r's coordinates times
    2^order, one exact floor each on r's `numerators` shifted by the order.
    `coarser_cover_span` gets every lower order's span from this one by
    shifts, with no further floor.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    (x1a, x2a, y1a, y2a), (x1b, x2b, y1b, y2b), L = numerators(r)
    n = order
    return (
        -_floor(-x1a << n, -x1b << n, L),
        _floor(x2a << n, x2b << n, L),
        -_floor(-y1a << n, -y1b << n, L),
        _floor(y2a << n, y2b << n, L),
    )


def coarser_cover_span(span: tuple[int, int, int, int], shift: int) -> tuple[int, int, int, int]:
    """The order n - shift span of `dyadic_inner_cover_span` from its order-n
    span: floor(floor(y)/2^s) == floor(y/2^s) and likewise for ceilings, so
    each bound is its order-n bound shifted right, rounded the same way."""
    k_lo, k_hi, m_lo, m_hi = span
    return -(-k_lo >> shift), k_hi >> shift, -(-m_lo >> shift), m_hi >> shift


def dyadic_inner_cover_rect(r: Rect, order: int) -> Optional[Rect]:
    """Union of the order-n inner cover, which is itself a rectangle; None
    when the cover is empty."""
    k_lo, k_hi, m_lo, m_hi = dyadic_inner_cover_span(r, order)
    if k_hi <= k_lo or m_hi <= m_lo:
        return None
    return Rect(dyadic(k_lo, order), dyadic(k_hi, order), dyadic(m_lo, order), dyadic(m_hi, order))


_RECT_RE = re.compile(r"^\[([^,\]]+),([^,\]]+)\]x\[([^,\]]+),([^,\]]+)\]$")


def parse_rect(text: str) -> Rect:
    """Parse `[x1,x2]x[y1,y2]` with QNum literals inside."""
    s = text.strip().replace(" ", "")
    m = _RECT_RE.match(s)
    if not m:
        raise ValueError(f"not a rectangle literal: {text!r}")
    x1, x2, y1, y2 = (parse_qnum(g) for g in m.groups())
    return Rect(x1, x2, y1, y2)
