"""Closed axis-parallel rectangles with exact Q(sqrt2) corners, and the
dyadic mesh: squares of side 2^-n aligned at integer multiples of 2^-n.

Diameters are exposed squared so every quantity stays inside the field;
delta -> 0 exactly when the squared diameter does, so continuity statements
transfer unchanged.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

from .numeric import QNum, parse_qnum, qnum

__all__ = [
    "Rect",
    "DyadicSquare",
    "Axis",
    "split",
    "as_dyadic_square",
    "dyadic_inner_cover_span",
    "dyadic_inner_cover_rect",
    "parse_rect",
]

Axis = Literal["vertical", "horizontal"]


@dataclass(frozen=True)
class Rect:
    """[x1, x2] x [y1, y2] with strictly positive width and height."""

    x1: QNum
    x2: QNum
    y1: QNum
    y2: QNum

    def __post_init__(self) -> None:
        for name in ("x1", "x2", "y1", "y2"):
            v = getattr(self, name)
            if not isinstance(v, QNum):
                object.__setattr__(self, name, qnum(v))
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(
                f"degenerate rectangle: [{self.x1},{self.x2}]x[{self.y1},{self.y2}]"
            )

    @property
    def width(self) -> QNum:
        return self.x2 - self.x1

    @property
    def height(self) -> QNum:
        return self.y2 - self.y1

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
        return (
            (self.x1, self.y1),
            (self.x2, self.y1),
            (self.x1, self.y2),
            (self.x2, self.y2),
        )

    def literal(self) -> str:
        return f"[{self.x1.literal()},{self.x2.literal()}]x[{self.y1.literal()},{self.y2.literal()}]"

    def __str__(self) -> str:
        return self.literal()


@dataclass(frozen=True)
class DyadicSquare:
    """Mesh identity (order n, column k, row m) of the square
    [k*2^-n, (k+1)*2^-n] x [m*2^-n, (m+1)*2^-n].  k and m may be negative;
    the mesh covers the whole plane.
    """

    order: int
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("dyadic order must be >= 0")

    @property
    def side(self) -> QNum:
        return QNum(Fraction(1, 2**self.order))

    def to_rect(self) -> Rect:
        s = Fraction(1, 2**self.order)
        return Rect(
            QNum(self.k * s),
            QNum((self.k + 1) * s),
            QNum(self.m * s),
            QNum((self.m + 1) * s),
        )


def split(r: Rect, axis: Axis, c: QNum) -> tuple[Rect, Rect]:
    """Cut r along x = c (vertical) or y = c (horizontal) into two adjacent
    rectangles, left/bottom piece first.  c must lie strictly inside."""
    c = qnum(c)
    if axis == "vertical":
        if not (r.x1 < c < r.x2):
            raise ValueError(f"split abscissa {c} not strictly inside ({r.x1}, {r.x2})")
        return Rect(r.x1, c, r.y1, r.y2), Rect(c, r.x2, r.y1, r.y2)
    if axis == "horizontal":
        if not (r.y1 < c < r.y2):
            raise ValueError(f"split ordinate {c} not strictly inside ({r.y1}, {r.y2})")
        return Rect(r.x1, r.x2, r.y1, c), Rect(r.x1, r.x2, c, r.y2)
    raise ValueError(f"axis must be 'vertical' or 'horizontal', got {axis!r}")


def _dyadic_exponent(f: Fraction) -> Optional[int]:
    # f == 2^-n with n >= 0 ?
    if f.numerator != 1:
        return None
    den = f.denominator
    if den & (den - 1):
        return None
    return den.bit_length() - 1


def as_dyadic_square(r: Rect) -> Optional[DyadicSquare]:
    """The mesh identity of r when it coincides exactly with a dyadic square
    of some order n >= 0, else None."""
    if not all(v.is_dyadic() for v in (r.x1, r.x2, r.y1, r.y2)):
        return None
    if not r.is_square():
        return None
    n = _dyadic_exponent(r.width.a)
    if n is None:
        return None
    kf = r.x1.a * 2**n
    mf = r.y1.a * 2**n
    if kf.denominator != 1 or mf.denominator != 1:
        return None
    return DyadicSquare(n, int(kf), int(mf))


def dyadic_inner_cover_span(r: Rect, order: int) -> tuple[int, int, int, int]:
    """Index ranges (k_lo, k_hi, m_lo, m_hi) of the order-n mesh squares
    entirely contained in r: columns k_lo..k_hi-1, rows m_lo..m_hi-1.
    Either range may be empty (hi <= lo)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    scale = QNum(Fraction(2**order))
    k_lo = math.ceil(r.x1 * scale)
    k_hi = math.floor(r.x2 * scale)
    m_lo = math.ceil(r.y1 * scale)
    m_hi = math.floor(r.y2 * scale)
    return k_lo, k_hi, m_lo, m_hi


def dyadic_inner_cover_rect(r: Rect, order: int) -> Optional[Rect]:
    """Union of the order-n inner cover, which is itself a rectangle; None
    when the cover is empty."""
    k_lo, k_hi, m_lo, m_hi = dyadic_inner_cover_span(r, order)
    if k_hi <= k_lo or m_hi <= m_lo:
        return None
    s = Fraction(1, 2**order)
    return Rect(QNum(k_lo * s), QNum(k_hi * s), QNum(m_lo * s), QNum(m_hi * s))


_RECT_RE = re.compile(r"^\[([^,\]]+),([^,\]]+)\]x\[([^,\]]+),([^,\]]+)\]$")


def parse_rect(text: str) -> Rect:
    """Parse `[x1,x2]x[y1,y2]` with QNum literals inside."""
    s = text.strip().replace(" ", "")
    m = _RECT_RE.match(s)
    if not m:
        raise ValueError(f"not a rectangle literal: {text!r}")
    x1, x2, y1, y2 = (parse_qnum(g) for g in m.groups())
    return Rect(x1, x2, y1, y2)
