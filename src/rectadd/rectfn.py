"""Additive functions of rectangles built as corner differences.

Given a point function f, the rectangle value is the second mixed difference

    f(x2,y2) + f(x1,y1) - f(x1,y2) - f(x2,y1),

which is additive across any edge-sharing split by construction.  The key
built-in point function evaluates to 1 on points with irrational ordinate and
to x*y on rational rows: its corner difference equals the area on every
dyadic square yet is -1 on [0,1]x[1,sqrt2], so positivity on the dyadic mesh
does not propagate to all rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .geometry import Axis, Rect, split
from .numeric import ONE, QNum, SQRT2, ZERO, parse_qnum, qnum

__all__ = [
    "PointFunction",
    "Product",
    "Counterexample",
    "Constant",
    "Table",
    "PRODUCT",
    "COUNTEREXAMPLE",
    "RectFunction",
    "corner_difference",
    "named_point_function",
    "named_rect_function",
    "check_additivity",
    "strong_continuity_witness",
    "liminf_quotient_probe",
    "pow2_exact",
    "ProbeSample",
    "ProbeScale",
    "ProbeReport",
]


class PointFunction:
    """Exactly evaluable map (x, y) -> QNum.  Implementations are immutable."""

    label: str = "point-function"

    def value(self, x: QNum, y: QNum) -> QNum:
        raise NotImplementedError


class Product(PointFunction):
    """f(x, y) = x*y; its corner difference is the area of the rectangle."""

    label = "product"

    def value(self, x: QNum, y: QNum) -> QNum:
        return x * y


class Counterexample(PointFunction):
    """f(x, y) = 1 when y is irrational, x*y when y is rational.

    Rationality of a Q(sqrt2) ordinate is decidable (b == 0), so evaluation
    is exact on the whole representable domain.
    """

    label = "counterexample"

    def value(self, x: QNum, y: QNum) -> QNum:
        if y.is_rational():
            return x * y
        return ONE


class Constant(PointFunction):
    """f(x, y) = c; its corner difference is identically zero."""

    def __init__(self, c: QNum) -> None:
        self._c = qnum(c)
        self.label = f"constant:{self._c.literal()}"

    def value(self, x: QNum, y: QNum) -> QNum:
        return self._c


class Table(PointFunction):
    """Finite table of point values, 0 off-table.

    Meant for hand-built adversarial cases in tests: populate exactly the
    corner points the evaluation will touch.
    """

    label = "table"

    def __init__(self, entries: Mapping[tuple[QNum, QNum], QNum]) -> None:
        self._entries = {
            (qnum(x), qnum(y)): qnum(v) for (x, y), v in entries.items()
        }

    def value(self, x: QNum, y: QNum) -> QNum:
        return self._entries.get((x, y), ZERO)


PRODUCT = Product()
COUNTEREXAMPLE = Counterexample()


def named_point_function(name: str) -> PointFunction:
    """Resolve a CLI name: `counterexample`, `product`, or `constant:<qnum>`."""
    if name == "counterexample":
        return COUNTEREXAMPLE
    if name == "product":
        return PRODUCT
    if name.startswith("constant:"):
        return Constant(parse_qnum(name[len("constant:"):]))
    raise ValueError(f"unknown point function {name!r}")


@dataclass(frozen=True)
class RectFunction:
    """Additive rectangle function realized as a corner difference of f."""

    point_fn: PointFunction
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", self.point_fn.label)

    def value(self, r: Rect) -> QNum:
        f = self.point_fn.value
        return f(r.x2, r.y2) + f(r.x1, r.y1) - f(r.x1, r.y2) - f(r.x2, r.y1)

    def row_sum(self, edges: Sequence[QNum], lo: QNum, hi: QNum, along_x: bool) -> QNum:
        """Sum of F over the adjacent rectangles between consecutive `edges`.

        The rectangles span [lo, hi] across the row: [e_i, e_{i+1}] x [lo, hi]
        when `along_x`, else [lo, hi] x [e_i, e_{i+1}].  Each corner point is
        evaluated once and shared by the two rectangles meeting at it; the
        value of rectangle i is the corner difference cut_{i+1} - cut_i,
        where cut_i = f(., hi) - f(., lo) on edge i, and it is added to the
        total one rectangle at a time.
        """
        f = self.point_fn.value
        if along_x:
            cuts = [f(e, hi) - f(e, lo) for e in edges]
        else:
            cuts = [f(hi, e) - f(lo, e) for e in edges]
        total = ZERO
        for i in range(1, len(cuts)):
            total = total + (cuts[i] - cuts[i - 1])
        return total


def corner_difference(f: PointFunction) -> RectFunction:
    return RectFunction(f)


def named_rect_function(name: str) -> RectFunction:
    return corner_difference(named_point_function(name))


def check_additivity(F: RectFunction, r: Rect, axis: Axis, c: QNum) -> QNum:
    """F(left) + F(right) - F(whole) for the given split; 0 certifies
    additivity of F across this particular edge."""
    r1, r2 = split(r, axis, c)
    return F.value(r1) + F.value(r2) - F.value(r)


def strong_continuity_witness(F: RectFunction, k: int) -> list[tuple[Rect, QNum]]:
    """The family [0,1] x [1, 1 + (sqrt2-1)/2^j] for j = 1..k with exact values.

    Areas shrink geometrically to zero while, for the counterexample
    function, every value stays -1: vanishing measure does not force
    vanishing values (thin rectangles keep a large diameter).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    out = []
    for j in range(1, k + 1):
        top = ONE + (SQRT2 - 1) / QNum(2**j)
        r = Rect(ZERO, ONE, ONE, top)
        out.append((r, F.value(r)))
    return out


def pow2_exact(e: Fraction) -> Optional[QNum]:
    """2**e as an exact field element when possible.

    Integer exponents give rationals; half-integer exponents land in the
    field through sqrt2 (2^(m + 1/2) = 2^m * sqrt2).  Anything else lies
    outside Q(sqrt2) and yields None.
    """
    if e.denominator == 1:
        return QNum(Fraction(2) ** e.numerator)
    if e.denominator == 2:
        m = (e.numerator - 1) // 2
        return QNum(0, Fraction(2) ** m)
    return None


APPROX_DIGITS = 12


@dataclass(frozen=True)
class ProbeSample:
    """One sampled square: its exact value and the quotient value / area^alpha.

    `quotient` is None when the power of the area leaves the field; the
    truncated decimal `quotient_approx` is then the only record, and
    `flagged` marks it as non-exact evidence.
    """

    square: Rect
    value: QNum
    quotient: Optional[QNum]
    quotient_approx: str
    flagged: bool
    inside_within: Optional[bool] = None


@dataclass(frozen=True)
class ProbeScale:
    level: int
    side: QNum
    diameter_sq: QNum
    samples: tuple[ProbeSample, ...]
    min_quotient: Optional[QNum]  # min over the exact quotients of this scale


@dataclass(frozen=True)
class ProbeReport:
    point: tuple[QNum, QNum]
    alpha: Fraction
    scales: tuple[ProbeScale, ...]


def liminf_quotient_probe(
    F: RectFunction,
    point: tuple[QNum, QNum],
    alpha: Fraction,
    depth: int,
    offsets_per_scale: int,
    within: Optional[Rect] = None,
) -> ProbeReport:
    """Sampled quotients F(Q)/|Q|^alpha over shrinking squares containing the
    point: finite, one-sided evidence for a liminf hypothesis, never a
    certificate.

    Sampling family (fixed so runs are reproducible): at each scale j =
    1..depth the squares have side 2^-j and lower-left corner at the point
    shifted by -i/2^w of the side, i = 0..offsets_per_scale-1, where 2^w is
    the smallest power of two >= offsets_per_scale.  Every offset is dyadic,
    so rational inputs keep all corners rational.  With two offsets per
    scale and alpha = 0, sample i = 1 is the square centred at the point and
    its quotient is its value.  When `within` is given, each sample also
    records whether the square lies inside it; nothing is filtered out.
    """
    if not (0 <= alpha <= 2):
        raise ValueError("alpha must lie in [0, 2]")
    if depth < 1 or offsets_per_scale < 1:
        raise ValueError("depth and offsets_per_scale must be >= 1")
    px, py = qnum(point[0]), qnum(point[1])
    w = max(0, (offsets_per_scale - 1).bit_length())
    scales = []
    for j in range(1, depth + 1):
        side_f = Fraction(1, 2**j)
        side = QNum(side_f)
        exponent = -2 * j * alpha  # |Q|^alpha = 2^exponent
        power = pow2_exact(exponent)
        samples = []
        min_q: Optional[QNum] = None
        for i in range(offsets_per_scale):
            t = Fraction(i, 2**w)
            x0 = px - QNum(t * side_f)
            y0 = py - QNum(t * side_f)
            sq = Rect(x0, x0 + side, y0, y0 + side)
            val = F.value(sq)
            if power is not None:
                quot = val / power
                approx = quot.approximate(APPROX_DIGITS)
                flagged = False
            else:
                quot = None
                approx = val.approximate(APPROX_DIGITS, -exponent)
                flagged = True
            inside = within.contains_rect(sq) if within is not None else None
            samples.append(ProbeSample(sq, val, quot, approx, flagged, inside))
            if quot is not None and (min_q is None or quot < min_q):
                min_q = quot
        scales.append(
            ProbeScale(
                level=j,
                side=side,
                diameter_sq=side * side * 2,
                samples=tuple(samples),
                min_quotient=min_q,
            )
        )
    return ProbeReport(point=(px, py), alpha=alpha, scales=tuple(scales))
