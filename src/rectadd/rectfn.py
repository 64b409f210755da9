"""Additive functions of rectangles built as corner differences.

Given a point function f, the rectangle value is the second mixed difference

    f(x2,y2) + f(x1,y1) - f(x1,y2) - f(x2,y1),

which is additive across any edge-sharing split by construction.  The key
built-in point function evaluates to 1 on points with irrational ordinate and
to x*y on rational rows: its corner difference equals the area on every
dyadic square yet is -1 on [0,1]x[1,sqrt2], so positivity on the dyadic mesh
does not propagate to all rectangles.

Each point function has one integer kernel, `PointFunction.rect_kernel`: F
of a rectangle from the numerators of its four coordinates over one
denominator, and the default kernel evaluates `value` at the four corners,
so a subclass that defines only `value` gets a kernel too.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Mapping, Optional

from .geometry import Axis, Rect, split
from .numeric import ONE, QNum, SQRT2, ZERO, dyadic, from_numerators, numerators, parse_qnum, qnum

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
    """Exactly evaluable map (x, y) -> QNum.  Implementations are immutable.

    An integer `rect_kernel` is the formula of one `value`: a subclass that
    overrides `value` without its own `rect_kernel` gets this class's.
    """

    label: str = "point-function"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "value" in vars(cls) and "rect_kernel" not in vars(cls):
            cls.rect_kernel = PointFunction.rect_kernel

    def value(self, x: QNum, y: QNum) -> QNum:
        raise NotImplementedError

    def rect_kernel(self, As: list[int], Bs: list[int], L: int) -> tuple[int, int, int]:
        """F([x1,x2]x[y1,y2]), the corner difference of f, as integer
        numerators (A, B, D) of (A + B*sqrt2)/D with D > 0, for coordinates
        x1, x2, y1, y2 = (As[k] + Bs[k]*sqrt2)/L given in `numerators`
        order, so that `f.rect_kernel(*numerators(r))` is F(r) on any Rect.

        A mesh square (`cmd_counterexample`) goes through it, and so does
        the rectangle a decomposition step's squares fill, read off the
        decomposition's frame (`telescope`), when a subclass overrides it
        with integer arithmetic that gives the same value; the result need
        not be in lowest terms.  This default evaluates `value` at QNum
        corners built from the numerators.
        """
        return self._value_difference(*[from_numerators(A, B, L) for A, B in zip(As, Bs)])

    def _value_difference(self, x1: QNum, x2: QNum, y1: QNum, y2: QNum) -> tuple[int, int, int]:
        # the four corner values over one denominator, so that the corner
        # difference is a sum of integers
        f = self.value
        As, Bs, D = numerators((f(x2, y2), f(x1, y1), f(x1, y2), f(x2, y1)))
        return As[0] + As[1] - As[2] - As[3], Bs[0] + Bs[1] - Bs[2] - Bs[3], D


class Product(PointFunction):
    """f(x, y) = x*y; its corner difference is the area of the rectangle."""

    label = "product"

    def value(self, x: QNum, y: QNum) -> QNum:
        return x * y

    def rect_kernel(self, As: list[int], Bs: list[int], L: int) -> tuple[int, int, int]:
        # (x2 - x1)*(y2 - y1), one pair product on integers over L*L
        a, b, c, e = As[1] - As[0], Bs[1] - Bs[0], As[3] - As[2], Bs[3] - Bs[2]
        return a * c + 2 * b * e, a * e + b * c, L * L


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

    def rect_kernel(self, As: list[int], Bs: list[int], L: int) -> tuple[int, int, int]:
        # f's 1 on an irrational row cancels between x1 and x2, so F is
        # (x2 - x1)*(g(y2) - g(y1)) with g(y) = y on a rational y and 0 on an
        # irrational one; over a positive L, y is rational iff its sqrt2
        # numerator is 0
        c = (0 if Bs[3] else As[3]) - (0 if Bs[2] else As[2])
        return (As[1] - As[0]) * c, (Bs[1] - Bs[0]) * c, L * L


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
        if all(
            isinstance(x, QNum) and isinstance(y, QNum) and isinstance(v, QNum)
            for (x, y), v in entries.items()
        ):
            # nothing to coerce: a dict copy reuses the stored key hashes
            self._entries = dict(entries)
        else:
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


class RectFunction(namedtuple("RectFunction", "point_fn")):
    """Additive rectangle function realized as a corner difference of the
    `PointFunction` point_fn."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return self.point_fn.label

    def value(self, r: Rect) -> QNum:
        f = self.point_fn.value
        x1, x2, y1, y2 = r
        return f(x2, y2) + f(x1, y1) - f(x1, y2) - f(x2, y1)


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
        top = ONE + (SQRT2 - 1) * dyadic(1, j)
        r = Rect(ZERO, ONE, ONE, top)
        out.append((r, F.value(r)))
    return out


def _pow2(m: int) -> QNum:
    """2**m for any integer m, from its triple."""
    return dyadic(1 << m, 0) if m >= 0 else dyadic(1, -m)


def pow2_exact(e: Fraction) -> Optional[QNum]:
    """2**e as an exact field element when possible.

    Integer exponents give rationals; half-integer exponents land in the
    field through sqrt2 (2^(m + 1/2) = 2^m * sqrt2).  Anything else lies
    outside Q(sqrt2) and yields None.
    """
    if e.denominator == 1:
        return _pow2(e.numerator)
    if e.denominator == 2:
        return SQRT2 * _pow2((e.numerator - 1) // 2)
    return None


APPROX_DIGITS = 12


class ProbeSample(
    namedtuple("ProbeSample", "square value quotient quotient_approx inside_within", defaults=(None,))
):
    """One sampled square: its exact value and the quotient value / area^alpha.

    `quotient` is None when the power of the area leaves the field; the
    truncated decimal `quotient_approx` is then the only record, and
    `flagged` marks it as non-exact evidence.  `inside_within` records
    whether the square lies inside the probe's `within`, or is None.
    """

    __slots__ = ()

    @property
    def flagged(self) -> bool:
        return self.quotient is None


class ProbeScale(namedtuple("ProbeScale", "level samples")):
    """The samples of one scale: squares of side 2^-level."""

    __slots__ = ()

    @property
    def side(self) -> QNum:
        return dyadic(1, self.level)

    @property
    def diameter_sq(self) -> QNum:
        return dyadic(1, 2 * self.level - 1)

    @property
    def min_quotient(self) -> Optional[QNum]:
        """The least exact quotient of this scale, or None."""
        exact = [s.quotient for s in self.samples if s.quotient is not None]
        return min(exact, default=None)


# The probed point (x, y), the Fraction alpha, and the tuple of ProbeScales.
ProbeReport = namedtuple("ProbeReport", "point alpha scales")


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
        side = dyadic(1, j)
        exponent = 2 * j * alpha  # |Q|^-alpha = 2^exponent
        inverse_power = pow2_exact(exponent)
        samples = []
        for i in range(offsets_per_scale):
            shift = dyadic(i, w + j)  # i/2^w of the side
            x0 = px - shift
            y0 = py - shift
            sq = Rect(x0, x0 + side, y0, y0 + side)
            val = F.value(sq)
            quot = None if inverse_power is None else val * inverse_power
            approx = val.approximate(APPROX_DIGITS, exponent)
            inside = within.contains_rect(sq) if within is not None else None
            samples.append(ProbeSample(sq, val, quot, approx, inside))
        scales.append(ProbeScale(level=j, samples=tuple(samples)))
    return ProbeReport(point=(px, py), alpha=alpha, scales=tuple(scales))
