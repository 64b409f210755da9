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

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from operator import sub
from typing import TYPE_CHECKING, Mapping, Optional

from .geometry import Axis, Rect, split
from .numeric import ONE, QNum, SQRT2, ZERO, dyadic, from_numerators, numerators, parse_qnum, qnum

if TYPE_CHECKING:
    from .decompose import Step

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

# a number (C + E*sqrt2)/L as its numerators (C, E) over a denominator L
# given beside it
Pair = tuple[int, int]


class PointFunction:
    """Exactly evaluable map (x, y) -> QNum.  Implementations are immutable.

    An integer `cuts` is the formula of one `value`: a subclass that
    overrides `value` without its own `cuts` gets this class's `cuts`.
    """

    label: str = "point-function"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "value" in vars(cls) and "cuts" not in vars(cls):
            cls.cuts = PointFunction.cuts

    def value(self, x: QNum, y: QNum) -> QNum:
        raise NotImplementedError

    def cuts(
        self, As: list[int], Bs: list[int], lo: Pair, hi: Pair, L: int, along_x: bool
    ) -> tuple[list[int], list[int], int]:
        """The cut f(e, hi) - f(e, lo) at every edge e = (As[k] + Bs[k]*sqrt2)/L,
        or f(hi, e) - f(lo, e) when not `along_x`, for ends lo and hi given
        as numerator pairs (C, E) of (C + E*sqrt2)/L; the cuts are returned
        as integer numerators over one positive denominator (see
        `numerators`).

        This is the kernel of a row of squares, at the edges given: a mesh
        square (`cmd_counterexample`) goes through it, and so do a
        decomposition step's first and far edges (`RectFunction.row_sum`)
        when a subclass overrides it with integer arithmetic that gives the
        same cuts.  This default evaluates `value` at QNum corners built
        from the numerators.
        """
        edges = [from_numerators(A, B, L) for A, B in zip(As, Bs)]
        return self._value_cuts(edges, from_numerators(*lo, L), from_numerators(*hi, L), along_x)

    def _value_cuts(
        self, edges: Sequence[QNum], lo: QNum, hi: QNum, along_x: bool
    ) -> tuple[list[int], list[int], int]:
        # every corner value over one denominator, f at hi then at lo per
        # edge, so that each cut is a difference of integers
        f = self.value
        if along_x:
            As, Bs, L = numerators([v for e in edges for v in (f(e, hi), f(e, lo))])
        else:
            As, Bs, L = numerators([v for e in edges for v in (f(hi, e), f(lo, e))])
        return list(map(sub, As[::2], As[1::2])), list(map(sub, Bs[::2], Bs[1::2])), L


def _product_cuts(As: list[int], Bs: list[int], lo: Pair, hi: Pair) -> tuple[list[int], list[int]]:
    """Numerators over L*L of x*hi - x*lo at every edge x = (A + B*sqrt2)/L,
    for ends (C + E*sqrt2)/L given as pairs (C, E), formed as x*(hi - lo):
    with (c, e) = hi - lo, each cut is A*c + 2*B*e + (A*e + B*c)*sqrt2."""
    c, e = hi[0] - lo[0], hi[1] - lo[1]
    return [A * c + 2 * B * e for A, B in zip(As, Bs)], [A * e + B * c for A, B in zip(As, Bs)]


class Product(PointFunction):
    """f(x, y) = x*y; its corner difference is the area of the rectangle."""

    label = "product"

    def value(self, x: QNum, y: QNum) -> QNum:
        return x * y

    def cuts(
        self, As: list[int], Bs: list[int], lo: Pair, hi: Pair, L: int, along_x: bool
    ) -> tuple[list[int], list[int], int]:
        # e*(hi - lo) at every edge e, on integers; x*y == y*x, so a row
        # along y has the same cuts
        return (*_product_cuts(As, Bs, lo, hi), L * L)


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

    def cuts(
        self, As: list[int], Bs: list[int], lo: Pair, hi: Pair, L: int, along_x: bool
    ) -> tuple[list[int], list[int], int]:
        # a numerator pair over a positive denominator is rational iff its
        # sqrt2 part is 0
        LL = L * L
        if along_x:
            # the ordinate of every point is lo or hi: f is x*y on a rational
            # end, and 1 (LL over LL) on an irrational one, where the product
            # term is left out
            zero = (0, 0)
            ca, cb = _product_cuts(As, Bs, zero if lo[1] else lo, zero if hi[1] else hi)
            ones = (hi[1] != 0) - (lo[1] != 0)  # f's 1 at hi minus its 1 at lo
            return ([c + ones * LL for c in ca] if ones else ca), cb, LL
        # the ordinate of both points on edge k is the edge itself: the cut is
        # (hi - lo)*y on a rational edge y (B == 0), and 1 - 1 on an irrational one
        c, e = hi[0] - lo[0], hi[1] - lo[1]
        ca = [0 if B else A * c for A, B in zip(As, Bs)]
        cb = [0 if B else A * e for A, B in zip(As, Bs)]
        return ca, cb, LL


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

    def row_sum(self, step: Step) -> QNum:
        """Sum of F over the packed squares of a decomposition step.

        Square i adds its corner difference cut_{i+1} - cut_i, and squares
        meeting at an inner edge share its cut, so the sum is cut_count -
        cut_0 and costs O(1) whatever the count.  This is the one place that
        picks the path: a point function with its own integer `cuts` runs it
        on `Step.row_ends`; any other runs `value` at the step's first edge
        and its far edge, one QNum built from its numerators.
        """
        f = self.point_fn
        if type(f).cuts is not PointFunction.cuts:
            As, Bs, L = f.cuts(*step.row_ends(), step.along_x)
        else:
            (_, a), (_, b), _, _, L = step.row_ends()
            first = step.x if step.along_x else step.y
            As, Bs, L = f._value_cuts((first, from_numerators(a, b, L)), step.lo, step.hi, step.along_x)
        return from_numerators(As[1] - As[0], Bs[1] - Bs[0], L)


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
