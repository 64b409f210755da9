"""Greedy square decomposition of a rectangle.

Each step packs squares of the current shorter side into the rectangle as
many times as they fit, starting from the min-coordinate corner along the
longer axis; the leftover strip at the max-coordinate end is the next
rectangle.  The per-step counts follow the continued fraction of the aspect
ratio, the side trace at least halves every two steps, and summing any
corner-difference function over the tiles telescopes back to its value on
the original rectangle.

The greedy loop is Euclid's algorithm on the two sides (Knuth, TAOCP vol. 2,
4.5.3): a step only subtracts an integer multiple of the shorter side from
the longer one.  So every corner and side of every step has integer
numerators over one denominator L, that of the rectangle's coordinates, and
`decompose` runs on those integers, with one integer square root in all
(see its docstring).  `greedy_step` is one step of `decompose`.
`decompose` keeps the integers as the decomposition's frame
(`Decomposition.frame`): the original's coordinates, the remainder's
lower-left corner, then each step's corner and side over L.  On the frame
`verify_halving` certifies the side trace by the same Euclid step, and
`cmd_decompose` sums the tiling and draws the figure.

A step is described, not materialised: its lower-left corner, side, count
and packing axis determine every square, so `decompose` costs O(steps)
whatever the packing counts, and so does `telescope`: the squares of a step
fill one rectangle, its row, and F is additive, so they sum to F of the
row; the remainder, when there is one, is one more row.  Where each row
ends is decided in one place, `Decomposition._corners`, which `rows`,
`telescope` and `all_squares` all read.  The rows add up as integers over
one denominator, normalised once: one gcd and one QNum for the whole sum
instead of one per row (Knuth, TAOCP vol. 2, 4.5.1).
`Decomposition.all_squares` is the only builder of squares: it builds every
edge in one pass over the frame, one integer addition per edge, each edge
normalised with its hash primed by `numeric` (an irrational edge's needs no
modular inverse, a rational edge's shares one inverse of L), and refuses a
step that does not fill its row.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, islice, repeat
from typing import Optional

from .geometry import Rect
from .numeric import QNum, _from_numerator_lists, _sign2, dyadic, from_numerators, numerators
from .rectfn import PointFunction, RectFunction

__all__ = [
    "Step",
    "Decomposition",
    "HalvingCheck",
    "HalvingCertificate",
    "greedy_step",
    "decompose",
    "verify_halving",
    "telescope",
    "continued_fraction_counts",
]


# `count` squares of side `side` packed in a single pass, the first with its
# lower-left corner at (x, y), laid along x (`along_x`) or along y.
Step = namedtuple("Step", "x y side count along_x")


class Decomposition(namedtuple("Decomposition", "original steps remainder")):
    """Result of iterating greedy steps: the original `Rect`, the tuple of
    `Step`s, and the remainder `Rect`.

    `remainder` is None exactly when the last packing was exact, which
    happens iff the aspect ratio is rational (finite continued fraction).
    """

    # A memo of `frame`, set once in the instance dict that Decomposition
    # has by declaring no __slots__.  It is not a field, so equality,
    # hashing and repr ignore it (functools.cached_property would do as
    # much, but before Python 3.12 it takes a lock on every first read).
    _frame = None

    @property
    def frame(self) -> tuple[list[int], list[int], int]:
        """The decomposition's integers over one denominator L, as
        `numerators` gives them, value k == (As[k] + Bs[k]*sqrt2)/L: the
        original's x1, x2, y1, y2, then the remainder's lower-left corner
        (the original's own when `terminated`), then each step's x, y and
        side.  So step i's corner and side are As[3i+6 : 3i+9], and the
        step sides of `sides` are As[8::3], Bs[8::3].  `decompose` keeps the
        integers its loop computes; a hand-built decomposition derives them
        with one `numerators` call on `_values()`."""
        frame = self._frame
        if frame is None:
            frame = self._frame = numerators(self._values())
        return frame

    def _values(self) -> list[QNum]:
        """The QNums the frame stands for, in frame order."""
        r = self.original
        rem = r if self.remainder is None else self.remainder
        values = [*r, rem.x1, rem.y1]
        for s in self.steps:
            values += (s.x, s.y, s.side)
        return values

    def _corners(self, V: list) -> list[list]:
        """The row rule: [x1, x2, y1, y2] of each step's row, then of the
        remainder's when there is one, picked from V, a list in frame order
        (the frame's As or Bs, or `_values()`).  A step's row runs from its
        own x and y to its far side across the packing axis, the original's
        y2 (along x) or x2, since the far corner never moves, and along the
        axis to its far edge: the next step's corner, or for the last step
        the remainder's, or the original's far corner when there is none.
        The remainder's row runs from its lower-left corner to the
        original's far corner.  `rows`, `telescope` and `all_squares` read
        their rows here, so they agree on any decomposition, even a
        hand-built one that does not tile."""
        x2, y2 = V[1], V[3]
        i, j = (1, 3) if self.remainder is None else (4, 5)
        rows = [
            [x, e, y, y2] if s.along_x else [x, x2, y, f]
            for s, x, y, e, f in zip(self.steps, V[6::3], V[7::3], [*V[9::3], V[i]], [*V[10::3], V[j]])
        ]
        if self.remainder is not None:
            rows.append([V[4], x2, V[5], y2])
        return rows

    def rows(self) -> list[tuple[list[int], list[int], int]]:
        """Each step's row, then the remainder's when there is one (see
        `_corners`), as lists As, Bs and the frame's L in `numerators`
        order, x1, x2, y1, y2 == (As[k] + Bs[k]*sqrt2)/L, so that
        `f.rect_kernel(*row)` is F of the row."""
        As, Bs, L = self.frame
        return list(zip(self._corners(As), self._corners(Bs), repeat(L)))

    @property
    def terminated(self) -> bool:
        return self.remainder is None

    @property
    def sides(self) -> tuple[QNum, ...]:
        """The trace of shorter sides at entry to each step, preceded by the
        longer side of the original rectangle: the side the first step packs
        along."""
        r = self.original
        return (r.width if self.steps[0].along_x else r.height, *(s.side for s in self.steps))

    @property
    def counts(self) -> list[int]:
        return [s.count for s in self.steps]

    @property
    def total_squares(self) -> int:
        return sum(s.count for s in self.steps)

    def all_squares(self) -> list[Rect]:
        """Every packed square, step by step, built on demand off the frame,
        so no `numerators` call: the only builder of squares.  A step's
        squares fill its row (`_corners`) and share its far side across the
        packing axis, the original's y2 or x2 object itself, so one QNum is
        built a square.

        Each side is checked positive once, which puts every edge below the
        next and lo below the far side, so no square is checked by
        `Rect.__init__`.  On the frame's integers, lo + side is checked
        against the row's far side and, after every step's side checks,
        corner + count*side against its far edge: a hand-built step that
        does not fill its row is refused with a ValueError.  An edge is the
        one before it plus the side, all built normalised and hashed by one
        `_from_numerator_lists` call."""
        As, Bs, L = self.frame
        x2, y2 = self.original.x2, self.original.y2
        EA: list[int] = []
        EB: list[int] = []
        short = None
        for (_, _, side, n, along_x), (xa, x2a, ya, y2a), (xb, x2b, yb, y2b), sa, sb in zip(
            self.steps, self._corners(As), self._corners(Bs), As[8::3], Bs[8::3]
        ):
            if _sign2(sa, sb) <= 0:
                raise ValueError(f"degenerate step: side {side}")
            # (a, ea) along the packing axis to the far edge, (la, fa) across it to the far side
            a, ea, la, fa, b, eb, lb, fb = (
                (xa, x2a, ya, y2a, xb, x2b, yb, y2b) if along_x else (ya, y2a, xa, x2a, yb, y2b, xb, x2b)
            )
            if la + sa != fa or lb + sb != fb:
                hi = from_numerators(la + sa, lb + sb, L)
                raise ValueError(f"step off the far side: lo + side {hi}, not {y2 if along_x else x2}")
            if short is None and (a + n * sa != ea or b + n * sb != eb):
                short = from_numerators(a + n * sa, b + n * sb, L), from_numerators(ea, eb, L)
            EA += islice(accumulate(repeat(sa, n), initial=a), 1, None)
            EB += islice(accumulate(repeat(sb, n), initial=b), 1, None)
        if short:
            raise ValueError(f"step off its far edge: corner + count*side {short[0]}, not {short[1]}")
        built = iter(_from_numerator_lists(EA, EB, L))
        squares: list[Rect] = []
        for s in self.steps:
            e = (s.x if s.along_x else s.y, *islice(built, s.count))
            if s.along_x:
                rows = zip(e, e[1:], repeat(s.y), repeat(y2))
            else:
                rows = zip(repeat(s.x), repeat(x2), e, e[1:])
            # tuple.__new__(Rect, row) is `Rect._make` without its Python call
            squares += map(tuple.__new__, repeat(Rect), rows)
        return squares


def greedy_step(r: Rect) -> tuple[Step, Optional[Rect]]:
    """Pack floor(longer/shorter) squares of the shorter side into r: the
    first step of `decompose(r, 1)` and its remainder.

    Squares are laid from the min-coordinate corner along the longer axis;
    when they fill r exactly (a square, or commensurable sides at this step)
    the remainder is None, otherwise it is the strip of the remaining length
    at the max-coordinate end.  No square is built.
    """
    d = decompose(r, 1)
    return d.steps[0], d.remainder


def decompose(r: Rect, max_steps: int) -> Decomposition:
    """Iterate greedy steps until the packing is exact or max_steps is hit.

    Incommensurable side ratios never terminate; max_steps is therefore
    mandatory and the remainder (None when `terminated`) carries the
    distinction between the finite and the truncated-infinite case.

    The loop runs on the integer pairs of the sides and corners over L, the
    common denominator of r's coordinates (see the module docstring).  The
    first step compares the sides with one `_sign2`; after it the axes
    alternate, since what is left of the longer side is shorter than the
    side packed.  The count is the floor of longer/shorter, taken as
    q = qa + qb*sqrt2 = longer * conj(shorter) over the norm
    N(shorter) = a^2 - 2b^2.  q is multiplied out once, before the first
    step: a step (p, s) -> (s, p - c*s) makes the next q conj(q) - c*N(s),
    so qa drops by c*N(s) and qb only flips sign.  floor(|qb|*sqrt2) is
    therefore one `math.isqrt` for the whole loop, and each count is one
    integer division, `_floor`'s rule with that root reused.  The norm of
    what is left, N(p - c*s) = N(p) - 2c*qa + c^2*N(s), reuses qa, so the
    loop's own arithmetic per step is a few products of a large integer by
    the count, linear in the coefficients' size.  Per step only the side
    and the moved corner coordinate are built as QNums, one gcd each; the
    far corner (x2, y2) never moves.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    # a coordinate or side (A + B*sqrt2)/L is kept as its pair A, B
    As, Bs, L = numerators(r)
    (xa, x2a, ya, y2a), (xb, x2b, yb, y2b) = As, Bs
    wa, wb, ha, hb = x2a - xa, x2b - xb, y2a - ya, y2b - yb
    along_x = _sign2(wa - ha, wb - hb) >= 0
    # the longer side p = pa + pb*sqrt2 and the shorter s, with their norms
    pa, pb, sa, sb = (wa, wb, ha, hb) if along_x else (ha, hb, wa, wb)
    pn, sn = pa * pa - 2 * pb * pb, sa * sa - 2 * sb * sb
    x, x2, y, y2 = r
    steps: list[Step] = []
    # the frame: r's coordinates, the remainder's corner (r's own until a
    # truncation moves it), then each step's x, y and side
    As += (xa, ya)
    Bs += (xb, yb)
    # q = p * conj(s), multiplied out once: after it each step carries q
    qa, qb = pa * sa - 2 * pb * sb, pb * sa - pa * sb
    root = math.isqrt(2 * qb * qb)
    while True:
        # _floor(A, B, |sn|) for A + B*sqrt2 = q*sign(sn), with the root reused
        A, B, D = (qa, qb, sn) if sn > 0 else (-qa, -qb, -sn)
        count = (A + (root if B > 0 else -root - 1 if B < 0 else 0)) // D
        steps.append(Step(x, y, from_numerators(sa, sb, L), count, along_x))
        As += (xa, ya, sa)
        Bs += (xb, yb, sb)
        ta, tb = pa - count * sa, pb - count * sb  # left over, shorter than s
        if not (ta or tb):
            d = Decomposition(original=r, steps=tuple(steps), remainder=None)
            break
        if along_x:
            xa, xb = xa + count * sa, xb + count * sb
            x = from_numerators(xa, xb, L)
        else:
            ya, yb = ya + count * sa, yb + count * sb
            y = from_numerators(ya, yb, L)
        if len(steps) == max_steps:
            d = Decomposition(original=r, steps=tuple(steps), remainder=Rect(x, x2, y, y2))
            As[4:6], Bs[4:6] = (xa, ya), (xb, yb)
            break
        pa, pb, pn, sa, sb, sn = sa, sb, sn, ta, tb, pn - 2 * count * qa + count * count * sn
        qa, qb = qa - count * pn, -qb
        along_x = not along_x
    d._frame = As, Bs, L
    return d


# One exact comparison backing the halving guarantee, lhs <= rhs, at side
# `index`; `kind` is "monotone" or "halving".
HalvingCheck = namedtuple("HalvingCheck", "index kind lhs rhs")


class HalvingCertificate(namedtuple("HalvingCertificate", "failure")):
    """`failure` is the first `HalvingCheck` that fails, or None."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.failure is None


def verify_halving(d: Decomposition) -> HalvingCertificate:
    """Check sides[n+1] <= sides[n], then sides[n+2] <= sides[n]/2, for every
    n, exactly, on the sides' numerators over the frame's L.

    A greedy trace S of N steps with counts c is a Euclid chain (Knuth,
    TAOCP vol. 2, 4.5.3): S[n] - c[n]*S[n+1] == S[n+2] for n <= N-2, every
    c[n] an int >= 1, S[N] > 0 and S[N-1] - c[N-1]*S[N] >= 0.  By backward
    induction S[n] >= S[n+1] > 0, and S[n] - 2*S[n+2] = c[n]*S[n+1] - S[n+2]
    >= S[n+1] - S[n+2] >= 0: the chain proves every comparison with two
    `_sign2`s and no squaring.  Any other trace is scanned, one `_sign2` a
    comparison, monotone ones first.  The certificate names the first that
    fails, or none, and builds its field values only for a failure.
    """
    As, Bs, _ = d.frame
    i = 0 if d.steps[0].along_x else 2
    As, Bs = [As[i + 1] - As[i], *As[8::3]], [Bs[i + 1] - Bs[i], *Bs[8::3]]
    cs = d.counts
    if set(map(type, cs)) == {int} and min(cs) >= 1:
        la = [a - c * a1 for a, c, a1 in zip(As, cs, As[1:])]  # S[n] - c[n]*S[n+1]
        lb = [b - c * b1 for b, c, b1 in zip(Bs, cs, Bs[1:])]
        if la[:-1] == As[2:] and lb[:-1] == Bs[2:]:
            if _sign2(As[-1], Bs[-1]) > 0 and _sign2(la[-1], lb[-1]) >= 0:
                return HalvingCertificate(None)
    for n in range(len(As) - 1):
        if _sign2(As[n] - As[n + 1], Bs[n] - Bs[n + 1]) < 0:
            sides = d.sides
            return HalvingCertificate(HalvingCheck(n, "monotone", sides[n + 1], sides[n]))
    for n in range(len(As) - 2):
        if _sign2(As[n] - 2 * As[n + 2], Bs[n] - 2 * Bs[n + 2]) < 0:
            sides = d.sides
            return HalvingCertificate(HalvingCheck(n, "halving", sides[n + 2], sides[n] * dyadic(1, 1)))
    return HalvingCertificate(None)


def telescope(F: RectFunction, d: Decomposition) -> QNum:
    """Sum of F over all packed squares plus the remainder (when present).

    Each step's squares fill one rectangle, its row, and F is additive, so
    they sum to F of the row: the cost is O(steps) whatever the packing
    counts and no square is built.  The remainder is one more row.  Each
    row, as `Decomposition._corners` bounds it, gives integer numerators
    (a, b, e) of F of the row: a point function with its own integer
    `rect_kernel` gets the row's numerators (`Decomposition.rows`), and any
    other is evaluated by `value` at the row's corners, QNums the
    decomposition holds, so no QNum is built per row and a `Table` looks up
    keys whose hashes are cached.  The rows are summed as integers over the
    lcm of their denominators and normalised once, the one QNum built.  For
    corner-difference F the sum equals F(original) exactly: shared-edge
    corner terms cancel in pairs across the tiling.
    """
    f = F.point_fn
    if type(f).rect_kernel is not PointFunction.rect_kernel:
        parts = [f.rect_kernel(*row) for row in d.rows()]
    else:
        parts = [f._value_difference(*row) for row in d._corners(d._values())]
    A, B, D = 0, 0, 1
    for a, b, e in parts:
        if e == D:
            A, B = A + a, B + b
        else:
            g = math.gcd(D, e)
            A, B, D = A * (e // g) + a * (D // g), B * (e // g) + b * (D // g), D // g * e
    return from_numerators(A, B, D)


def continued_fraction_counts(r: Rect, max_terms: int) -> list[int]:
    """Continued-fraction coefficients of (longer side)/(shorter side) by
    exact floor-and-invert, truncated at max_terms or exact termination.

    Serves as an independent oracle for the greedy per-step counts: packing
    "as many times as possible" is precisely the floor of the running ratio.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    w, h = r.width, r.height
    x = w / h if w >= h else h / w
    terms: list[int] = []
    while len(terms) < max_terms:
        a = math.floor(x)
        terms.append(a)
        frac = x - QNum(a)
        if not frac:
            break
        x = QNum(1) / frac
    return terms
