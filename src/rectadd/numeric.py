"""Exact arithmetic over the quadratic field Q(sqrt2).

Every value is a normalised triple of arbitrary-precision integers (A, B, D)
denoting the real number (A + B*sqrt(2))/D, i.e. a + b*sqrt(2) with a = A/D
and b = B/D.  The representation is unique, ordering is decidable by integer
comparisons alone, and membership in Q (B == 0) is a trivial test.  No
floating point is used in any decision; floats appear only as
display/cross-check conveniences.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Sequence
from fractions import Fraction

__all__ = [
    "Fraction",
    "QNum",
    "SQRT2",
    "ZERO",
    "ONE",
    "qnum",
    "dyadic",
    "numerators",
    "from_numerators",
    "parse_qnum",
    "iroot",
]

_SQRT2_FLOAT = math.sqrt(2.0)
_HASH_MODULUS = sys.hash_info.modulus


def _sign2(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(2) for integers a, b.

    When a and b disagree in sign, |a| vs |b|*sqrt(2) is settled by squaring:
    a^2 = 2b^2 is impossible for nonzero integers, so the inequality is strict.
    """
    if a > 0:
        return 1 if b >= 0 or a * a > 2 * b * b else -1
    if a < 0:
        return -1 if b <= 0 or a * a > 2 * b * b else 1
    return (b > 0) - (b < 0)


def _scaled_hash(n: int, inv: int) -> int:
    """hash(Fraction(n, d)) given inv, the inverse of d > 0 modulo the hash
    modulus, by Python's documented numeric hash, which is defined on the
    value and so needs no gcd reduction of n/d."""
    h = abs(n) % _HASH_MODULUS * inv % _HASH_MODULUS
    if n < 0:
        h = -h
    return -2 if h == -1 else h


def _floor(A: int, B: int, D: int) -> int:
    """floor((A + B*sqrt2)/D) for integers with D > 0, without floating point.

    Brackets B*sqrt2 between consecutive integers via an exact integer square
    root; the bracket is tight, so a single floor division of integers gives
    the answer (estimate-and-correct with correction 0).
    """
    if B == 0:
        f = 0
    elif B > 0:
        f = math.isqrt(2 * B * B)
    else:
        # B*sqrt2 is irrational, so floor = -(floor(|B|*sqrt2) + 1)
        f = -(math.isqrt(2 * B * B) + 1)
    return (A + f) // D


class QNum:
    """An element (A + B*sqrt(2))/D of Q(sqrt2), stored as three integers.

    The triple is normalised, D > 0 and gcd(A, B, D) == 1, so equal values
    have equal triples.  This is an integral vector over one common
    denominator (Cohen, GTM 138, ch. 4); the rational parts a = A/D and
    b = B/D are derived on demand.
    """

    __slots__ = ("_A", "_B", "_D", "_hash")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0) -> None:
        if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))):
            raise TypeError(f"QNum components must be int or Fraction, got {a!r}, {b!r}")
        A, D = (int(a), 1) if isinstance(a, int) else (a.numerator, a.denominator)
        if isinstance(b, int):
            B = int(b) * D
        else:
            # with both parts in lowest terms, scaling to the lcm of their
            # denominators leaves gcd(A, B, D) == 1
            B, bd = b.numerator, b.denominator
            if bd != D:
                g = math.gcd(D, bd)
                A *= bd // g
                B *= D // g
                D *= bd // g
        self._A = A
        self._B = B
        self._D = D
        self._hash = None

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self._A, self._D)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(2)."""
        return Fraction(self._B, self._D)

    # -- basic protocol ----------------------------------------------------

    def __repr__(self) -> str:
        return f"QNum({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return self.literal()

    def __hash__(self) -> int:
        """A rational value hashes like its int or Fraction, so QNum(3) and 3
        can mix as keys; any other value, equal to no int or Fraction, hashes
        like its normalised triple (A, B, D), with no inverse of D taken."""
        h = self._hash
        if h is None:
            A, B, D = self._A, self._B, self._D
            if B:
                h = hash((A, B, D))
            elif D % _HASH_MODULUS:
                h = _scaled_hash(A, 1 if D == 1 else pow(D, -1, _HASH_MODULUS))
            else:
                h = hash(Fraction(A, D))
            self._hash = h
        return h

    def __bool__(self) -> bool:
        return self._A != 0 or self._B != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, QNum):
            return self._A == other._A and self._B == other._B and self._D == other._D
        if isinstance(other, int):
            return self._B == 0 and self._D == 1 and self._A == other
        if isinstance(other, Fraction):
            return self._B == 0 and self._A == other.numerator and self._D == other.denominator
        return NotImplemented

    def __lt__(self, other) -> bool:
        c = _cmp(self, other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other) -> bool:
        c = _cmp(self, other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other) -> bool:
        c = _cmp(self, other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other) -> bool:
        c = _cmp(self, other)
        return NotImplemented if c is None else c >= 0

    # -- field arithmetic --------------------------------------------------

    def __add__(self, other) -> "QNum":
        if not isinstance(other, QNum):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _add(self._A, self._B, self._D, other._A, other._B, other._D)

    __radd__ = __add__

    def __sub__(self, other) -> "QNum":
        if not isinstance(other, QNum):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _add(self._A, self._B, self._D, -other._A, -other._B, other._D)

    def __rsub__(self, other) -> "QNum":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "QNum":
        return _new(-self._A, -self._B, self._D)

    def __pos__(self) -> "QNum":
        return self

    def __abs__(self) -> "QNum":
        return -self if self.sign() < 0 else self

    def __mul__(self, other) -> "QNum":
        if not isinstance(other, QNum):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        # (A + B*r)(C + E*r) = AC + 2BE + (AE + BC)*r, with r^2 = 2
        A, B, C, E = self._A, self._B, other._A, other._B
        return _new(A * C + 2 * B * E, A * E + B * C, self._D * other._D)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QNum":
        if not isinstance(other, QNum):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero QNum")
        # multiply by the conjugate C - E*r; the norm C^2 - 2E^2 is a nonzero integer
        A, B, C, E = self._A, self._B, other._A, other._B
        norm = C * C - 2 * E * E
        if norm < 0:
            norm, C, E = -norm, -C, -E
        D = other._D
        return _new((A * C - 2 * B * E) * D, (B * C - A * E) * D, self._D * norm)

    def __rtruediv__(self, other) -> "QNum":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "QNum":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- decisions ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value, one of -1, 0, +1 (D > 0, so A + B*sqrt2 decides)."""
        return _sign2(self._A, self._B)

    def is_rational(self) -> bool:
        return self._B == 0

    def is_dyadic(self) -> bool:
        """True when the value is p / 2^n for integers p, n >= 0."""
        D = self._D
        return self._B == 0 and D & (D - 1) == 0

    def __floor__(self) -> int:
        """Largest integer n with n <= self, computed without floating point."""
        return _floor(self._A, self._B, self._D)

    def __ceil__(self) -> int:
        return -math.floor(-self)

    def __float__(self) -> float:
        # int / int is correctly rounded, as Fraction.__float__ is, so this is
        # float(a) + float(b) * sqrt2 bit for bit
        D = self._D
        return self._A / D + (self._B / D) * _SQRT2_FLOAT

    # -- rendering ---------------------------------------------------------

    def literal(self) -> str:
        """Exact textual form: `p/q`, or `p/q+r/s*sqrt2` / `p/q-r/s*sqrt2`."""
        B, D = self._B, self._D
        if B == 0:
            return _ratio(self._A, D)
        sign = "+" if B > 0 else "-"
        return f"{_ratio(self._A, D)}{sign}{_ratio(abs(B), D)}*sqrt2"

    def approximate(self, digits: int, pow2: Fraction | int = 0) -> str:
        """Decimal expansion of self * 2**pow2, truncated toward zero after
        `digits` places.

        Without pow2 the digits are floor(|A + B*sqrt2| * 10^digits / D), one
        integer floor on the scaled triple.  Exact even where 2**pow2 leaves
        the field: with pow2 = t + p/q (0 <= p < q) and
        X = |self| * 10^digits * 2^t, the digits are iroot(floor(X^q * 2^p), q),
        as floor(Y^(1/q)) == floor(floor(Y)^(1/q)).
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        A, B, D = self._A, self._B, self._D
        ten = 10**digits
        neg = _sign2(A, B) < 0
        scale = -ten if neg else ten
        A, B = A * scale, B * scale
        if not pow2:
            m = _floor(A, B, D)
        else:
            q = pow2.denominator
            t, p = divmod(pow2.numerator, q)
            Y = (_new(A << t, B << t, D) if t >= 0 else _new(A, B, D << -t)) ** q
            m = iroot(_floor(Y._A << p, Y._B << p, Y._D), q)
        s = str(m).rjust(digits + 1, "0")
        return ("-" if neg else "") + s[:-digits] + "." + s[-digits:]


_alloc = object.__new__


def _new(A: int, B: int, D: int) -> QNum:
    """A QNum from any triple with D > 0, divided through by gcd(A, B, D)."""
    if D != 1:
        g = math.gcd(D, A, B)  # D first: usually the smallest, and gcd stops at 1
        if g != 1:
            A //= g
            B //= g
            D //= g
    q = _alloc(QNum)
    q._A = A
    q._B = B
    q._D = D
    q._hash = None
    return q


def _add(A1: int, B1: int, D1: int, A2: int, B2: int, D2: int) -> QNum:
    """(A1 + B1*r)/D1 + (A2 + B2*r)/D2 for normalised triples.

    As for fractions (Knuth, TAOCP vol. 2, 4.5.1), any common factor of the
    sum over lcm(D1, D2) divides g = gcd(D1, D2), so no gcd is needed when
    g == 1 and the final one involves only g.
    """
    if D1 == D2:
        return _new(A1 + A2, B1 + B2, D1)
    g = math.gcd(D1, D2)
    if g == 1:
        A, B, D = A1 * D2 + A2 * D1, B1 * D2 + B2 * D1, D1 * D2
    else:
        s, t = D1 // g, D2 // g
        A = A1 * t + A2 * s
        B = B1 * t + B2 * s
        g = math.gcd(g, A, B)
        A, B, D = A // g, B // g, s * (D2 // g)
    q = _alloc(QNum)
    q._A = A
    q._B = B
    q._D = D
    q._hash = None
    return q


def _cmp(x: QNum, other) -> int | None:
    """Sign of x - other without building it, or None for a foreign type."""
    if not isinstance(other, QNum):
        other = _coerce(other)
        if other is None:
            return None
    D1, D2 = x._D, other._D
    if D1 == D2:
        return _sign2(x._A - other._A, x._B - other._B)
    return _sign2(x._A * D2 - other._A * D1, x._B * D2 - other._B * D1)


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, written as str(Fraction(n, d)) writes it."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _coerce(x) -> QNum | None:
    if isinstance(x, QNum):
        return x
    if isinstance(x, int):
        return _new(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _new(x.numerator, 0, x.denominator)
    return None


def dyadic(k: int, n: int) -> QNum:
    """k / 2^n for integers k and n >= 0, built from its triple."""
    return _new(k, 0, 1 << n)


def numerators(values: Sequence[QNum]) -> tuple[list[int], list[int], int]:
    """The values over one common denominator: lists As, Bs and L, the lcm
    of their denominators, with value i == (As[i] + Bs[i]*sqrt2)/L.

    Sums and differences of the values are then sums and differences of
    integers; `from_numerators` turns a result back into a QNum.
    """
    L = math.lcm(*[v._D for v in values])
    As = []
    Bs = []
    for v in values:
        D = v._D
        if D == L:
            As.append(v._A)
            Bs.append(v._B)
        else:
            k = L // D
            As.append(v._A * k)
            Bs.append(v._B * k)
    return As, Bs, L


# (A + B*sqrt2)/D, normalised, for integers with D > 0: the way back from
# sums of `numerators`
from_numerators = _new


def _from_numerator_lists(As: list[int], Bs: list[int], L: int) -> list[QNum]:
    """[from_numerators(A, B, L) for A, B in zip(As, Bs)], each with its hash
    primed: a rational's from one inverse of L modulo the hash modulus, on
    the unreduced A, or left to `__hash__` when the modulus divides L; any
    other value's from its reduced triple, with no inverse.

    The loop does `_new`'s normalising and `__hash__`'s hashing in line, so
    a long list costs no Python call per value."""
    M = _HASH_MODULUS
    inv = pow(L, -1, M) if L % M else None
    gcd = math.gcd
    alloc = _alloc
    out = []
    for A, B in zip(As, Bs):
        h = None
        if not B and inv is not None:
            # _scaled_hash(A, inv); |A| * inv is congruent to (|A| % M) * inv
            h = abs(A) * inv % M
            if A < 0:
                h = -2 if h == 1 else -h
        D = L
        if D != 1:
            g = gcd(D, A, B)
            if g != 1:
                A //= g
                B //= g
                D //= g
        if B:
            h = hash((A, B, D))
        q = alloc(QNum)
        q._A = A
        q._B = B
        q._D = D
        q._hash = h
        out.append(q)
    return out


def qnum(x) -> QNum:
    """Coerce an int, Fraction, or QNum to QNum."""
    q = _coerce(x)
    if q is None:
        raise TypeError(f"cannot interpret {x!r} as a QNum")
    return q


ZERO = QNum(0)
ONE = QNum(1)
SQRT2 = QNum(0, 1)


_LITERAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?(?:([+-]\d+)(?:/(\d+))?\*sqrt2)?")
# Most digits in a part p, q, r or s of a literal `p/q+r/s*sqrt2`.  A rectangle
# of four literals with distinct parts has an area of up to 8 times as many
# digits, and `dyadic-approx` at order 1000 adds the 602 of 4^1000 to its gaps:
# 8*450 + 602 stays under the 4300 digits Python renders as text.
MAX_LITERAL_DIGITS = 450


def parse_qnum(text: str) -> QNum:
    """Parse the literal grammar produced by QNum.literal (bit-exact round trip).

    Accepted forms: `p/q`, `p/q+r/s*sqrt2`, `p/q-r/s*sqrt2`, with integer
    shorthand (`3` for `3/1`) in either slot.  Decimal input is rejected on
    purpose; inputs must be exact.  A part of more than MAX_LITERAL_DIGITS
    digits is refused before it is converted.
    """
    m = _LITERAL_RE.fullmatch(text.strip().replace(" ", ""))
    if m is None:
        raise ValueError(f"not a QNum literal: {text!r}")
    p, q, r, s = m.groups()
    if max(len(part.lstrip("+-")) for part in m.groups("")) > MAX_LITERAL_DIGITS:
        raise ValueError(f"a literal part has more than {MAX_LITERAL_DIGITS} digits (the digit budget)")
    q, s = int(q or 1), int(s or 1)
    if q == 0 or s == 0:
        raise ZeroDivisionError(f"zero denominator in QNum literal {text!r}")
    # p/q + (r/s)*sqrt2 == (p*s + r*q*sqrt2) / (q*s)
    return _new(int(p) * s, int(r or 0) * q, q * s)


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, by Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("iroot requires n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    # Newton's iteration falls to the root from above, by a factor of only
    # about 1 - 1/k a step while far off, so start just above it: the float
    # root's leading 53 bits, shifted by t, are off by far less than the
    # 1 + 2^-30 added for roots under 100,000 bits.  The loops after
    # Newton's keep the result exact whatever the start.
    r = math.log2(n) / k
    t = max(0, int(r) - 52)
    x = int(2.0 ** (r - t) * (1 + 2**-30) + 2) << t
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x
