"""Differential test of QNum against an independent implementation of Q(sqrt2).

The oracle is sympy's algebraic field QQ<sqrt(2)> for the field operations.
Its `is_positive` reads only the sign of the leading coefficient, which is not
the real sign, so sign and floor are checked against mpmath (shipped with
sympy) at a working precision that provably separates the value from every
integer (see `real_floor`).  sympy is a test-only dependency; the package does
not import it.

Also pinned here are the contracts that other modules rely on: hashing like
Fraction on the rationals, hashing like the reduced triple (A, B, D) off
them, whichever constructor built the value, equality from unreduced inputs,
and the exact bits of float().
"""

import math
import random
import re
import sys
from fractions import Fraction

import pytest

from rectadd.decompose import decompose
from rectadd.geometry import Rect
from rectadd.numeric import ONE, ZERO, QNum, _from_numerator_lists, from_numerators, parse_qnum
from rectadd.suites import rand_rect

from greedy_oracle import alone, step_edges

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

F = Fraction
K = sympy.QQ.algebraic_field(sympy.sqrt(2))
CASES = 2000
LITERAL = re.compile(r"(-?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)\*sqrt2)?")
SQRT2 = K.from_sympy(sympy.sqrt(2))


def to_field(q: QNum):
    # ANP coefficients run from the highest power down: [b, a] is a + b*sqrt2
    return K([sympy.QQ(q.b.numerator, q.b.denominator), sympy.QQ(q.a.numerator, q.a.denominator)])


def integer_triple(q: QNum) -> tuple[int, int, int]:
    """(A, B, D) with q == (A + B*sqrt2)/D and D > 0, from the Fraction parts."""
    d = math.lcm(q.a.denominator, q.b.denominator)
    return q.a.numerator * (d // q.a.denominator), q.b.numerator * (d // q.b.denominator), d


def real_floor(q: QNum) -> int:
    """floor(q) from a multiprecision evaluation of A + B*sqrt2.

    For any integer n, A - n*D + B*sqrt2 is either 0 (only when B == 0) or at
    least 1 / (|A - n*D| + 2|B| + 1) in absolute value, because
    (A - n*D)^2 - 2*B^2 is a nonzero integer.  A working precision of twice
    the bit length of the coefficients plus a margin keeps the rounding error
    below that gap for every n near q, so the evaluated floor is exact.
    """
    A, B, D = integer_triple(q)
    if B == 0:
        return A // D
    bits = abs(A).bit_length() + abs(B).bit_length() + D.bit_length()
    with mpmath.mp.workprec(2 * bits + 64):
        return int(mpmath.floor((mpmath.mpf(A) + mpmath.mpf(B) * mpmath.sqrt(2)) / D))


def real_sign(q: QNum) -> int:
    if not (q.a or q.b):
        return 0
    return -1 if real_floor(q) < 0 else 1


def _pell(n: int) -> tuple[int, int]:
    # (sqrt2 - 1)^n = x + y*sqrt2 with |x|, |y| growing like (1 + sqrt2)^n
    x, y = 1, 0
    for _ in range(n):
        x, y = -x + 2 * y, x - y
    return x, y


def rand_fraction(rng: random.Random, bits: int) -> Fraction:
    return F(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << max(1, bits // 2)))


def rand_case(rng: random.Random, i: int) -> QNum:
    """Small, medium and huge coefficients, exact rationals and zero, and values
    whose large coefficients cancel to a tiny (or sign-ambiguous-looking) number."""
    kind = i % 6
    if kind == 0:
        return QNum(rand_fraction(rng, 4), rand_fraction(rng, 4))
    if kind == 1:
        return QNum(rand_fraction(rng, 64), rand_fraction(rng, 64))
    if kind == 2:
        return QNum(rand_fraction(rng, 300), rand_fraction(rng, 300))
    if kind == 3:
        return QNum(rand_fraction(rng, 20), rng.choice([0, 0, rand_fraction(rng, 8)]))
    if kind == 4:
        # (sqrt2 - 1)^n scaled: coefficients near 2^(1.27 n), value near 2^(-1.27 n)
        x, y = _pell(rng.randint(1, 120))
        s = rand_fraction(rng, 16) or F(1)
        return QNum(x * s, y * s) + rng.choice([0, 0, F(rng.randint(-3, 3))])
    # convergents p/q of sqrt2 against sqrt2 itself, scaled up, as in
    # test_floor_large_cancelling_coefficients
    x, y = _pell(rng.randint(2, 60))
    p, q = abs(x), abs(y)
    return QNum(F(-p, q), 1) * QNum(rng.choice([1, -1]) * 10 ** rng.randint(0, 40))


def canonical(q: QNum) -> QNum:
    # equal values must compare and hash equal however they were computed
    fresh = QNum(q.a, q.b)
    assert q == fresh and hash(q) == hash(fresh), q
    return q


def test_field_operations_match_sympy():
    rng = random.Random(20220714)
    for i in range(CASES):
        p, q = rand_case(rng, i), rand_case(rng, i + rng.randint(0, 5))
        fp, fq = to_field(p), to_field(q)
        assert to_field(canonical(p + q)) == fp + fq, (p, q)
        assert to_field(canonical(p - q)) == fp - fq, (p, q)
        assert to_field(canonical(p * q)) == fp * fq, (p, q)
        assert to_field(canonical(-p)) == -fp, p
        if q:
            assert to_field(canonical(p / q)) == fp / fq, (p, q)
        else:
            with pytest.raises(ZeroDivisionError):
                p / q
        assert to_field(p + 3) == fp + K.convert(3)
        assert to_field(p * F(-2, 9)) == fp * K.convert(sympy.QQ(-2, 9))
        assert (p == q) == (fp == fq)


def test_sign_order_and_floor_match_mpmath():
    rng = random.Random(20220715)
    for i in range(CASES):
        p, q = rand_case(rng, i), rand_case(rng, i + 1)
        s = real_sign(p)
        assert p.sign() == s, p
        d = real_sign(p - q)
        assert (p < q, p <= q, p > q, p >= q) == (d < 0, d <= 0, d > 0, d >= 0), (p, q)
        assert math.floor(p) == real_floor(p), p
        assert math.ceil(p) == -real_floor(-p), p


def test_literal_round_trip_matches_sympy():
    rng = random.Random(20220716)
    for i in range(CASES):
        q = rand_case(rng, i)
        text = q.literal()
        assert parse_qnum(text) == q
        # an independent reading of the same text
        a, b = (F(part or 0) for part in LITERAL.fullmatch(text).groups())
        expect = K.convert(sympy.QQ(a.numerator, a.denominator))
        expect += K.convert(sympy.QQ(b.numerator, b.denominator)) * SQRT2
        assert expect == to_field(q), text


def test_floor_large_cancelling_coefficients_against_mpmath():
    for n in (10, 40, 80, 160):
        x, y = _pell(n)  # (sqrt2 - 1)^n, a tiny positive or negative value
        for shift in (-1, 0, 1):
            q = QNum(x + shift, y)
            assert math.floor(q) == real_floor(q)
            assert q.sign() == real_sign(q)
    q = QNum(F(-239, 169), 1) * QNum(1000000)
    assert math.floor(q) == real_floor(q)


def real_approximate(q: QNum, digits: int, pow2: Fraction) -> str:
    """q * 2**pow2 truncated after `digits` places, from mpmath.

    Let X = |q| * 10^digits * 2^pow2 and bits the bit length of q's triple.
    At bits + 4*digits + |t| + 96 bits of precision (t = floor(pow2)) the
    evaluation errs by less than 2^-80, so it gives floor(X) unless it lands
    within 2^-40 of an integer.  Only then is X evaluated again at 4K + 64
    bits: for an integer n, X^qd - n^qd (qd the denominator of pow2) lies in
    Q(sqrt2) with a denominator and coefficients below 2^K, so when nonzero
    it is at least 2^-2K in absolute value (the norm argument of
    `real_floor`), and |X - n| >= 2^-2K / (qd * (X + 1)^(qd - 1)) >= 2^-3K.
    An evaluation within 2^-(3K + 32) of n then means X == n exactly.
    """
    A, B, D = integer_triple(q)
    t = pow2.numerator // pow2.denominator
    bits = abs(A).bit_length() + abs(B).bit_length() + D.bit_length()
    K = pow2.denominator * (bits + 4 * digits + abs(t) + 4) + pow2.denominator + 8
    for prec, gap in ((bits + 4 * digits + abs(t) + 96, 40), (4 * K + 64, 3 * K + 32)):
        with mpmath.mp.workprec(prec):
            x = abs(mpmath.mpf(A) + mpmath.mpf(B) * mpmath.sqrt(2)) / D * mpmath.mpf(10) ** digits
            x *= mpmath.power(2, mpmath.mpf(pow2.numerator) / pow2.denominator)
            n = int(mpmath.nint(x))
            if abs(x - n) >= mpmath.ldexp(1, -gap):
                n = int(mpmath.floor(x))
                break
    s = str(n).rjust(digits + 1, "0")
    return ("-" if real_sign(q) < 0 else "") + s[:-digits] + "." + s[-digits:]


def test_approximate_with_power_of_two_matches_mpmath():
    rng = random.Random(20220720)
    for i in range(CASES // 4):
        q = rand_case(rng, i)
        digits = rng.choice([6, 12, 20])
        den = rng.randint(1, 13)
        pow2 = F(rng.randint(-8 * den, 8 * den), den)
        assert q.approximate(digits, pow2) == real_approximate(q, digits, pow2), (q, digits, pow2)
    # values whose scaled power lands on an integer: sqrt2 * 2^(1/2) == 2
    assert QNum(0, 1).approximate(6, F(1, 2)) == "2.000000"
    assert QNum(0, -1).approximate(6, F(3, 2)) == "-4.000000"
    assert QNum(F(1, 4)).approximate(3, 2) == "1.000"
    assert QNum(3).approximate(6, F(1, 3)) == real_approximate(QNum(3), 6, F(1, 3))


def test_approximate_without_power_of_two_matches_mpmath():
    # the integer floor of |A + B*sqrt2| * 10^digits / D, on every kind of
    # seeded value and its negation
    rng = random.Random(20220721)
    for i in range(CASES):
        q = rand_case(rng, i)
        for v in (q, -q):
            for digits in (1, 6, 12, 20):
                assert v.approximate(digits) == real_approximate(v, digits, F(0)), (v, digits)


def test_approximate_of_cancelling_units_next_to_the_last_digit():
    # c*(sqrt2 - 1)^k for the k that put it on both sides of 10^-digits,
    # where an all-zero decimal is taken from the norm with no floor: c
    # ranges over factors near 1 and sqrt2, so that |value|*10^digits also
    # falls between 1/sqrt2 and 1, where the norm's bound leaves the floor
    # to decide, and over denominators that move D against the coefficients
    factors = (F(1), F(2), F(3, 4), F(99, 70), F(70, 99), F(141, 100), F(1, 10**9), F(10**9 + 7, 3))
    seen = set()
    for digits in (1, 6, 12, 20):
        k0 = round(digits * math.log(10) / -math.log(math.sqrt(2) - 1))
        for k in range(max(1, k0 - 30), k0 + 30):
            x, y = _pell(k)
            for c in factors:
                for v in (QNum(x * c, y * c), QNum(-x * c, -y * c)):
                    got = v.approximate(digits)
                    assert got == real_approximate(v, digits, F(0)), (v, digits)
                    seen.add((got.lstrip("-") == "0." + "0" * digits, got.startswith("-")))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# -- contracts -----------------------------------------------------------------


def test_rational_values_hash_and_compare_like_fractions():
    assert hash(QNum(F(3, 7))) == hash(F(3, 7))
    assert QNum(3) == 3 and hash(QNum(3)) == hash(3)
    assert QNum(F(-5, 8)) == F(-5, 8)
    rng = random.Random(20220717)
    for _ in range(CASES):
        f = rand_fraction(rng, rng.choice([4, 64, 200]))
        assert hash(QNum(f)) == hash(f)
        assert hash(QNum(f, 1) - QNum(0, 1)) == hash(f)  # reached through arithmetic
    # the modulus of the numeric hash, and a denominator that it divides
    m = 2**61 - 1
    assert hash(QNum(F(1, m))) == hash(F(1, m))
    assert hash(QNum(F(m, m + 1))) == hash(F(m, m + 1))
    assert hash(QNum(-1)) == hash(-1)


def _hash_contract(v: QNum, want: QNum) -> None:
    """v equals want and hashes alike; a hash v came primed with is the one
    `__hash__` computes; a rational hashes like its Fraction, any other
    value like its reduced triple (A, B, D), derived from the Fraction parts.

    The iteration order of a set of field values follows these hashes;
    seeded draws do not (suites._rect_corner_points keeps the order of first
    appearance), but the hash is still a documented contract."""
    primed = v._hash
    v._hash = None
    h = hash(v)
    assert v == want and h == hash(want), (v, want)
    assert primed in (None, h), v
    if v.is_rational():
        assert h == hash(v.a), v
    else:
        assert h == hash(integer_triple(v)), v


def test_hash_contract_across_constructors():
    m = sys.hash_info.modulus
    rng = random.Random(20220718)
    values = [rand_case(rng, i) for i in range(CASES)]
    # -1 and -1 - sqrt2 (a part hashing as -1 hashes as -2), and
    # denominators that the modulus divides
    values += [QNum(-1), QNum(-1, -1), QNum(F(1, m)), QNum(F(-3, 2 * m)), QNum(F(1, m), F(2, m))]
    values += [QNum(F(3, 2 * m), F(-1, 4)), QNum(F(5, 7), F(m + 2, 3 * m)), QNum(F(m, m + 1))]
    values.append(QNum(F(1, 2), F(-3, 4)))
    assert hash(QNum(-1)) == -2 and hash(QNum(F(-3, 2 * m))) == hash(F(-3, 2 * m))
    assert sum(not q.is_rational() for q in values) > CASES // 2
    x = QNum(F(1, 3), F(-2, 7))
    for q in values:
        A, B, D = integer_triple(q)
        k = rng.randint(2, 9)
        # over D*k, which the modulus divides only when it divides D, and
        # over D*m: each value comes primed, but a rational over a multiple
        # of the modulus
        listed = _from_numerator_lists([A * k], [B * k], D * k) + _from_numerator_lists([A * m], [B * m], D * m)
        irrational = not q.is_rational()
        assert [v._hash is not None for v in listed] == [irrational or D % m != 0, irrational], q
        built = [QNum(q.a, q.b), parse_qnum(q.literal()), from_numerators(A * k, B * k, D * k), (q + x) * x / x - x]
        for v in built + listed:
            _hash_contract(v, q)
    # edges built over a decomposition's frame, whose L the modulus divides
    # in the last two rectangles
    rects = [rand_rect(rng, i) for i in range(200)]
    for x1 in (QNum(F(1, m)), QNum(F(-3, 2 * m), F(1, 5))):
        rects.append(Rect(x1, x1 + QNum(1, 1), ZERO, ONE))
    for r in rects:
        d = decompose(r, 12)
        for sq in d.all_squares():
            for v in sq:
                _hash_contract(v, QNum(v.a, v.b))
        # and each step alone, over a frame of its own
        for step in d.steps:
            for v in step_edges(step, alone(step).all_squares()):
                _hash_contract(v, QNum(v.a, v.b))


def test_equal_values_from_unreduced_inputs():
    assert QNum(F(2, 4), F(2, 4)) == QNum(F(1, 2), F(1, 2))
    assert hash(QNum(F(2, 4), F(2, 4))) == hash(QNum(F(1, 2), F(1, 2)))
    built = QNum(F(1, 6), F(1, 6)) * 3  # a common factor appears in the product
    assert built == QNum(F(1, 2), F(1, 2))
    assert hash(built) == hash(QNum(F(1, 2), F(1, 2)))
    half = QNum(F(1, 4), F(3, 4)) + QNum(F(1, 4), F(-1, 4))
    assert half == QNum(F(1, 2), F(1, 2)) and hash(half) == hash(QNum(F(1, 2), F(1, 2)))
    assert {QNum(F(2, 4), F(2, 4)), built, half} == {QNum(F(1, 2), F(1, 2))}


def test_float_bits_are_the_componentwise_sum():
    rng = random.Random(20220719)
    for i in range(CASES):
        q = rand_case(rng, i)
        try:
            want = float(q.a) + float(q.b) * math.sqrt(2)
        except OverflowError:
            with pytest.raises(OverflowError):
                float(q)
            continue
        assert float(q).hex() == want.hex(), q


def test_repr_and_rendering_unchanged():
    q = QNum(F(1, 2), F(-1, 3))
    assert repr(q) == "QNum(Fraction(1, 2), Fraction(-1, 3))"
    assert repr(QNum(3)) == "QNum(Fraction(3, 1), Fraction(0, 1))"
    assert q.literal() == "1/2-1/3*sqrt2" and str(q) == q.literal()
    assert QNum(F(-6, 4)).literal() == "-3/2"
    assert q.approximate(6) == "0.028595"
    assert (-q).approximate(6) == "-0.028595"
    assert (q.a, q.b) == (F(1, 2), F(-1, 3))
