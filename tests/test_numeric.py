"""Exactness checks for the Q(sqrt2) number type.

Derived expected values are verified by independent means inside each test:
signs against 64-bit floats, division by multiplying back, floors by sign
tests on q - n and q - (n+1).
"""

import math
import random
from fractions import Fraction

import pytest

from rectadd import numeric
from rectadd.decompose import decompose
from rectadd.geometry import parse_rect
from rectadd.numeric import (
    ONE,
    QNum,
    SQRT2,
    ZERO,
    from_numerators,
    iroot,
    numerators,
    parse_qnum,
    qnum,
)
from rectadd.suites import rand_qnum, run_suite

from field_counter import count_calls

F = Fraction


def test_sign_examples():
    assert QNum(3, -2).sign() == 1  # 3 - 2*sqrt2 = 0.1715... ; 9 > 8
    assert abs(float(QNum(3, -2)) - 0.17157287525381) < 1e-12
    assert QNum(0, 0).sign() == 0
    assert QNum(1, -1).sign() == -1  # 1 < sqrt2


def test_sign_matches_float_oracle():
    rng = random.Random(101)
    for i in range(3000):
        q = rand_qnum(rng, i)
        f = float(q)
        if abs(f) > 1e-6:
            assert q.sign() == (1 if f > 0 else -1)


def test_order_consistency_with_floats():
    rng = random.Random(102)
    for i in range(2000):
        p, q = rand_qnum(rng, i), rand_qnum(rng, i)
        gap = float(p) - float(q)
        if abs(gap) > 1e-6:
            assert (p > q) == (gap > 0)
            assert (p < q) == (gap < 0)


def test_multiplication_difference_of_squares():
    assert QNum(1, 1) * QNum(-1, 1) == ONE  # (sqrt2+1)(sqrt2-1) = 1


def test_addition_componentwise():
    assert QNum(F(1, 2)) + QNum(F(1, 2), 1) == QNum(1, 1)


def test_division_by_conjugate():
    inv = ONE / QNum(1, 1)
    assert inv == QNum(-1, 1)
    assert inv * QNum(1, 1) == ONE  # multiply back


def test_division_round_trip_random():
    rng = random.Random(103)
    for i in range(1000):
        p, q = rand_qnum(rng, i), rand_qnum(rng, i)
        if q:
            assert (p / q) * q == p


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        QNum(2, 3) / QNum(0, 0)


def test_floor_examples():
    assert math.floor(SQRT2) == 1
    assert math.floor(QNum(F(5, 2))) == 2
    assert math.floor(-SQRT2) == -2  # floor, not truncation
    assert math.ceil(SQRT2) == 2
    assert math.floor(QNum(-3)) == -3


def test_floor_sign_test_oracle():
    # independent certificate: sign(q - n) >= 0 and sign(q - (n+1)) < 0
    rng = random.Random(104)
    for i in range(2000):
        q = rand_qnum(rng, i)
        n = math.floor(q)
        assert (q - n).sign() >= 0
        assert (q - (n + 1)).sign() < 0


def test_floor_large_cancelling_coefficients():
    # 169/239 approximates sqrt2/2 to ~1e-5; the difference is tiny but exact
    q = QNum(F(-239, 169), 1) * QNum(1000000)
    n = math.floor(q)
    assert (q - n).sign() >= 0 and (q - (n + 1)).sign() < 0


def test_field_axioms_bulk():
    result = run_suite("field", cases=10000, seed=1)
    assert result.violations == []
    assert result.cases_run == 10000


def test_uniqueness_of_representation():
    # a + b*sqrt2 = 0 forces a = b = 0
    assert not QNum(0, 0)
    assert QNum(F(3, 7), F(-3, 7)) != 0
    assert QNum(0, F(1, 10**9)) != 0
    rng = random.Random(105)
    for i in range(500):
        q = rand_qnum(rng, i)
        if q.a != 0 or q.b != 0:
            assert q.sign() != 0


def test_pow():
    assert (SQRT2 - 1) ** 2 == QNum(3, -2)
    assert (SQRT2 - 1) ** 0 == ONE
    assert SQRT2**2 == QNum(2)


def test_is_rational_is_dyadic():
    assert QNum(F(3, 7)).is_rational()
    assert not QNum(F(3, 7)).is_dyadic()  # 7 is not a power of 2
    assert not QNum(0, F(1, 3)).is_rational()
    assert QNum(F(-5, 8)).is_dyadic()
    assert QNum(4).is_dyadic()
    assert not SQRT2.is_dyadic()


def test_approximate_examples():
    assert SQRT2.approximate(5) == "1.41421"
    assert QNum(F(1, 4)).approximate(3) == "0.250"
    assert (SQRT2 - 1).approximate(3) == "0.414"
    assert (-SQRT2).approximate(3) == "-1.414"
    assert QNum(F(1, 400)).approximate(3) == "0.002"
    assert ZERO.approximate(2) == "0.00"


def test_all_zero_decimals_of_a_deep_trace_take_no_floor(monkeypatch):
    # 584 of the silver rectangle's 601 sides at 600 steps render as
    # 0.000000; each is read off its norm, so only the other 17 take a floor
    sides = decompose(parse_rect("[0,1+1*sqrt2]x[0,1]"), 600).sides
    calls = count_calls(monkeypatch, numeric._floor)
    texts = [s.approximate(6) for s in sides]
    assert len(texts) == 601 and texts.count("0.000000") == 584
    assert len(calls) == 17


def test_approximate_rejects_zero_digits():
    with pytest.raises(ValueError):
        ONE.approximate(0)


def test_literal_round_trip_canonical_forms():
    for text, value in [
        ("3", QNum(3)),
        ("3/7", QNum(F(3, 7))),
        ("-5/8", QNum(F(-5, 8))),
        ("0+1*sqrt2", SQRT2),
        ("1/2+1/3*sqrt2", QNum(F(1, 2), F(1, 3))),
        ("2-1*sqrt2", QNum(2, -1)),
    ]:
        assert parse_qnum(text) == value


def test_literal_round_trip_random():
    rng = random.Random(106)
    for i in range(500):
        q = rand_qnum(rng, i)
        assert parse_qnum(q.literal()) == q


def test_parse_rejects_inexact_or_garbage():
    for bad in ["1.5", "sqrt2", "", "1/0x", "1+sqrt2", "1/2+0.5*sqrt2", "two"]:
        with pytest.raises(ValueError):
            parse_qnum(bad)
    for zero_denominator in ["1/0", "1+1/0*sqrt2"]:
        with pytest.raises(ZeroDivisionError):
            parse_qnum(zero_denominator)


def test_qnum_coercion_and_hash():
    assert qnum(3) == QNum(3)
    assert qnum(F(1, 2)) == QNum(F(1, 2))
    assert hash(QNum(3)) == hash(F(3))
    d = {QNum(3): "a"}
    assert d[QNum(3, 0)] == "a"
    with pytest.raises(TypeError):
        qnum("3")  # strings must go through parse_qnum


def test_iroot_exhaustive_small():
    for n in range(400):
        for k in range(1, 6):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k
    assert iroot(10**40, 4) == 10**10


def test_iroot_large_roots_exact():
    # perfect powers, their neighbours below, and random numbers, up to the
    # 997th roots of 45,000-bit numbers a non-field probe quotient takes
    rng = random.Random(211)
    for k in (2, 3, 5, 31, 101, 997):
        for bits in (10, 60, 200, 5000, 45000):
            x = rng.getrandbits(max(1, bits // k)) | 1
            for n in (x**k, x**k - 1, rng.getrandbits(bits) | 1):
                r = iroot(n, k)
                assert r**k <= n < (r + 1) ** k, (bits, k)


class _Divisions(int):
    """An int that counts the long divisions made of it: one per Newton step
    of `iroot`."""

    def __floordiv__(self, other):
        self.divisions += 1
        return int(self) // other


def test_iroot_starts_next_to_the_root():
    # from 2^ceil(bits/k), up to twice the root, each step shrank the
    # estimate by about a factor 1 - 1/k: 100 to 600 steps here
    rng = random.Random(213)
    for _ in range(4):
        n = _Divisions(rng.getrandbits(45000) | 1 << 44999)
        n.divisions = 0
        r = iroot(n, 997)
        assert r**997 <= n < (r + 1) ** 997
        assert n.divisions <= 3



def test_numerators_over_the_lcm_rebuild_the_values():
    rng = random.Random(437)
    for n in (1, 2, 3, 17):
        for _ in range(100):
            values = [rand_qnum(rng) for _ in range(n)]
            As, Bs, L = numerators(values)
            assert L == math.lcm(*(math.lcm(v.a.denominator, v.b.denominator) for v in values))
            assert [from_numerators(a, b, L) for a, b in zip(As, Bs)] == values
            assert from_numerators(sum(As), sum(Bs), L) == sum(values, ZERO)


def _value_hash(q):
    # the documented numeric hash: a rational value hashes like its
    # Fraction, any other like its reduced triple (A, B, D)
    return hash((q._A, q._B, q._D)) if q._B else hash(q.a)


def test_numerator_lists_build_normalised_hashed_values():
    # the list form of `from_numerators`: the same triples, each hashed as
    # `__hash__` would hash it, a rational from the one inverse of L it
    # takes
    m = numeric._HASH_MODULUS
    rng = random.Random(439)
    for L in (1, 2, 12, 97 * 64, 3**40, m + 2, 2 * m + 1):
        As, Bs = [], []
        for _ in range(200):
            size = rng.choice([L, 10**6, 10**80])
            As.append(rng.randint(-size, size))
            Bs.append(rng.choice([0, rng.randint(-size, size)]))
        # -1, which hashes as -2, not -1, and -1 - sqrt2; zero; and values
        # that reduce by L
        As += [-L, -L, 0, 3 * L, L]
        Bs += [0, -L, 0, 0, -5 * L]
        built = numeric._from_numerator_lists(As, Bs, L)
        assert [(q._A, q._B, q._D) for q in built] == [
            (q._A, q._B, q._D) for q in (from_numerators(a, b, L) for a, b in zip(As, Bs))
        ]
        assert [q._hash for q in built] == [_value_hash(q) for q in built]
        assert hash(built[-5]) == hash(-1) == -2
    # no inverse exists when the modulus divides L: a rational's hash is
    # left to `__hash__`, and the others, which need none, are primed
    L = 6 * m
    built = numeric._from_numerator_lists([1, -7, 12], [0, 5, -6], L)
    assert [q._hash for q in built] == [None, *map(_value_hash, built[1:])]
    assert built == [from_numerators(1, 0, L), from_numerators(-7, 5, L), from_numerators(12, -6, L)]
    assert [hash(q) for q in built] == [_value_hash(q) for q in built]
