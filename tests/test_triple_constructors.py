"""Dyadic, power-of-two and mesh values built straight from integer triples.

Each constructor is checked against the `Fraction` formula it replaced, kept
here as the oracle: the same normalised triple, hash and literal.  A guard
test counts `Fraction` constructions during the dyadic report commands.
"""

import math
import random
from fractions import Fraction

import pytest

from rectadd import harness
from rectadd.geometry import (
    DyadicSquare,
    Rect,
    as_dyadic_square,
    dyadic_inner_cover_rect,
    dyadic_inner_cover_span,
    parse_rect,
)
from rectadd.harness import WITNESS_RECT, shrink_bound
from rectadd.numeric import QNum, SQRT2, dyadic
from rectadd.rectfn import (
    APPROX_DIGITS,
    COUNTEREXAMPLE,
    PRODUCT,
    RectFunction,
    liminf_quotient_probe,
    pow2_exact,
)
from rectadd.suites import rand_rect

F = Fraction


def triple(q: QNum) -> tuple[int, int, int]:
    return q._A, q._B, q._D


def assert_same(q: QNum, want: QNum) -> None:
    assert triple(q) == triple(want), (q, want)
    assert hash(q) == hash(want) and q.literal() == want.literal()


def rand_k(rng: random.Random, i: int) -> int:
    kind = i % 4
    if kind == 0:
        return -rng.randint(1, 1 << rng.randint(1, 200))
    if kind == 1:
        return 0
    if kind == 2:
        return rng.randint(0, 1 << rng.randint(1, 200)) | 1
    return rng.choice([1, -1]) * (rng.randint(1, 1 << 40) << rng.randint(1, 300))


def rect_oracle(k1: int, k2: int, m1: int, m2: int, n: int) -> Rect:
    s = F(1, 2**n)
    return Rect(QNum(k1 * s), QNum(k2 * s), QNum(m1 * s), QNum(m2 * s))


def test_dyadic_matches_the_fraction_formula():
    rng = random.Random(20221018)
    for i in range(2000):
        k, n = rand_k(rng, i), rng.randint(0, 300)
        assert_same(dyadic(k, n), QNum(F(k, 2**n)))
    for n in range(301):
        assert_same(dyadic(1, n), QNum(F(1, 2**n)))
    with pytest.raises(ValueError):
        dyadic(1, -1)


def test_mesh_square_matches_the_fraction_formula():
    rng = random.Random(20221019)
    for _ in range(500):
        n = rng.randint(0, 80)
        k, m = rng.randint(-(2**40), 2**40), rng.randint(-(2**15), 2**15)
        sq = DyadicSquare(n, k, m)
        r = sq.to_rect()
        want = rect_oracle(k, k + 1, m, m + 1, n)
        for got, exp in zip((r.x1, r.x2, r.y1, r.y2), (want.x1, want.x2, want.y1, want.y2)):
            assert_same(got, exp)
        assert_same(sq.side, QNum(F(1, 2**n)))
        assert as_dyadic_square(r) == sq


def _as_dyadic_square_oracle(r: Rect):
    # the Fraction reading of as_dyadic_square, through the rational parts
    if not all(v.is_dyadic() for v in (r.x1, r.x2, r.y1, r.y2)) or not r.is_square():
        return None
    w = r.width.a
    if w.numerator != 1 or w.denominator & (w.denominator - 1):
        return None
    n = w.denominator.bit_length() - 1
    kf, mf = r.x1.a * 2**n, r.y1.a * 2**n
    if kf.denominator != 1 or mf.denominator != 1:
        return None
    return DyadicSquare(n, int(kf), int(mf))


def test_as_dyadic_square_matches_the_fraction_reading():
    rng = random.Random(20221020)
    for _ in range(1000):
        n = rng.randint(0, 12)
        x1 = F(rng.randint(-64, 64), 2 ** rng.randint(0, 14))
        y1 = F(rng.randint(-64, 64), 2 ** rng.randint(0, 14))
        side = F(rng.choice([1, 1, 1, 2, 3]), 2**n)
        top = QNum(y1 + side) if rng.random() < 0.9 else QNum(y1 + side, F(1, 2**n))
        r = Rect(QNum(x1), QNum(x1 + side), QNum(y1), top)
        assert as_dyadic_square(r) == _as_dyadic_square_oracle(r), r
    assert as_dyadic_square(parse_rect("[-3/8,-1/4]x[5,41/8]")) == DyadicSquare(3, -3, 40)


def test_inner_cover_matches_the_fraction_formula():
    rng = random.Random(20221021)
    rects = [WITNESS_RECT, parse_rect("[-1/3,5/7]x[1/2,3/2+1/5*sqrt2]")]
    rects += [rand_rect(rng, 300 + i) for i in range(60)]
    for r in rects:
        for order in range(0, 40):
            scale = QNum(F(2**order))
            span = (
                math.ceil(r.x1 * scale),
                math.floor(r.x2 * scale),
                math.ceil(r.y1 * scale),
                math.floor(r.y2 * scale),
            )
            assert dyadic_inner_cover_span(r, order) == span
            k_lo, k_hi, m_lo, m_hi = span
            got = dyadic_inner_cover_rect(r, order)
            if k_hi <= k_lo or m_hi <= m_lo:
                assert got is None
                continue
            want = rect_oracle(k_lo, k_hi, m_lo, m_hi, order)
            for g, w in zip((got.x1, got.x2, got.y1, got.y2), (want.x1, want.x2, want.y1, want.y2)):
                assert_same(g, w)


def test_shrink_bound_matches_the_fraction_formula():
    rng = random.Random(20221022)
    for r in [WITNESS_RECT] + [rand_rect(rng, 300 + i) for i in range(20)]:
        for order in range(0, 201, 7):
            want = (r.width + r.height) * QNum(F(2, 2**order)) + QNum(F(4, 4**order))
            assert_same(shrink_bound(r, order), want)


def test_pow2_exact_matches_the_fraction_formula():
    for num in range(-600, 601):
        for den in (1, 2, 3, 4, 7):
            e = F(num, den)
            got = pow2_exact(e)
            if e.denominator == 1:
                assert_same(got, QNum(F(2) ** e.numerator))
            elif e.denominator == 2:
                assert_same(got, QNum(0, F(2) ** ((e.numerator - 1) // 2)))
            else:
                assert got is None


@pytest.mark.parametrize("alpha", [F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(5, 7)])
@pytest.mark.parametrize("fn", [PRODUCT, COUNTEREXAMPLE])
def test_probe_squares_match_the_fraction_formula(alpha, fn):
    F_ = RectFunction(fn)
    point = (QNum(F(1, 3)), SQRT2)
    depth, offsets = 10, 5
    probe = liminf_quotient_probe(F_, point, alpha, depth, offsets, within=WITNESS_RECT)
    w = max(0, (offsets - 1).bit_length())
    for scale, j in zip(probe.scales, range(1, depth + 1)):
        side_f = F(1, 2**j)
        side = QNum(side_f)
        assert_same(scale.side, side)
        assert_same(scale.diameter_sq, side * side * 2)
        power = pow2_exact(-2 * j * alpha)
        for sample, i in zip(scale.samples, range(offsets)):
            t = F(i, 2**w)
            x0, y0 = point[0] - QNum(t * side_f), point[1] - QNum(t * side_f)
            want = Rect(x0, x0 + side, y0, y0 + side)
            assert sample.square == want
            assert_same(sample.value, F_.value(want))
            if power is None:
                assert sample.quotient is None and sample.flagged
            else:
                assert_same(sample.quotient, sample.value / power)
                # one decimal path: the same digits as the exact quotient's
                assert sample.quotient_approx == sample.quotient.approximate(APPROX_DIGITS)
        exact = [s.quotient for s in scale.samples if s.quotient is not None]
        if exact:
            assert scale.min_quotient in exact
            assert all(scale.min_quotient <= q for q in exact)
        else:
            assert scale.min_quotient is None


def test_dyadic_reports_construct_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    Fraction(1, 2)
    assert len(made) == 1  # the counter sees a construction
    made.clear()
    assert harness.cmd_counterexample().exit_status == 0
    assert harness.cmd_dyadic_approx(rect=WITNESS_RECT, max_order=20).exit_status == 0
    assert made == []
