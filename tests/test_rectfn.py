import random
from fractions import Fraction

import pytest

from rectadd.geometry import DyadicSquare, Rect, split
from rectadd.numeric import ONE, QNum, SQRT2, ZERO
from rectadd.rectfn import (
    COUNTEREXAMPLE,
    Constant,
    PRODUCT,
    Table,
    check_additivity,
    corner_difference,
    liminf_quotient_probe,
    named_point_function,
    named_rect_function,
    pow2_exact,
    strong_continuity_witness,
)
from rectadd.suites import _rect_corner_points, rand_rect, rand_split_params, rand_table_function

F = Fraction

CE = corner_difference(COUNTEREXAMPLE)
PROD = corner_difference(PRODUCT)
UNIT = Rect(ZERO, ONE, ZERO, ONE)
WITNESS = Rect(ZERO, ONE, ONE, SQRT2)


def test_point_evaluation():
    assert COUNTEREXAMPLE.value(QNum(3), SQRT2) == 1  # irrational row
    assert COUNTEREXAMPLE.value(QNum(2), QNum(F(1, 2))) == 1  # 2 * 1/2
    assert COUNTEREXAMPLE.value(ZERO, ZERO) == 0
    assert PRODUCT.value(QNum(3), QNum(F(1, 3))) == 1
    assert Constant(QNum(5)).value(SQRT2, SQRT2) == 5


def test_table_point_function():
    t = Table({(ZERO, ZERO): QNum(7)})
    assert t.value(ZERO, ZERO) == 7
    assert t.value(ONE, ZERO) == 0  # off-table default


def test_named_functions():
    assert named_point_function("counterexample") is COUNTEREXAMPLE
    assert named_point_function("product") is PRODUCT
    assert named_point_function("constant:1/2+0*sqrt2").value(ZERO, ZERO) == QNum(F(1, 2))
    with pytest.raises(ValueError):
        named_point_function("nope")


def test_corner_difference_unit_square():
    assert CE.value(UNIT) == UNIT.area() == 1


def test_corner_difference_witness_negative():
    # corners: f(1,sqrt2)=1, f(0,1)=0, f(0,sqrt2)=1, f(1,1)=1 -> 1+0-1-1
    assert CE.value(WITNESS) == -1
    assert CE.value(WITNESS).sign() < 0


def test_product_function_is_area():
    rng = random.Random(301)
    for i in range(300):
        r = rand_rect(rng, i)
        assert PROD.value(r) == r.area()


def test_constant_function_vanishes():
    Z = corner_difference(Constant(QNum(9)))
    rng = random.Random(302)
    for i in range(50):
        assert Z.value(rand_rect(rng, i)) == 0


def test_dyadic_positivity_property():
    rng = random.Random(303)
    for _ in range(1000):
        sq = DyadicSquare(
            order=rng.randint(0, 12),
            k=rng.randint(-(2**15), 2**15),
            m=rng.randint(-(2**15), 2**15),
        )
        r = sq.to_rect()
        v = CE.value(r)
        assert v == r.area()
        assert v.sign() > 0


def test_check_additivity_examples():
    assert check_additivity(CE, UNIT, "vertical", QNum(F(1, 2))) == 0

    # six-corner oracle for the horizontal split of the witness at 5/4
    c = QNum(F(5, 4))
    lo, hi = split(WITNESS, "horizontal", c)
    f = COUNTEREXAMPLE.value
    lo_val = f(ONE, c) + f(ZERO, ONE) - f(ZERO, c) - f(ONE, ONE)
    hi_val = f(ONE, SQRT2) + f(ZERO, c) - f(ZERO, SQRT2) - f(ONE, c)
    assert CE.value(lo) == lo_val
    assert CE.value(hi) == hi_val
    assert lo_val + hi_val - CE.value(WITNESS) == 0
    assert check_additivity(CE, WITNESS, "horizontal", c) == 0

    rng = random.Random(304)
    r = rand_rect(rng)
    axis, cc = rand_split_params(rng, r)
    assert check_additivity(PROD, r, axis, cc) == 0


def test_check_additivity_random_tables():
    rng = random.Random(305)
    for i in range(500):
        r = rand_rect(rng, i)
        axis, c = rand_split_params(rng, r)
        r1, r2 = split(r, axis, c)
        Ft = rand_table_function(rng, _rect_corner_points([r, r1, r2]))
        assert check_additivity(Ft, r, axis, c) == 0


def test_strong_continuity_witness_counterexample():
    fam = strong_continuity_witness(CE, 3)
    assert [v for _, v in fam] == [QNum(-1)] * 3
    assert [r.area() for r, _ in fam] == [
        (SQRT2 - 1) / 2,
        (SQRT2 - 1) / 4,
        (SQRT2 - 1) / 8,
    ]
    # j = 1 upper edge is (1+sqrt2)/2, still irrational
    only = strong_continuity_witness(CE, 1)[0]
    assert only[0].y2 == QNum(F(1, 2), F(1, 2))
    assert only[1] == -1


def test_strong_continuity_witness_product_tracks_area():
    for r, v in strong_continuity_witness(PROD, 2):
        assert v == r.area()


def test_strong_continuity_witness_validates():
    with pytest.raises(ValueError):
        strong_continuity_witness(CE, 0)


def centred_squares(fn, center, k):
    """(square, value) for the squares of side 2^-j centred at the point,
    j = 1..k: sample 1 of the liminf probe at two offsets and alpha 0."""
    out = []
    for scale in liminf_quotient_probe(fn, center, F(0), k, 2).scales:
        s = scale.samples[1]
        assert s.square.width == QNum(F(1, 2**scale.level))
        assert s.square.x1 + s.square.x2 == 2 * center[0]
        assert s.square.y1 + s.square.y2 == 2 * center[1]
        assert s.quotient == s.value
        out.append((s.square, s.value))
    return out


def test_weak_continuity_probe_rational_center():
    vals = [v for _, v in centred_squares(CE, (ZERO, ZERO), 3)]
    assert vals == [QNum(F(1, 4)), QNum(F(1, 16)), QNum(F(1, 64))]


def test_weak_continuity_probe_irrational_center():
    # both ordinates sqrt2 +- 2^-j-1 are irrational, so f = 1 at all corners
    vals = [v for _, v in centred_squares(CE, (ZERO, SQRT2), 2)]
    assert vals == [ZERO, ZERO]


def test_weak_continuity_probe_product():
    for r, v in centred_squares(PROD, (QNum(F(3, 7)), SQRT2), 4):
        assert v == r.area()
        assert r.contains_point(QNum(F(3, 7)), SQRT2)


def test_pow2_exact():
    assert pow2_exact(F(0)) == ONE
    assert pow2_exact(F(-3)) == QNum(F(1, 8))
    assert pow2_exact(F(1, 2)) == SQRT2
    assert pow2_exact(F(-3, 2)) == SQRT2 / 4  # 2^-2 * sqrt2
    assert pow2_exact(F(5, 2)) == SQRT2 * 4
    assert pow2_exact(F(1, 3)) is None


def test_probe_product_all_ones():
    rep = liminf_quotient_probe(PROD, (QNum(F(1, 2)), QNum(F(1, 2))), F(1), 4, 3)
    for scale in rep.scales:
        for s in scale.samples:
            assert not s.flagged
            assert s.quotient == 1
        assert scale.min_quotient == 1


def test_probe_counterexample_rational_point():
    rep = liminf_quotient_probe(CE, (QNum(F(1, 2)), QNum(F(1, 2))), F(1), 4, 4)
    for scale in rep.scales:
        assert all(s.quotient == 1 for s in scale.samples)


def test_probe_constant_zero():
    Z = named_rect_function("constant:0")
    rep = liminf_quotient_probe(Z, (ZERO, ZERO), F(1), 3, 2)
    for scale in rep.scales:
        assert all(s.quotient == 0 for s in scale.samples)


def test_probe_alpha_two_grows():
    rep = liminf_quotient_probe(CE, (QNum(F(1, 2)), QNum(F(1, 2))), F(2), 4, 1)
    for scale in rep.scales:
        # F(Q) = |Q| on these squares, so the quotient is |Q|^-1 = 4^level
        assert scale.samples[0].quotient == QNum(4**scale.level)


def test_probe_invariants_and_within_flags():
    pt = (QNum(F(1, 3)), SQRT2 / 2)
    rep = liminf_quotient_probe(CE, pt, F(1), 5, 3, within=UNIT)
    prev = None
    for scale in rep.scales:
        if prev is not None:
            assert scale.diameter_sq < prev
        prev = scale.diameter_sq
        for s in scale.samples:
            assert s.square.contains_point(*pt)
            assert s.inside_within == UNIT.contains_rect(s.square)


def test_probe_flagged_decimal_matches_float():
    rep = liminf_quotient_probe(PROD, (ZERO, ZERO), F(2, 3), 2, 1)
    s1 = rep.scales[0].samples[0]
    assert s1.flagged and s1.quotient is None
    # quotient = |Q|^(1 - 2/3) = (1/4)^(1/3) = 2^(-2/3)
    assert abs(float(s1.quotient_approx) - 2 ** (-2 / 3)) < 1e-11
    s2 = rep.scales[1].samples[0]
    assert abs(float(s2.quotient_approx) - 2 ** (-8 / 6)) < 1e-11


def test_probe_flagged_negative_value():
    half = QNum(F(1, 2))
    Ft = corner_difference(Table({(half, half): QNum(-3)}))
    rep = liminf_quotient_probe(Ft, (ZERO, ZERO), F(1, 3), 1, 1)
    s = rep.scales[0].samples[0]
    assert s.value == -3 and s.flagged
    # quotient = -3 / (1/4)^(1/3) = -3 * 4^(1/3)
    assert abs(float(s.quotient_approx) + 3 * 4 ** (1 / 3)) < 1e-9
    assert s.quotient_approx.startswith("-4.762")


def test_probe_validates_inputs():
    with pytest.raises(ValueError):
        liminf_quotient_probe(PROD, (ZERO, ZERO), F(3), 2, 1)
    with pytest.raises(ValueError):
        liminf_quotient_probe(PROD, (ZERO, ZERO), F(1), 0, 1)
    with pytest.raises(ValueError):
        liminf_quotient_probe(PROD, (ZERO, ZERO), F(1), 2, 0)
