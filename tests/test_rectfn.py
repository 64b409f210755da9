import random
from fractions import Fraction

import pytest

from rectadd.decompose import Decomposition, Step, decompose, telescope
from rectadd.geometry import DyadicSquare, Rect, split
from rectadd.harness import VIOLATED
from rectadd.numeric import ONE, QNum, SQRT2, ZERO, from_numerators, numerators
from rectadd.rectfn import (
    COUNTEREXAMPLE,
    Constant,
    Counterexample,
    PRODUCT,
    Product,
    PointFunction,
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

from field_counter import count_builds, counterexample_squares
from greedy_oracle import alone, squares_by_step, step_edges

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


def _edge_differences(f, edges, lo, hi, along_x):
    # f(e, hi) - f(e, lo) at every edge e of a row, from `value`
    if along_x:
        return [f.value(e, hi) - f.value(e, lo) for e in edges]
    return [f.value(hi, e) - f.value(lo, e) for e in edges]


def _differences_mixed(f, edges, lo, hi, along_x):
    # True when the edge differences of the row are over different
    # denominators, so a sum over the squares scales some of them to their lcm
    return len({c._D for c in _edge_differences(f, edges, lo, hi, along_x)}) > 1


class _ValueOnly(Counterexample):
    # overrides only `value`, so `telescope` takes the value path
    def value(self, x, y):
        return x * x * y - x if y.is_rational() else y * x + ONE


def test_telescope_of_a_row_matches_per_square_values():
    # the oracle sums F over squares built by field arithmetic, x + k*side,
    # sharing no code with the step's edges or row ends
    rng = random.Random(433)
    mixed = large = 0
    for i in range(120):
        x = QNum(F(rng.randint(-60, 60), rng.randint(1, 9)), F(rng.randint(-3, 3), rng.randint(1, 4)))
        y = QNum(F(rng.randint(-60, 60), rng.randint(1, 9)), F(rng.randint(-3, 3), rng.randint(1, 4)) * (i % 2))
        side = QNum(F(rng.randint(1, 30), rng.randint(1, 7)), F(rng.randint(0, 2), rng.randint(1, 5)))
        count = 1 if i % 7 == 0 else rng.randint(200, 1000) if i % 10 == 3 else rng.randint(2, 25)
        large += count >= 200
        for along_x in (True, False):
            step = Step(x, y, side, count, along_x)
            start, lo = (x, y) if along_x else (y, x)
            hi = lo + side
            edges = [start + k * side for k in range(count + 1)]
            if along_x:
                squares = [Rect(e, f, lo, hi) for e, f in zip(edges, edges[1:])]
                filled = Rect(edges[0], edges[-1], lo, hi)
            else:
                squares = [Rect(lo, hi, e, f) for e, f in zip(edges, edges[1:])]
                filled = Rect(lo, hi, edges[0], edges[-1])
            # a hand-built decomposition of the row: the step alone, its
            # frame derived from one `numerators` call
            d = Decomposition(filled, (step,), None)
            (coords,) = d.rows()
            table = rand_table_function(rng, _rect_corner_points(squares))
            functions = (
                PROD, CE, corner_difference(Constant(QNum(F(5, 3), F(-1, 2)))), table,
                corner_difference(_ValueOnly()),
            )
            for F_ in functions:
                per_square = sum((F_.value(sq) for sq in squares), ZERO)
                assert telescope(F_, d) == per_square
                if F_ in (PROD, CE):
                    assert from_numerators(*F_.point_fn.rect_kernel(*coords)) == per_square
                mixed += _differences_mixed(F_.point_fn, edges, lo, hi, along_x)
    assert mixed > 200 and large >= 10


def _rand_part(rng, irrational):
    b = F(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 4)) if irrational else 0
    return QNum(F(rng.randint(-60, 60), rng.randint(1, 9)), b)


def test_rect_kernels_match_value():
    rng = random.Random(437)
    rows, columns = set(), set()
    for i in range(400):
        along_x, mode, count = i % 2 == 0, i // 2 % 4, i % 25 + 1
        # mode 0: lo and hi rational; 1: lo rational, hi not; 2: neither;
        # 3: lo irrational, hi rational
        while True:
            side = _rand_part(rng, mode in (1, 3))
            if side > 0:
                break
        lo = _rand_part(rng, mode == 2)
        if mode == 3:
            lo = QNum(lo.a, -side.b)
        start = _rand_part(rng, i % 3 != 0)
        if i % 5 == 0 and side.b:
            # edge j of the row is rational: the sqrt2 parts cancel there
            start = QNum(start.a, -rng.randint(0, count) * side.b)
        x, y = (start, lo) if along_x else (lo, start)
        step = Step(x, y, side, count, along_x)
        # the rectangle the squares fill, oriented by the step, over one
        # denominator, as `telescope` passes it to `rect_kernel`: the row of
        # the frame of a hand-built decomposition of the step alone
        d = alone(step)
        (As, Bs, L), = d.rows()
        r = Rect(*[from_numerators(a, b, L) for a, b in zip(As, Bs)])
        e, hi = step_edges(step, d.all_squares()), lo + side
        assert r == (Rect(e[0], e[-1], lo, hi) if along_x else Rect(lo, hi, e[0], e[-1]))
        rows.add((r.y1.is_rational(), r.y2.is_rational()))
        columns.add((r.x1.is_rational(), r.x2.is_rational()))
        for f in (PRODUCT, COUNTEREXAMPLE):
            v = from_numerators(*f.rect_kernel(As, Bs, L))
            assert v == corner_difference(f).value(r)
            # the fallback of a point function without a kernel, on the
            # same numerators, and the kernel on the rectangle's own
            # numerators give the same value
            assert from_numerators(*PointFunction.rect_kernel(f, As, Bs, L)) == v
            assert from_numerators(*f.rect_kernel(*numerators(r))) == v
    everything = {(True, True), (True, False), (False, False), (False, True)}
    assert rows == columns == everything


def test_table_of_qnum_entries_answers_as_coerced_entries():
    rng = random.Random(435)
    raw = {}
    for _ in range(300):
        key = (F(rng.randint(-20, 20), rng.randint(1, 6)), rng.randint(-20, 20))
        raw[key] = rng.choice([F(rng.randint(-50, 50), rng.randint(1, 9)), rng.randint(-9, 9)])
    as_qnum = {(QNum(x), QNum(y)): QNum(v) for (x, y), v in raw.items()}
    coerced, copied = Table(raw), Table(as_qnum)
    for x, y in as_qnum:
        for point in ((x, y), (x + 1, y), (x, y + SQRT2), (y, x)):
            assert copied.value(*point) == coerced.value(*point)
            assert isinstance(coerced.value(*point), QNum)
    # the table holds a copy, not the caller's mapping
    as_qnum.clear()
    assert all(copied.value(QNum(x), QNum(y)) == v for (x, y), v in raw.items())


class _Doubled(Product):
    """Twice the product: a subclass that overrides only `value`."""

    label = "doubled"

    def value(self, x, y):
        return 2 * (x * y)


class _Shifted(Counterexample):
    """3*x*y on a rational ordinate and x + y on an irrational one, where
    the parent has x*y and 1."""

    label = "shifted"

    def value(self, x, y):
        return 3 * (x * y) if y.is_rational() else x + y


class _DoubledAgain(_Doubled):
    """Inherits `_Doubled.value` and the fallback with it."""


@pytest.mark.parametrize("f", [_Doubled(), _Shifted(), _DoubledAgain()], ids=lambda f: type(f).__name__)
def test_subclass_overriding_value_is_summed_by_value(monkeypatch, f):
    # the parent's integer kernel is the parent's formula; a subclass with
    # its own `value` and no `rect_kernel` of its own falls back to `value`
    assert type(f).rect_kernel is PointFunction.rect_kernel
    F_ = corner_difference(f)
    rng = random.Random(439)
    rects = [Rect(ZERO, QNum(8), ZERO, QNum(5)), Rect(ZERO, ONE + SQRT2, ZERO, ONE), WITNESS]
    rects += [rand_rect(rng, i) for i in range(40)]
    irrational = 0
    for r in rects:
        d = decompose(r, rng.randint(1, 20))
        assert telescope(F_, d) == F_.value(r)
        irrational += not (r.x2 - r.x1).is_rational() or not (r.y2 - r.y1).is_rational()
    assert irrational > 10
    assert telescope(F_, decompose(rects[0], 20)) == F_.value(rects[0]) != PROD.value(rects[0])
    # F is 2 or 3 times the area on every mesh square, so each run of the
    # counterexample check stops at its first square, named with F's value
    for seed in range(300):
        rep, seen = counterexample_squares(monkeypatch, f, max_order=40, seed=seed)
        assert len(seen) == 1 and rep.findings[0].status == VIOLATED
        r = DyadicSquare(*seen[0]).to_rect()
        v = F_.value(r)
        assert v != r.area() or v.sign() <= 0
        assert rep.findings[0].exact_values == (r.literal(), v.literal())


def test_builtin_point_functions_keep_their_integer_kernels():
    for cls in (Product, Counterexample):
        assert cls.rect_kernel is not PointFunction.rect_kernel


class _TwiceProduct(PointFunction):
    """2*x*y, a direct subclass with its own integer kernel."""

    label = "twice-product"

    def value(self, x, y):
        return 2 * (x * y)

    def rect_kernel(self, As, Bs, L):
        A, B, D = PRODUCT.rect_kernel(As, Bs, L)
        return 2 * A, 2 * B, D


def test_point_function_with_its_own_kernel_is_summed_by_it(monkeypatch):
    f = _TwiceProduct()
    assert type(f).rect_kernel is not PointFunction.rect_kernel
    F_ = corner_difference(f)
    rng = random.Random(443)
    rects = [Rect(ZERO, QNum(8), ZERO, QNum(5)), Rect(ZERO, ONE + SQRT2, ZERO, ONE), WITNESS]
    rects += [rand_rect(rng, i) for i in range(40)]
    irrational = 0
    for r in rects:
        d = decompose(r, rng.randint(1, 20))
        assert telescope(F_, d) == F_.value(r) == 2 * PROD.value(r)
        irrational += not (r.x2 - r.x1).is_rational() or not (r.y2 - r.y1).is_rational()
    assert irrational > 10
    # a strip of 1009 + 2 squares, terminated: each step's row goes through
    # the kernel, no QNum edge is built, and the one QNum made is the sum
    r = Rect(QNum(F(-5, 2)), QNum(334), QNum(F(1, 4)), QNum(F(7, 12)))
    d = decompose(r, 20)
    assert d.terminated and d.total_squares > 1000 > 40 * len(d.steps)

    def refuse(*args):
        raise AssertionError("the telescope built a step's squares")

    built = count_builds(monkeypatch)
    monkeypatch.setattr(Decomposition, "all_squares", refuse)
    total = telescope(F_, d)
    assert len(built) == 1
    monkeypatch.undo()
    assert total == F_.value(r)
    rows = [from_numerators(*f.rect_kernel(*row)) for row in d.rows()]
    assert rows == [sum((F_.value(sq) for sq in squares), ZERO) for squares in squares_by_step(d)]
