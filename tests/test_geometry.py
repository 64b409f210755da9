import math
import random
from fractions import Fraction

import pytest

from rectadd.geometry import (
    DyadicSquare,
    Rect,
    as_dyadic_square,
    coarser_cover_span,
    dyadic_inner_cover_rect,
    dyadic_inner_cover_span,
    parse_rect,
    split,
)
from rectadd.numeric import ONE, QNum, SQRT2, ZERO
from rectadd.suites import rand_rect, rand_split_params

from cover_oracle import dyadic_inner_cover, rand_mesh_rect

F = Fraction

UNIT = Rect(ZERO, ONE, ZERO, ONE)
WITNESS = Rect(ZERO, ONE, ONE, SQRT2)


def test_degenerate_rectangles_rejected():
    with pytest.raises(ValueError):
        Rect(ZERO, ZERO, ZERO, ONE)
    with pytest.raises(ValueError):
        Rect(ONE, ZERO, ZERO, ONE)
    with pytest.raises(ValueError):
        Rect(ZERO, ONE, SQRT2, SQRT2)


def test_area_examples():
    assert UNIT.area() == 1
    assert WITNESS.area() == SQRT2 - 1
    assert Rect(QNum(0), QNum(8), QNum(0), QNum(5)).area() == 40


def test_diameter_sq_examples():
    assert UNIT.diameter_sq() == 2
    assert Rect(QNum(0), QNum(3), QNum(0), QNum(4)).diameter_sq() == 25  # 3-4-5
    assert Rect(ZERO, ONE, ZERO, SQRT2).diameter_sq() == 3  # 1 + 2


def test_split_examples():
    a, b = split(Rect(QNum(0), QNum(2), QNum(0), QNum(1)), "vertical", ONE)
    assert a == UNIT
    assert b == Rect(ONE, QNum(2), ZERO, ONE)

    lo, hi = split(UNIT, "horizontal", QNum(F(1, 3)))
    assert lo == Rect(ZERO, ONE, ZERO, QNum(F(1, 3)))
    assert hi == Rect(ZERO, ONE, QNum(F(1, 3)), ONE)

    left, right = split(UNIT, "vertical", SQRT2 / 2)
    assert left.width == SQRT2 / 2
    assert right.width == ONE - SQRT2 / 2
    assert left.area() + right.area() == UNIT.area()


def test_split_rejects_boundary_and_outside():
    for c in [ZERO, ONE, QNum(2), QNum(-1)]:
        with pytest.raises(ValueError):
            split(UNIT, "vertical", c)
    with pytest.raises(ValueError):
        split(UNIT, "diagonal", QNum(F(1, 2)))


def test_split_conservation_property():
    rng = random.Random(201)
    for i in range(400):
        r = rand_rect(rng, i)
        axis, c = rand_split_params(rng, r)
        a, b = split(r, axis, c)
        assert a.area() + b.area() == r.area()
        assert a.diameter_sq() < r.diameter_sq()
        assert b.diameter_sq() < r.diameter_sq()


def test_split_pieces_are_valid_rects_built_unchecked():
    rng = random.Random(203)
    axes = set()
    for i in range(400):
        r = rand_rect(rng, i)
        axis, c = rand_split_params(rng, r)
        axes.add(axis)
        for piece in split(r, axis, c):
            assert type(piece) is Rect and piece == Rect(*piece)
            assert piece.x1 < piece.x2 and piece.y1 < piece.y2
    assert axes == {"vertical", "horizontal"}


def test_as_dyadic_square_examples():
    assert as_dyadic_square(UNIT) == DyadicSquare(0, 0, 0)
    quarter = parse_rect("[1/2,3/4]x[1/4,1/2]")
    assert as_dyadic_square(quarter) == DyadicSquare(2, 2, 1)
    assert as_dyadic_square(WITNESS) is None  # irrational corner


def test_as_dyadic_square_rejections():
    # square but side not a power of two
    assert as_dyadic_square(parse_rect("[0,3/4]x[0,3/4]")) is None
    # dyadic square side but misaligned corners
    assert as_dyadic_square(parse_rect("[1/8,5/8]x[0,1/2]")) is None
    # side 2 would need order -1
    assert as_dyadic_square(parse_rect("[0,2]x[0,2]")) is None
    # dyadic but not square
    assert as_dyadic_square(parse_rect("[0,1]x[0,1/2]")) is None


def test_dyadic_square_round_trip():
    rng = random.Random(202)
    for _ in range(500):
        sq = DyadicSquare(
            order=rng.randint(0, 12),
            k=rng.randint(-(2**15), 2**15),
            m=rng.randint(-(2**15), 2**15),
        )
        assert as_dyadic_square(sq.to_rect()) == sq


def test_dyadic_square_validation():
    with pytest.raises(ValueError):
        DyadicSquare(-1, 0, 0)


def test_inner_cover_unit_square_tiles_exactly():
    cover = dyadic_inner_cover(UNIT, 1)
    assert len(cover) == 4
    assert all(sq.side == QNum(F(1, 2)) for sq in cover)
    total = sum((sq.to_rect().area() for sq in cover), ZERO)
    assert total == UNIT.area()


def test_inner_cover_witness_order_2():
    cover = dyadic_inner_cover(WITNESS, 2)
    assert len(cover) == 4  # 4 columns x 1 row; floor(4*sqrt2) = 5, ceil(4) = 4
    assert all(WITNESS.contains_rect(sq.to_rect()) for sq in cover)


def test_inner_cover_too_small():
    third = Rect(ZERO, QNum(F(1, 3)), ZERO, QNum(F(1, 3)))
    assert dyadic_inner_cover(third, 1) == []
    assert dyadic_inner_cover_rect(third, 1) is None


def test_inner_cover_count_formula_and_containment():
    rng = random.Random(203)
    for i in range(120):
        r = rand_rect(rng, i)
        for order in (0, 1, 2, 3):
            scale = QNum(2**order)
            want_x = max(0, math.floor(r.x2 * scale) - math.ceil(r.x1 * scale))
            want_y = max(0, math.floor(r.y2 * scale) - math.ceil(r.y1 * scale))
            cover = dyadic_inner_cover(r, order)
            assert len(cover) == want_x * want_y
            for sq in cover[:16]:
                assert r.contains_rect(sq.to_rect())


def test_inner_cover_monotone_and_error_bound():
    rng = random.Random(204)
    for i in range(60):
        r = rand_rect(rng, i)
        prev = ZERO
        for order in range(0, 6):
            k_lo, k_hi, m_lo, m_hi = dyadic_inner_cover_span(r, order)
            nx, ny = max(0, k_hi - k_lo), max(0, m_hi - m_lo)
            covered = QNum(F(nx * ny, 4**order))
            assert covered >= prev
            bound = (r.width + r.height) * QNum(F(2, 2**order)) + QNum(F(4, 4**order))
            assert r.area() - covered <= bound
            prev = covered


def test_coarser_spans_are_the_spans_of_lower_orders():
    # a right shift of the order-n bounds, floors and ceilings alike, is the
    # order n - s span, which is floor and ceil of the field product; the
    # rectangles include mesh-aligned ones with negative corners, whose
    # bounds are exact at every order from the mesh's on
    rng = random.Random(205)
    for i in range(80):
        r = rand_rect(rng, i) if i % 2 else rand_mesh_rect(rng)
        top = rng.randint(0, 64)
        span = dyadic_inner_cover_span(r, top)
        for order in range(top + 1):
            scale = QNum(2**order)
            want = (math.ceil(r.x1 * scale), math.floor(r.x2 * scale), math.ceil(r.y1 * scale), math.floor(r.y2 * scale))
            assert coarser_cover_span(span, top - order) == dyadic_inner_cover_span(r, order) == want


def test_inner_cover_rect_matches_enumeration():
    for order in range(0, 5):
        cover = dyadic_inner_cover(WITNESS, order)
        hull = dyadic_inner_cover_rect(WITNESS, order)
        if not cover:
            assert hull is None
            continue
        total = sum((sq.to_rect().area() for sq in cover), ZERO)
        assert hull.area() == total


def test_interior_disjointness_small():
    cover = dyadic_inner_cover(UNIT, 1)
    rects = [sq.to_rect() for sq in cover]
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            a, b = rects[i], rects[j]
            over_w = min(a.x2, b.x2) - max(a.x1, b.x1)
            over_h = min(a.y2, b.y2) - max(a.y1, b.y1)
            assert over_w.sign() <= 0 or over_h.sign() <= 0


def test_parse_rect():
    r = parse_rect("[0,1]x[1,0+1*sqrt2]")
    assert r == WITNESS
    assert parse_rect(r.literal()) == r
    for bad in ["[0,1]x[1]", "0,1x0,1", "[0,1]y[0,1]", "[1,0]x[0,1]"]:
        with pytest.raises(ValueError):
            parse_rect(bad)


def test_corners_order():
    assert UNIT.corners() == (
        (ZERO, ZERO),
        (ONE, ZERO),
        (ZERO, ONE),
        (ONE, ONE),
    )
