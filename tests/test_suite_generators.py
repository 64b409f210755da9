"""The case generators of `rectadd.suites` draw the same cases as a
reference built on `Fraction`.

The generators build each value straight from the drawn integers.  The
reference below builds it as two `Fraction`s converted by `QNum.__init__`,
making the same `random.Random` calls in the same order.  A seed must give
equal triples and leave the generator in an equal state after every call,
so every suite case and every seeded test case is the same case.  Below
them all, `_randint` must draw what `random.Random.randint` draws, from the
same words.
"""

import random
from fractions import Fraction

import pytest

from rectadd.geometry import Rect, split
from rectadd.numeric import QNum
from rectadd.rectfn import Table, corner_difference
from rectadd.suites import (
    _ramp,
    _randint,
    _rect_corner_points,
    rand_positive_side,
    rand_qnum,
    rand_rect,
    rand_split_params,
    rand_table_function,
)

SEEDS = range(50)
INDICES = range(201)


# -- Fraction-built reference ------------------------------------------------


def ref_fraction(rng, max_num, max_den):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def ref_qnum(rng, index=64):
    m = _ramp(index, 4, 30)
    a = ref_fraction(rng, m, 8)
    if rng.random() < 0.5:
        return QNum(a)
    return QNum(a, ref_fraction(rng, max(1, m // 2), 4))


def ref_positive_side(rng, index=64):
    while True:
        a = Fraction(rng.randint(1, 4 * _ramp(index, 2, 8)), rng.randint(1, 4))
        if rng.random() < 0.5:
            q = QNum(a)
        else:
            q = QNum(a, Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), 4))
        if q > Fraction(1, 4):
            return q


def ref_rect(rng, index=64):
    x1 = ref_qnum(rng, index)
    y1 = ref_qnum(rng, index)
    return Rect(x1, x1 + ref_positive_side(rng, index), y1, y1 + ref_positive_side(rng, index))


def ref_split_params(rng, r):
    axis = rng.choice(["vertical", "horizontal"])
    t = Fraction(rng.randint(1, 15), 16)
    if axis == "vertical":
        c = r.x1 + r.width * QNum(t)
    else:
        c = r.y1 + r.height * QNum(t)
    return axis, c


def ref_table_function(rng, points):
    return corner_difference(Table({p: ref_qnum(rng) for p in points}))


# -- comparison ----------------------------------------------------------------


def triple(q):
    return q._A, q._B, q._D


def split_case(seed, index):
    """A rectangle and the corner points of it and of one split of it, drawn
    from a generator of their own so both sides of a comparison see them."""
    rng = random.Random(10_000 + seed)
    r = ref_rect(rng, index)
    return r, list(_rect_corner_points([r, *split(r, *ref_split_params(rng, r))]))


def split_triples(split_params):
    axis, c = split_params
    return axis, triple(c)


def table_triples(F):
    return tuple((triple(x), triple(y), triple(v)) for (x, y), v in F.point_fn._entries.items())


# name: (new draw, reference draw), each called as draw(rng, index, r, points)
# and returning what the draw decides as plain tuples
DRAWS = {
    "rand_qnum": (
        lambda rng, i, r, pts: triple(rand_qnum(rng, i)),
        lambda rng, i, r, pts: triple(ref_qnum(rng, i)),
    ),
    "rand_positive_side": (
        lambda rng, i, r, pts: triple(rand_positive_side(rng, i)),
        lambda rng, i, r, pts: triple(ref_positive_side(rng, i)),
    ),
    "rand_rect": (
        lambda rng, i, r, pts: tuple(map(triple, rand_rect(rng, i))),
        lambda rng, i, r, pts: tuple(map(triple, ref_rect(rng, i))),
    ),
    "rand_split_params": (
        lambda rng, i, r, pts: split_triples(rand_split_params(rng, r)),
        lambda rng, i, r, pts: split_triples(ref_split_params(rng, r)),
    ),
    "rand_table_function": (
        lambda rng, i, r, pts: table_triples(rand_table_function(rng, pts)),
        lambda rng, i, r, pts: table_triples(ref_table_function(rng, pts)),
    ),
}
USES_SPLIT = {"rand_split_params", "rand_table_function"}


@pytest.mark.parametrize("name", list(DRAWS))
def test_generator_draws_the_same_cases_as_the_fraction_reference(name):
    new, ref = DRAWS[name]
    for seed in SEEDS:
        new_rng, ref_rng = random.Random(seed), random.Random(seed)
        for index in INDICES:
            r, points = split_case(seed, index) if name in USES_SPLIT else (None, None)
            assert new(new_rng, index, r, points) == ref(ref_rng, index, r, points), (seed, index)
            assert new_rng.getstate() == ref_rng.getstate(), (seed, index)


# -- the integer draw ------------------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 3, 13, 16, 2**16 + 1])
def test_randint_draws_the_stdlib_words(width):
    # 500 draws on each seed, over a range that starts below zero on odd
    # seeds, and one two-way pick after each, against randint and choice;
    # equal states at the end mean the same words were consumed
    two = ("left", "right")
    for seed in range(200):
        lo = -(width // 2) if seed % 2 else 1
        hi = lo + width - 1
        new_rng, ref_rng = random.Random(seed), random.Random(seed)
        for i in range(500):
            assert _randint(new_rng, lo, hi) == ref_rng.randint(lo, hi), (seed, i)
            assert two[_randint(new_rng, 0, 1)] == ref_rng.choice(two), (seed, i)
        assert new_rng.getstate() == ref_rng.getstate(), seed
