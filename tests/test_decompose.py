import math
import random
import sys
from fractions import Fraction
from itertools import islice

import pytest

from rectadd import numeric
from rectadd.decompose import (
    Decomposition,
    HalvingCheck,
    Step,
    continued_fraction_counts,
    decompose,
    greedy_step,
    telescope,
    verify_halving,
)
from rectadd.geometry import Rect, parse_rect
from rectadd.numeric import ONE, QNum, SQRT2, ZERO, from_numerators, numerators, qnum
from rectadd.rectfn import (
    COUNTEREXAMPLE,
    Constant,
    PRODUCT,
    PointFunction,
    Table,
    corner_difference,
)
from rectadd.suites import (
    _decomposition_cases,
    _rect_corner_points,
    rand_rect,
    rand_table_function,
)

from field_counter import count_builds, count_calls, count_field_calls
from greedy_oracle import alone, field_decompose, field_row, scan_halving, squares_by_step, step_edges

F = Fraction

CE = corner_difference(COUNTEREXAMPLE)
PROD = corner_difference(PRODUCT)

EIGHT_FIVE = Rect(QNum(0), QNum(8), QNum(0), QNum(5))
UNIT = Rect(ZERO, ONE, ZERO, ONE)
SILVER = Rect(ZERO, ONE + SQRT2, ZERO, ONE)
WITNESS = Rect(ZERO, ONE, ONE, SQRT2)


def test_greedy_step_eight_by_five():
    step, rem = greedy_step(EIGHT_FIVE)
    assert step.count == 1
    assert Decomposition(EIGHT_FIVE, (step,), rem).all_squares() == [Rect(QNum(0), QNum(5), QNum(0), QNum(5))]
    assert rem == Rect(QNum(5), QNum(8), QNum(0), QNum(5))  # 3 x 5 strip


def test_greedy_step_square_is_itself():
    step, rem = greedy_step(UNIT)
    assert step.count == 1
    assert Decomposition(UNIT, (step,), rem).all_squares() == [UNIT]
    assert rem is None


def test_greedy_step_silver():
    step, rem = greedy_step(SILVER)
    assert step.count == 2  # floor(1 + sqrt2) = 2
    assert Decomposition(SILVER, (step,), rem).all_squares() == [
        Rect(QNum(0), QNum(1), QNum(0), QNum(1)),
        Rect(QNum(1), QNum(2), QNum(0), QNum(1)),
    ]
    assert rem is not None
    assert rem.width == SQRT2 - 1
    assert rem.height == ONE


def test_greedy_step_vertical_packing():
    # 1 wide, 2 high: squares stack bottom-up, exact fit
    tall = Rect(ZERO, ONE, ZERO, QNum(2))
    step, rem = greedy_step(tall)
    assert step.count == 2
    assert rem is None
    assert Decomposition(tall, (step,), rem).all_squares()[0] == UNIT


def test_decompose_eight_by_five():
    d = decompose(EIGHT_FIVE, 20)
    assert d.terminated
    assert d.remainder is None
    assert [s.count for s in d.steps] == [1, 1, 1, 2]
    assert list(d.sides) == [QNum(8), QNum(5), QNum(3), QNum(2), QNum(1)]
    assert [s.side for s in d.steps] == [QNum(5), QNum(3), QNum(2), QNum(1)]
    assert d.total_squares == 5
    total = sum((sq.area() for sq in d.all_squares()), ZERO)
    assert total == EIGHT_FIVE.area()


def test_decompose_two_by_one():
    d = decompose(Rect(QNum(0), QNum(2), QNum(0), QNum(1)), 20)
    assert len(d.steps) == 1
    assert d.steps[0].count == 2
    assert d.terminated


def test_decompose_silver_trace():
    d = decompose(SILVER, 6)
    assert not d.terminated
    assert d.remainder is not None
    assert d.counts == [2] * 6
    silver_unit = SQRT2 - 1
    for j in range(1, len(d.sides)):
        assert d.sides[j] == silver_unit ** (j - 1)
    assert d.sides[0] == ONE + SQRT2


def test_decompose_respects_max_steps():
    d = decompose(SILVER, 3)
    assert len(d.steps) == 3 and not d.terminated
    with pytest.raises(ValueError):
        decompose(SILVER, 0)


def test_verify_halving_eight_five():
    d = decompose(EIGHT_FIVE, 20)
    cert = verify_halving(d)
    assert cert.ok and cert.failure is None
    # the halving comparisons that passed: 3 <= 8/2, 2 <= 5/2, 1 <= 3/2
    halves = [(d.sides[n + 2], d.sides[n] / 2) for n in range(3)]
    assert halves == [(3, 4), (2, F(5, 2)), (1, F(3, 2))]


def test_verify_halving_silver_ratio():
    d = decompose(SILVER, 8)
    cert = verify_halving(d)
    assert cert.ok
    ratio = QNum(3, -2)  # (sqrt2 - 1)^2
    for n in range(len(d.sides) - 2):
        assert d.sides[n + 2] / d.sides[n] == ratio
    assert (ratio - QNum(F(1, 2))).sign() == -1  # strictly below 1/2


def test_verify_halving_vacuous_for_squares():
    d = decompose(UNIT, 5)
    assert len(d.sides) == 2  # one monotone comparison, no halving one
    cert = verify_halving(d)
    assert cert.ok and cert.failure is None


def _trace(*sides) -> Decomposition:
    """A hand-built decomposition whose side trace is `sides` (ints or
    QNums): the original rectangle's longer side is sides[0], and each later
    side is one step."""
    sides = [qnum(s) for s in sides]
    original = Rect(ZERO, sides[0], ZERO, min(sides[0], sides[1]))
    steps = tuple(Step(ZERO, ZERO, s, 1, along_x=True) for s in sides[1:])
    return Decomposition(original, steps, remainder=None)


def test_verify_halving_names_the_first_failing_comparison(monkeypatch):
    d = _trace(4, 3, 3, 2)
    assert d.sides == (4, 3, 3, 2)
    # a hand-built decomposition derives its frame, with one `numerators`
    # call, on the first read only
    assert d._frame is None
    calls = count_calls(monkeypatch, numerators)
    # monotone throughout; 3 <= 4/2 fails first, then 2 <= 3/2 would
    assert verify_halving(d).failure == HalvingCheck(0, "halving", QNum(3), QNum(2))
    assert not verify_halving(d).ok
    assert len(calls) == 1
    monkeypatch.undo()
    # x1, x2, y1, y2, the original's own corner in the remainder's place,
    # then each step's x, y and side
    assert d.frame == ([0, 4, 0, 3, 0, 0, 0, 0, 3, 0, 0, 3, 0, 0, 2], [0] * 15, 1)
    # packed along y first, the longer side is the original's height
    tall = Decomposition(
        Rect(ZERO, QNum(3), ZERO, QNum(4)),
        tuple(Step(ZERO, ZERO, QNum(s), 1, along_x=False) for s in (3, 3, 2)),
        remainder=None,
    )
    assert tall.sides == (4, 3, 3, 2)
    assert verify_halving(tall).failure == HalvingCheck(0, "halving", QNum(3), QNum(2))
    assert verify_halving(Decomposition(tall.original, tall.steps[:2], None)).failure is not None
    assert verify_halving(Decomposition(tall.original, tall.steps[:1], None)).ok
    # monotone fails at 5 > 3 (index 2); halving fails earlier in index,
    # at 3 > 4/2, but every monotone comparison is checked first
    cert = verify_halving(_trace(4, 3, 3, 5))
    assert not cert.ok
    bad = cert.failure
    assert (bad.kind, bad.index, bad.lhs, bad.rhs) == ("monotone", 2, 5, 3)
    bad = verify_halving(_trace(8, 5, 6)).failure
    assert (bad.kind, bad.index, bad.lhs, bad.rhs) == ("monotone", 1, 6, 5)


def test_verify_halving_at_the_halving_boundary():
    # sides[2] == sides[0]/2 exactly passes, over denominators 21, 6, 42
    s0 = QNum(F(10, 3), F(2, 7))
    s1 = QNum(F(5, 2), F(1, 6))
    half = QNum(F(5, 3), F(1, 7))
    assert s0 / 2 == half and s0 > s1 > half
    assert verify_halving(_trace(s0, s1, half)).ok
    # an irrational excess of sqrt2/1000 fails, and names the exact values
    over = half + QNum(0, F(1, 1000))
    assert s1 > over
    assert verify_halving(_trace(s0, s1, over)).failure == HalvingCheck(0, "halving", over, half)
    # and as much below passes
    assert verify_halving(_trace(s0, s1, half - QNum(0, F(1, 1000)))).ok
    # a side equal to the one before is monotone; one above it by an
    # irrational amount is not
    assert verify_halving(_trace(s0, s0)).ok
    bigger = s0 + QNum(0, F(1, 10**9))
    assert verify_halving(_trace(s0, bigger)).failure == HalvingCheck(0, "monotone", bigger, s0)


def test_verify_halving_builds_no_check_on_a_passing_trace(monkeypatch):
    made = []

    def counting_check(*args):
        made.append(args)
        return HalvingCheck(*args)

    # `rectadd.decompose` the attribute is the function; patch the module
    monkeypatch.setattr(sys.modules["rectadd.decompose"], "HalvingCheck", counting_check)
    d = decompose(SILVER, 200)
    assert verify_halving(d).ok and verify_halving(Decomposition(*d)).ok
    assert made == []
    assert not verify_halving(_trace(4, 3, 3)).ok
    assert len(made) == 1


def test_telescope_product_is_area():
    d = decompose(EIGHT_FIVE, 20)
    assert telescope(PROD, d) == QNum(40)


def test_telescope_counterexample_witness():
    d = decompose(WITNESS, 10)
    assert not d.terminated  # ratio 1/(sqrt2-1) is irrational
    assert telescope(CE, d) == -1
    assert CE.value(WITNESS) == -1


def test_telescope_constant_zero():
    zero_fn = corner_difference(Constant(QNum(13)))
    d = decompose(EIGHT_FIVE, 20)
    assert telescope(zero_fn, d) == 0


def test_telescope_random_tables():
    rng = random.Random(401)
    for i in range(60):
        r = rand_rect(rng, i)
        d = decompose(r, rng.randint(1, 20))
        tiles = d.all_squares() + ([d.remainder] if d.remainder else [])
        Ft = rand_table_function(rng, _rect_corner_points(tiles + [r]))
        assert telescope(Ft, d) == Ft.value(r)


def test_continued_fraction_examples():
    assert continued_fraction_counts(EIGHT_FIVE, 20) == [1, 1, 1, 2]
    assert continued_fraction_counts(SILVER, 5) == [2] * 5
    assert continued_fraction_counts(Rect(QNum(0), QNum(2), QNum(0), QNum(1)), 9) == [2]
    assert continued_fraction_counts(UNIT, 4) == [1]


def test_counts_match_continued_fraction_small_grid():
    for p in range(2, 26):
        for q in range(1, p):
            r = Rect(QNum(0), QNum(p), QNum(0), QNum(q))
            d = decompose(r, 100)
            assert d.terminated
            assert d.counts == continued_fraction_counts(r, 100)


def test_counts_match_continued_fraction_irrational():
    rng = random.Random(402)
    for i in range(40):
        r = rand_rect(rng, i)
        steps = rng.randint(1, 12)
        d = decompose(r, steps)
        cf = continued_fraction_counts(r, steps)
        assert d.counts == cf[: len(d.counts)]


def test_tiling_and_monotone_trace_property():
    rng = random.Random(403)
    for i in range(120):
        r = rand_rect(rng, i)
        d = decompose(r, rng.randint(1, 24))
        total = sum((sq.area() for sq in d.all_squares()), ZERO)
        if d.remainder is not None:
            total = total + d.remainder.area()
        assert total == r.area()
        # strict decrease from index 1 on
        for n in range(1, len(d.sides) - 1):
            assert d.sides[n + 1] < d.sides[n]
        assert d.sides[1] <= d.sides[0]


def test_geometric_decay_bound():
    rng = random.Random(404)
    for i in range(80):
        r = rand_rect(rng, i)
        d = decompose(r, rng.randint(2, 30))
        for n in range(1, len(d.sides)):
            bound = d.sides[1] * QNum(F(1, 2 ** ((n - 1) // 2)))
            assert d.sides[n] <= bound


def test_remainder_diameter_vs_trace():
    # remainder after truncation has longer side = last trace entry
    for r, steps in [(SILVER, 7), (WITNESS, 9)]:
        d = decompose(r, steps)
        assert d.remainder is not None
        last = d.sides[-1]
        assert d.remainder.diameter_sq() <= last * last * 2
        assert max(d.remainder.width, d.remainder.height) == last


def test_square_counts_per_step_consistent():
    # the far corner never moves: every square's far side across the
    # packing axis is the original's y2 (along x) or x2, the object itself,
    # and equals the step's lo + side in the field
    rng = random.Random(405)
    for i in range(60):
        d = decompose(rand_rect(rng, i), rng.randint(1, 16))
        squares = iter(d.all_squares())
        for step in d.steps:
            far = d.original.y2 if step.along_x else d.original.x2
            assert (step.y if step.along_x else step.x) + step.side == far
            mine = list(islice(squares, step.count))
            assert step.count == len(mine) >= 1
            for sq in mine:
                assert sq.width == sq.height == step.side
                assert (sq.y2 if step.along_x else sq.x2) is far
        assert next(squares, None) is None


def _transpose(r):
    return Rect(r.y1, r.y2, r.x1, r.x2)


def test_shared_corner_telescope_matches_per_tile_values():
    # Distinct random values at every corner, so a swapped or mis-paired
    # corner in the row sum changes the total.
    rng = random.Random(407)
    for r0, d0 in islice(_decomposition_cases(random.Random(17)), 40):
        for r in (r0, _transpose(r0)):
            d = decompose(r, len(d0.steps))
            assert d.counts == d0.counts
            tiles = d.all_squares() + ([d.remainder] if d.remainder is not None else [])
            pts = sorted(_rect_corner_points(tiles))
            values = {}  # distinct, in draw order
            while len(values) < len(pts):
                a = F(rng.randint(-10**6, 10**6), rng.randint(1, 97))
                b = F(rng.randint(-10**6, 10**6), rng.randint(1, 97))
                values[QNum(a, b)] = None
            Ft = corner_difference(Table(dict(zip(pts, values))))
            per_tile = sum((Ft.value(sq) for sq in tiles), ZERO)
            assert telescope(Ft, d) == per_tile == Ft.value(r)


def _rand_coordinate(rng):
    # a rational part and a sqrt2 part over unrelated denominators, either sign
    return QNum(F(rng.randint(-200, 200), rng.randint(1, 30)), F(rng.randint(-9, 9), rng.randint(1, 12)))


def _rand_side(rng):
    while True:
        side = _rand_coordinate(rng)
        if side > 0:
            return side


def _triples(values):
    return [(v._A, v._B, v._D) for v in values]


def test_edges_match_repeated_field_addition():
    # each step tiles its own row alone, over a frame of its own
    rng = random.Random(431)
    mixed = 0
    for i in range(300):
        start, side = _rand_coordinate(rng), _rand_side(rng)
        count = 1 if i % 5 == 0 else rng.randint(2, 40)
        for along_x in (True, False):
            x, y = (start, ZERO) if along_x else (ZERO, start)
            expected = [start]
            for _ in range(count):
                expected.append(expected[-1] + side)
            step = Step(x, y, side, count, along_x)
            assert _triples(step_edges(step, alone(step).all_squares())) == _triples(expected)
        mixed += start._D % side._D != 0 and side._D % start._D != 0
    assert mixed > 100  # most cases add over a denominator neither value has


@pytest.mark.parametrize(
    "r, max_steps",
    [
        # a horizontal rational strip of 1009 + 2 squares
        (Rect(QNum(F(-5, 2)), QNum(334), QNum(F(1, 4)), QNum(F(7, 12))), 20),
        # a vertical strip in Q(sqrt2) of about 1000 squares, truncated
        (Rect(QNum(F(1, 3)), QNum(F(1, 3), F(1, 2)), QNum(F(-7, 4)), QNum(F(2793, 4))), 6),
    ],
)
def test_telescope_field_operations_grow_with_steps(monkeypatch, r, max_steps):
    d = decompose(r, max_steps)
    assert d.total_squares > 1000 > 40 * len(d.steps)
    # a table over every corner goes through `value`, not an integer kernel
    tiles = d.all_squares() + ([d.remainder] if d.remainder is not None else [])
    table = rand_table_function(random.Random(459), _rect_corner_points(tiles + [r]))
    for F_ in (CE, PROD, table):
        calls = count_field_calls(monkeypatch, "__add__", "__sub__", "__mul__")
        total = telescope(F_, d)
        # every row, the remainder's among them, joins an integer sum: no
        # field operation per square, per step or for the remainder
        assert calls == []
        monkeypatch.undo()
        assert total == F_.value(r)


@pytest.mark.parametrize(
    "r, max_steps",
    [
        # 100,000 unit squares and 3 of side 1/3: terminated in 2 steps
        (Rect(ZERO, QNum(100_000 + F(1, 3)), ZERO, ONE), 5),
        # 200,000 squares of side sqrt2 along y, then 3 more steps, truncated
        (Rect(QNum(F(-1, 2)), QNum(F(-1, 2), F(1)), ZERO, QNum(282_843)), 4),
    ],
)
def test_telescope_cost_does_not_grow_with_the_packing_count(monkeypatch, r, max_steps):
    d = decompose(r, max_steps)
    assert d.total_squares >= 100_000 and len(d.steps) <= 4
    assert d.terminated == (max_steps == 5)
    widths = []

    class RecordingProduct(type(PRODUCT)):
        def rect_kernel(self, As, Bs, L):
            widths.append((len(As), len(Bs)))
            return super().rect_kernel(As, Bs, L)

    # a table over the rectangle's, the rows' and the remainder's
    # corners, each row's corners built by field arithmetic on the step
    tiles = [r, *map(field_row, d.steps)] + ([d.remainder] if d.remainder is not None else [])
    table = rand_table_function(random.Random(463), _rect_corner_points(tiles))

    def refuse(*args):
        raise AssertionError("the telescope enumerated a step's squares")

    monkeypatch.setattr(Decomposition, "all_squares", refuse)
    for F_ in (PROD, CE, table, corner_difference(RecordingProduct())):
        assert telescope(F_, d) == F_.value(r)
    # one kernel call a step, and one for the remainder's row
    assert widths == [(4, 4)] * (len(d.steps) + (d.remainder is not None))


def test_squares_share_the_step_edges():
    # the squares of a step read its edges, built once for them, and its far
    # side: the first starts at the step's own corner, neighbours share the
    # edge between them, and every square shares one far side, lo + side;
    # the edges equal those of the step tiled alone
    d = decompose(Rect(QNum(F(1, 3)), QNum(F(1, 3), F(1, 2)), QNum(F(-7, 4)), QNum(40)), 6)
    for step, squares in zip(d.steps, squares_by_step(d)):
        e = step_edges(step, alone(step).all_squares())
        assert e[0] is (step.x if step.along_x else step.y)
        assert len(squares) == step.count
        far = squares[0].y2 if step.along_x else squares[0].x2
        assert far == (step.y if step.along_x else step.x) + step.side
        previous = e[0]
        for k, sq in enumerate(squares):
            along, across = ((sq.x1, sq.x2), sq.y2) if step.along_x else ((sq.y1, sq.y2), sq.x2)
            assert along[0] is previous and along == (e[k], e[k + 1]) and across is far
            previous = along[1]


def test_telescope_looks_up_the_row_corners_only():
    # a point function without an integer kernel is evaluated at the first
    # and far edges crossed with lo and hi: 4 lookups a step, whatever the
    # count, and the remainder's 4 corners
    d = decompose(Rect(QNum(F(1, 3)), QNum(F(1, 3), F(1, 2)), QNum(F(-7, 4)), QNum(40)), 6)
    assert max(d.counts) > 50 and d.remainder is not None
    seen = []

    class Recording(Table):
        def value(self, x, y):
            seen.append((x, y))
            return super().value(x, y)

    rng = random.Random(461)
    tiles = d.all_squares() + [d.remainder]
    corners = {p: QNum(F(rng.randint(-99, 99), rng.randint(1, 9))) for sq in tiles for p in sq.corners()}
    Ft = corner_difference(Recording(corners))
    total = telescope(Ft, d)
    looked_up = list(seen)
    assert len(looked_up) == 4 * len(d.steps) + 4
    for i, squares in enumerate(squares_by_step(d)):
        # the row's corners: its first square's lower-left, its last's upper-right
        first, last = squares[0], squares[-1]
        assert set(looked_up[4 * i : 4 * i + 4]) == set(Rect(first.x1, last.x2, first.y1, last.y2).corners())
    assert set(looked_up[-4:]) == set(d.remainder.corners())
    assert total == sum((Ft.value(sq) for sq in tiles), ZERO)


def test_telescope_of_a_table_builds_one_qnum_over_the_values_lcm(monkeypatch):
    # the value path reads each row's corners, the remainder's among them,
    # from QNums the decomposition holds, and the rows add up as integers
    # over the lcm of their denominators: one QNum for the whole telescope
    truncated = decompose(Rect(QNum(F(1, 3)), QNum(F(1, 3), F(1, 2)), QNum(F(-7, 4)), QNum(40)), 6)
    terminated = decompose(Rect(QNum(F(-5, 2)), QNum(334), QNum(F(1, 4)), QNum(F(7, 12))), 20)
    assert truncated.remainder is not None and terminated.terminated
    rng = random.Random(479)
    for d in (truncated, terminated):
        tiles = d.all_squares() + ([d.remainder] if d.remainder is not None else [])
        corners = {p: QNum(F(rng.randint(-99, 99), rng.randint(1, 9))) for sq in tiles for p in sq.corners()}
        Ft = corner_difference(Table(corners))
        built = count_builds(monkeypatch)
        total = telescope(Ft, d)
        assert len(built) == 1
        monkeypatch.undo()
        assert total == sum((Ft.value(sq) for sq in tiles), ZERO) == Ft.value(d.original)
        # the denominator of the rows' sum divides the lcm of the values'
        handed = []

        def recording(A, B, D):
            handed.append(D)
            return from_numerators(A, B, D)

        monkeypatch.setattr(sys.modules["rectadd.decompose"], "from_numerators", recording)
        telescope(Ft, d)
        monkeypatch.undo()
        assert len(handed) == 1
        assert math.lcm(*[v._D for v in corners.values()]) % handed[0] == 0


def test_squares_are_valid_rects_built_unchecked():
    rng = random.Random(451)
    along_y = 0
    for i in range(300):
        d = decompose(rand_rect(rng, i), rng.randint(1, 30))
        along_y += sum(not s.along_x for s in d.steps)
        for sq in d.all_squares():
            assert type(sq) is Rect and sq == Rect(*sq)
            assert sq.x1 < sq.x2 and sq.y1 < sq.y2
    assert along_y > 300


@pytest.mark.parametrize("side", [ZERO, QNum(-1), ONE - SQRT2])
def test_squares_of_a_degenerate_step_are_refused(side):
    # the side is checked before the far side, which it misses too
    for along_x in (True, False):
        step = Step(QNum(F(1, 3)), SQRT2, side, 3, along_x)
        with pytest.raises(ValueError, match="degenerate step"):
            Decomposition(UNIT, (step,), None).all_squares()
        # the same check after a step that misses its far edge, the
        # degenerate step's corner: a far edge is checked last
        d = Decomposition(UNIT, (Step(ZERO, ZERO, ONE, 1, True), step), None)
        with pytest.raises(ValueError, match="degenerate step"):
            d.all_squares()


def test_squares_of_a_step_off_the_far_side_are_refused():
    # lo + side must reach the original's y2 (packing along x) or x2: the
    # far corner never moves; Rect refuses [0,1]x[5,1] as degenerate
    for step in (Step(ZERO, QNum(5), ONE, 1, True), Step(QNum(5), ZERO, ONE, 1, False)):
        d = Decomposition(UNIT, (step,), None)
        with pytest.raises(ValueError, match="far side"):
            d.all_squares()
    # after a step that holds, a second one short of it by sqrt2/3; alone,
    # the first is refused too, short of its far edge, the original's x2
    r = Rect(ZERO, QNum(3), ZERO, QNum(2))
    ok, short = Step(ZERO, ZERO, QNum(2), 1, True), Step(QNum(2), ZERO, ONE - QNum(0, F(1, 3)), 1, False)
    assert len(Decomposition(r, (ok, Step(QNum(2), ZERO, ONE, 2, False)), None).all_squares()) == 3
    with pytest.raises(ValueError, match="far edge: corner \\+ count\\*side 2, not 3"):
        Decomposition(r, (ok,), None).all_squares()
    with pytest.raises(ValueError, match="far side"):
        Decomposition(r, (ok, short), None).all_squares()
    # the frame and rows of such a decomposition are read, unchecked: the
    # short step's row reaches the original's x2 and, the packing being
    # exact, its y2, as `telescope` reads them on its value path
    assert Decomposition(r, (ok, short), None).rows()[1] == ([6, 9, 0, 6], [0, 0, 0, 0], 3)


class _ValueOnlyProduct(PointFunction):
    """x*y through `value` alone, so `telescope` takes its value path."""

    def value(self, x, y):
        return x * y


def test_telescope_paths_agree_on_a_hand_built_decomposition():
    # a step off the far side, a step short of the next one's corner, a
    # step short of the remainder's and a remainder past the original's far
    # corner: both paths read the rows `Decomposition._corners` gives, so
    # both give one value
    value_only = corner_difference(_ValueOnlyProduct())
    cases = [
        (UNIT, (Step(ZERO, QNum(5), ONE, 1, True),), None, -4),
        (UNIT, (Step(QNum(5), ZERO, ONE, 1, False),), None, -4),
        (Rect(ZERO, QNum(3), ZERO, ONE), (Step(ZERO, ZERO, ONE, 1, True), Step(QNum(2), ZERO, ONE, 1, True)), None, 3),
        (Rect(ZERO, QNum(5), ZERO, ONE), (Step(ZERO, ZERO, ONE, 2, True),), Rect(QNum(3), QNum(5), ZERO, ONE), 5),
        (Rect(ZERO, QNum(2), ZERO, ONE), (Step(ZERO, ZERO, ONE, 1, True),), Rect(ONE, QNum(3), ZERO, ONE), 2),
    ]
    for r, steps, remainder, expected in cases:
        d = Decomposition(r, steps, remainder)
        assert telescope(PROD, d) == telescope(value_only, d) == expected


def test_perturbed_decompositions_agree_or_are_refused():
    # a decomposition moved off its tiling by its remainder's far corner,
    # one step's count or one step's corner: both telescope paths still
    # read one set of rows, and the squares either fill the step rows or
    # are refused
    value_only = corner_difference(_ValueOnlyProduct())
    kinds = {"remainder": 0, "count": 0, "corner": 0}
    refused = 0
    for seed in (497, 499):
        rng = random.Random(seed)
        for i in range(60):
            d = decompose(rand_rect(rng, i), rng.randint(1, 12))
            steps, rem = list(d.steps), d.remainder
            k = rng.randrange(len(steps))
            s = steps[k]
            kind = rng.choice(["remainder", "count", "corner"] if rem is not None else ["count", "corner"])
            if kind == "remainder":
                dx, dy = (QNum(F(rng.randint(0, 9), rng.randint(1, 5)), F(rng.randint(1, 2), 3)) for _ in "xy")
                rem = Rect(rem.x1, rem.x2 + dx, rem.y1, rem.y2 + dy)
            elif kind == "count":
                steps[k] = s._replace(count=s.count + rng.choice((-1, 1)))
            else:
                delta = QNum(F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)), F(rng.randint(-2, 2), 3))
                steps[k] = s._replace(x=s.x + delta) if rng.random() < 0.5 else s._replace(y=s.y + delta)
            kinds[kind] += 1
            hand = Decomposition(d.original, tuple(steps), rem)
            assert telescope(PROD, hand) == telescope(value_only, hand)
            try:
                squares = hand.all_squares()
            except ValueError:
                refused += 1
                continue
            rows = hand.rows()[: len(steps)]
            assert sum((sq.area() for sq in squares), ZERO) == sum(
                (from_numerators(*PRODUCT.rect_kernel(*row)) for row in rows), ZERO
            )
    assert min(kinds.values()) > 20 and refused == kinds["count"] + kinds["corner"]


@pytest.mark.parametrize(
    "r, max_steps",
    # a strip of 1009 + 2 squares, and silver's two squares a step
    [(Rect(QNum(F(-5, 2)), QNum(334), QNum(F(1, 4)), QNum(F(7, 12))), 20), (SILVER, 200)],
)
def test_squares_make_one_comparison_at_most_per_step(monkeypatch, r, max_steps):
    d = decompose(r, max_steps)
    calls = count_field_calls(monkeypatch, "__lt__", "__le__", "__gt__", "__ge__", "__eq__")
    squares = d.all_squares()
    assert len(calls) <= len(d.steps)
    monkeypatch.undo()
    assert len(squares) == d.total_squares


def _value_hash(q):
    # the documented numeric hash: a rational value hashes like its
    # Fraction, any other like its reduced triple (A, B, D)
    return hash((q._A, q._B, q._D)) if q._B else hash(q.a)


def test_step_edges_carry_their_hash():
    # each edge built hashes as its value, on first use
    rng = random.Random(453)
    rational = irrational = 0
    for i in range(300):
        d = decompose(rand_rect(rng, i), rng.randint(1, 30))
        for step, squares in zip(d.steps, squares_by_step(d)):
            for e in step_edges(step, squares)[1:]:
                assert hash(e) == _value_hash(e)
                rational += e.is_rational()
                irrational += not e.is_rational()
    assert rational > 400 and irrational > 400


def test_step_edges_over_the_hash_modulus_hash_on_demand():
    # no inverse of L exists when the hash modulus divides it: every edge,
    # rational or not, still hashes as its value
    m = sys.hash_info.modulus
    for side in (QNum(F(1, m)), QNum(F(2, m), F(1, 3)), QNum(F(1, 2 * m), F(1, 3 * m))):
        d = alone(Step(ZERO, QNum(F(1, 5)), side, 6, True))
        _, _, L = d.frame
        assert L % m == 0
        edges = [sq.x2 for sq in d.all_squares()]
        assert [hash(e) for e in edges] == [_value_hash(e) for e in edges]


def _by_hand(d):
    # the same decomposition built by hand: new Steps, and a frame derived
    # by one `numerators` call
    return Decomposition(d.original, tuple(Step(*s) for s in d.steps), d.remainder)


def _assert_all_squares_match_the_steps(d):
    """d.all_squares() against the squares each step builds on its own, and
    the sharing and hashes it promises; returns the squares' triples."""
    r = d.original
    squares = d.all_squares()
    assert all(type(sq) is Rect for sq in squares)
    k = 0
    for s in d.steps:
        first, lo, far = (s.x, s.y, r.y2) if s.along_x else (s.y, s.x, r.x2)
        built = []
        previous = first
        for sq in squares[k : k + s.count]:
            along, near, across = ((sq.x1, sq.x2), sq.y1, sq.y2) if s.along_x else ((sq.y1, sq.y2), sq.x1, sq.x2)
            # neighbours share the edge between them, and every square the
            # step's own lo and the original's far side, which `telescope`
            # reads too
            assert along[0] is previous and near is lo and across is far
            previous = along[1]
            built.append(previous)
        k += s.count
        assert all(hash(v) == _value_hash(v) for v in (*built, s.x, s.y))
    assert k == len(squares) == d.total_squares
    triples = [_triples(sq) for sq in squares]
    # each step alone, over a frame of its own
    assert triples == [_triples(sq) for s in d.steps for sq in alone(s).all_squares()]
    return triples


def test_all_squares_match_the_per_step_squares():
    rng = random.Random(493)
    along_y = truncated = 0
    for i in range(300):
        d = decompose(rand_rect(rng, i), rng.randint(1, 30))
        hand = _by_hand(d)
        assert hand._frame is None and hand.frame[2] % sys.hash_info.modulus
        assert _assert_all_squares_match_the_steps(hand) == _assert_all_squares_match_the_steps(d)
        along_y += not d.steps[0].along_x
        truncated += not d.terminated
    assert along_y > 50 and truncated > 50


def test_all_squares_over_the_hash_modulus_hash_on_demand():
    # a frame whose L the hash modulus divides, which has no inverse modulo
    # it: every edge still hashes as its value
    m = sys.hash_info.modulus
    for x1, y1 in ((QNum(F(1, m)), ZERO), (QNum(F(-3, 2 * m), F(1, 5)), QNum(F(1, 3), F(-1, m)))):
        for r in (Rect(x1, x1 + ONE + SQRT2, y1, y1 + ONE), Rect(y1, y1 + ONE, x1, x1 + 3 * SQRT2)):
            d = decompose(r, 8)
            hand = _by_hand(d)
            assert d.frame[2] % m == 0 and hand.frame[2] % m == 0
            assert max(d.counts) > 1 and {s.along_x for s in d.steps} == {True, False}
            expected = _assert_all_squares_match_the_steps(d)
            assert _assert_all_squares_match_the_steps(hand) == expected


FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__truediv__",
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
)


@pytest.mark.parametrize(
    "r, max_steps",
    [
        # a strip of 1009 + 2 squares, silver's two squares a step, and a
        # tall rectangle of unrelated denominators that packs along y first
        (Rect(QNum(F(-5, 2)), QNum(334), QNum(F(1, 4)), QNum(F(7, 12))), 20),
        (SILVER, 200),
        (Rect(QNum(F(1, 3)), QNum(F(1, 3), F(1, 2)), QNum(F(-7, 4)), QNum(40)), 6),
    ],
)
def test_all_squares_read_the_frame(monkeypatch, r, max_steps):
    # the frame `decompose` kept holds every step's corner and side, so the
    # squares take no `numerators` call and no field operation, and build
    # one QNum a square, its far edge: the far side is the original's
    d = decompose(r, max_steps)
    assert d.steps[0].along_x == (r.width >= r.height)
    calls = count_calls(monkeypatch, numerators)
    ops = count_field_calls(monkeypatch, *FIELD_OPS)
    built = count_builds(monkeypatch)
    squares = d.all_squares()
    assert calls == [] and ops == []
    assert len(built) == d.total_squares
    monkeypatch.undo()
    assert len(squares) == d.total_squares


def _step_triples(step):
    return (*_triples((step.x, step.y, step.side)), step.count, step.along_x)


def _rect_triples(r):
    return None if r is None else _triples((r.x1, r.x2, r.y1, r.y2))


def _assert_matches_field_loop(r, max_steps):
    d = decompose(r, max_steps)
    steps, remainder = field_decompose(r, max_steps)
    assert [_step_triples(s) for s in d.steps] == [_step_triples(s) for s in steps]
    assert _rect_triples(d.remainder) == _rect_triples(remainder)
    step, rem = greedy_step(r)
    assert _step_triples(step) == _step_triples(d.steps[0])
    assert _rect_triples(rem) == _rect_triples(decompose(r, 1).remainder)
    return d


def test_decompose_matches_field_loop_on_random_rectangles():
    rng = random.Random(441)
    along_y = truncated = 0
    for i in range(600):
        d = _assert_matches_field_loop(rand_rect(rng, i), rng.randint(1, 40))
        along_y += not d.steps[0].along_x
        truncated += not d.terminated
    assert along_y > 100 and truncated > 100


@pytest.mark.parametrize(
    "rect, max_steps",
    [
        ("[0,1]x[0,1]", 5),
        ("[0,8]x[0,5]", 20),
        (f"[0,{10**400}]x[0,1]", 3),
        ("[-7/3,-1/5]x[-9-1/2*sqrt2,-2]", 40),
        ("[1/3,1/3+1/2*sqrt2]x[-7/4,40]", 30),
        # tall: the first step packs along y
        ("[-5,-4]x[15/2,17/2+2*sqrt2]", 200),
        ("[0,1+1*sqrt2]x[0,1]", 1000),
    ],
)
def test_decompose_matches_field_loop_on_edge_cases(rect, max_steps):
    r = parse_rect(rect)
    d = _assert_matches_field_loop(r, max_steps)
    assert d.steps[0].along_x == (r.width >= r.height)


def test_decompose_makes_no_field_division_or_product(monkeypatch):
    validate = Rect.__init__
    calls = count_field_calls(monkeypatch, "__truediv__", "__mul__")
    built = count_builds(monkeypatch)
    d = decompose(SILVER, 600)
    assert len(d.steps) == 600 and d.remainder is not None
    assert calls == []
    rects = built.count(validate)
    assert rects == 1  # the remainder
    assert len(built) - rects <= 2 * len(d.steps)  # a step's side and moved corner


@pytest.mark.parametrize(
    "r, max_steps",
    [(SILVER, 1), (SILVER, 40), (SILVER, 1000), (Rect(ZERO, QNum(355), ZERO, QNum(113)), 100)],
)
def test_decompose_takes_one_square_root_whatever_the_step_count(monkeypatch, r, max_steps):
    # q = p*conj(s) is carried from step to step and its sqrt2 part only
    # flips sign, so floor(|qb|*sqrt2) is taken once, and no count goes
    # through `_floor`
    roots = []
    isqrt = math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: roots.append(n) or isqrt(n))
    floors = count_calls(monkeypatch, numeric._floor)
    d = decompose(r, max_steps)
    assert len(roots) == 1 and floors == []
    assert len(d.steps) == max_steps or d.terminated


def _boundary_rect():
    # the rectangle of four literals at the digit budget whose sixteen
    # parts all differ, as `test_cli_literal_digit_budget` draws it
    top = numeric.MAX_LITERAL_DIGITS

    def literal(seed, sign=""):
        rng = random.Random(seed)
        p, q, r, s = (rng.randrange(10 ** (top - 1), 10**top) for _ in range(4))
        return f"{sign}{p}/{q}{sign or '+'}{r}/{s}*sqrt2"

    return parse_rect(f"[{literal(1, '-')},{literal(2)}]x[{literal(3, '-')},{literal(4)}]")


def _step_branches(d):
    """(sign of N(s), sign of B) at each step, read off the frame apart from
    the loop: s the step's side, p the side before it in the trace, and
    A + B*sqrt2 = p*conj(s)*sign(N(s)), the numerator of the count's floor."""
    As, Bs, _ = d.frame
    i = 0 if d.steps[0].along_x else 2
    sides = [(As[i + 1] - As[i], Bs[i + 1] - Bs[i]), *zip(As[8::3], Bs[8::3])]
    branches = []
    for (pa, pb), (sa, sb) in zip(sides, sides[1:]):
        sn = sa * sa - 2 * sb * sb
        B = (pb * sa - pa * sb) * (1 if sn > 0 else -1)
        branches.append((1 if sn > 0 else -1, (B > 0) - (B < 0)))
    return branches


def test_decompose_reaches_every_branch_of_the_count_and_matches_the_oracles():
    # norms of both signs with B > 0, B < 0 and B == 0: rational, tall and
    # negative-corner rectangles, sides commensurable through 1 + sqrt2
    # (negative norm, B == 0), a first step with a negative norm and B < 0,
    # and the 450-digit rectangle at the digit budget
    rng = random.Random(473)
    cases = [
        (EIGHT_FIVE, 20),
        (Rect(ZERO, QNum(355), ZERO, QNum(113)), 20),
        (parse_rect("[0,8+8*sqrt2]x[0,5+5*sqrt2]"), 20),
        (parse_rect("[0,-1+3*sqrt2]x[0,1+1*sqrt2]"), 30),
        (parse_rect("[-5,-4]x[15/2,17/2+2*sqrt2]"), 60),
        (parse_rect("[-7/3,-1/5]x[-9-1/2*sqrt2,-2]"), 40),
        (SILVER, 60),
        (WITNESS, 60),
        *((rand_rect(rng, i), 30) for i in range(20)),
    ]
    seen = set()
    for r, max_steps in cases:
        d = _assert_matches_field_loop(r, max_steps)
        assert d.counts == continued_fraction_counts(r, max_steps)
        seen.update(_step_branches(d))
    # the field loop's counts at 450 digits are the continued fraction's,
    # which would cost as much again
    d = _assert_matches_field_loop(_boundary_rect(), 60)
    assert len(d.steps) == 60
    seen.update(_step_branches(d))
    assert seen == {(n, b) for n in (1, -1) for b in (1, -1, 0)}


def _transposed(r: Rect) -> Rect:
    """r mirrored in the diagonal: its greedy trace packs along the other axis."""
    return Rect(r.y1, r.y2, r.x1, r.x2)


def _perturbed(d: Decomposition):
    """Hand-built traces the greedy loop never makes from d: one step's
    count off by one or zero, one step's side shifted by 1/7 or by
    sqrt2/1000, and the step list truncated."""
    steps = d.steps
    for k, s in enumerate(steps):
        head, tail = steps[:k], steps[k + 1 :]
        for c in sorted({s.count - 1, s.count + 1, 0}):
            yield d._replace(steps=(*head, s._replace(count=c), *tail))
        for shift in (QNum(F(1, 7)), QNum(0, F(1, 1000))):
            yield d._replace(steps=(*head, s._replace(side=s.side + shift), *tail))
    for k in range(1, len(steps)):
        yield d._replace(steps=steps[:k])


def test_verify_halving_agrees_with_the_two_scans():
    # the Euclid-chain certificate decides a greedy trace with two signs;
    # every other trace goes to the scans, so the answer, failure and all,
    # is the scans' on any input
    rng = random.Random(331)
    rects = [
        EIGHT_FIVE,
        Rect(ZERO, QNum(355), ZERO, QNum(113)),
        Rect(ZERO, QNum(F(355, 113)), ZERO, ONE),
        Rect(ZERO, QNum(89), ZERO, QNum(55)),
        parse_rect("[-5,-4]x[15/2,17/2+2*sqrt2]"),
        parse_rect("[-7/3,-1/5]x[-9-1/2*sqrt2,-2]"),
        *(rand_rect(random.Random(seed), i) for seed in (3, 17, 29) for i in range(8)),
    ]
    greedy = [decompose(r, rng.randint(1, 24)) for r in rects + [_transposed(r) for r in rects]]
    assert any(d.terminated for d in greedy) and not all(d.terminated for d in greedy)
    assert {d.steps[0].along_x for d in greedy} == {True, False}
    kinds = set()
    for d in greedy:
        assert verify_halving(d) == scan_halving(d) == (None,)
        for bent in _perturbed(d):
            cert = verify_halving(bent)
            assert cert == scan_halving(bent)
            kinds.add(None if cert.ok else cert.failure.kind)
    # the perturbations reach a passing trace and both kinds of failure
    assert kinds == {None, "monotone", "halving"}
    for r, max_steps in [
        (SILVER, 1),
        (SILVER, 1000),
        (_transposed(SILVER), 1000),
        (parse_rect("[0,355/113+1/1000*sqrt2]x[0,1]"), 1000),
    ]:
        d = decompose(r, max_steps)
        assert verify_halving(d) == scan_halving(d) == (None,)
        for k in {1, (max_steps + 1) // 2}:
            short = d._replace(steps=d.steps[:k])
            assert verify_halving(short) == scan_halving(short)
    tall = Decomposition(
        Rect(ZERO, QNum(3), ZERO, QNum(4)),
        tuple(Step(ZERO, ZERO, QNum(s), 1, along_x=False) for s in (3, 3, 2)),
        remainder=None,
    )
    s0, s1, half = QNum(F(10, 3), F(2, 7)), QNum(F(5, 2), F(1, 6)), QNum(F(5, 3), F(1, 7))
    tiny = QNum(0, F(1, 1000))
    for d in [
        _trace(4, 3, 3, 2),
        _trace(4, 3, 3, 5),
        _trace(8, 5, 6),
        _trace(4, 3, 3),
        _trace(2, 1, 1),
        _trace(s0, s1, half),
        _trace(s0, s1, half + tiny),
        _trace(s0, s1, half - tiny),
        _trace(s0, s0),
        _trace(s0, s0 + QNum(0, F(1, 10**9))),
        tall,
        tall._replace(steps=tall.steps[:2]),
    ]:
        assert verify_halving(d) == scan_halving(d)
    # Euclid chains with counts 1 that pass every identity,
    # S[n] - S[n+1] == S[n+2]: only a sign test refuses them, the last
    # side's (-1 <= 0) in the first, the last link's (1 - 2 < 0) in the second
    assert verify_halving(_trace(1, 2, -1)) == scan_halving(_trace(1, 2, -1)) == (
        HalvingCheck(0, "monotone", QNum(2), QNum(1)),
    )
    assert verify_halving(_trace(3, 1, 2)) == scan_halving(_trace(3, 1, 2)) == (
        HalvingCheck(1, "monotone", QNum(2), QNum(1)),
    )
    # and one whose first count is 0 (1 - 0*2 == 1) passes every identity
    # and both signs: only the counts' check refuses it
    d = _trace(1, 2, 1)
    d = d._replace(steps=(d.steps[0]._replace(count=0), *d.steps[1:]))
    assert verify_halving(d) == scan_halving(d) == (HalvingCheck(0, "monotone", QNum(2), QNum(1)),)


@pytest.mark.parametrize(
    "r, max_steps",
    [(SILVER, 1), (SILVER, 40), (SILVER, 1000), (None, 60)],
    ids=["silver-1", "silver-40", "silver-1000", "450-digits-60"],
)
def test_verify_halving_takes_two_signs_whatever_the_step_count(monkeypatch, r, max_steps):
    # a greedy trace is a Euclid chain: its identities are products by the
    # counts, and only the last side and the last link take a `_sign2`
    d = decompose(_boundary_rect() if r is None else r, max_steps)
    assert len(d.steps) == max_steps
    signs = count_calls(monkeypatch, numeric._sign2)
    assert verify_halving(d).ok
    assert len(signs) <= 2


def test_verify_halving_makes_no_field_comparison_or_product(monkeypatch):
    d = decompose(SILVER, 600)
    ops = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__mul__", "__truediv__")
    calls = count_field_calls(monkeypatch, *ops)
    assert verify_halving(d).ok
    assert calls == []


def test_telescope_of_a_kernel_takes_no_numerators_call_and_normalises_once(monkeypatch):
    # the rows, the remainder's among them, come off the frame `decompose`
    # kept, and the integer kernels' rows add up over one denominator: one
    # QNum for all of them
    d = decompose(SILVER, 600)
    assert d.remainder is not None
    for F_ in (PROD, CE):
        built = count_builds(monkeypatch)
        calls = count_calls(monkeypatch, numerators)
        total = telescope(F_, d)
        assert calls == [] and len(built) == 1
        monkeypatch.undo()
        assert total == F_.value(SILVER)
    # a terminated trace of 81 steps builds one QNum in all
    fib = [1, 1]
    while len(fib) < 83:
        fib.append(fib[-1] + fib[-2])
    r = Rect(ZERO, QNum(fib[-1]), ZERO, QNum(fib[-2]))
    d = decompose(r, 100)
    assert d.terminated and len(d.steps) > 80
    for F_ in (PROD, CE):
        built = count_builds(monkeypatch)
        calls = count_calls(monkeypatch, numerators)
        total = telescope(F_, d)
        assert calls == [] and len(built) == 1
        monkeypatch.undo()
        assert total == F_.value(r)


def test_decompose_keeps_the_frame_a_fresh_decomposition_derives():
    # the integers the loop kept are the ones one `numerators` call over
    # the original's coordinates, the remainder's corner (the original's
    # own when terminated) and every step's x, y and side gives
    rng = random.Random(467)
    along_y = truncated = 0
    for i in range(300):
        d = decompose(rand_rect(rng, i), rng.randint(1, 40))
        fresh = Decomposition(*d)
        assert fresh._frame is None
        assert d.frame == fresh.frame
        steps = [v for s in d.steps for v in (s.x, s.y, s.side)]
        rem = d.original if d.terminated else d.remainder
        assert d.frame == numerators([*d.original, rem.x1, rem.y1, *steps])
        _, _, L = numerators(d.original)
        assert d.frame[2] == L
        along_y += not d.steps[0].along_x
        truncated += not d.terminated
    assert along_y > 50 and truncated > 50


def _qnums(row):
    As, Bs, L = row
    return [from_numerators(a, b, L) for a, b in zip(As, Bs)]


def test_rows_end_with_the_remainder_and_tile_the_rectangle():
    # a step's row is the rectangle its squares fill, and a truncated
    # decomposition's last row is its remainder: the rows' areas sum to
    # the original's, as integer kernels over the frame
    rng = random.Random(487)
    seen = set()
    for i in range(300):
        r = rand_rect(rng, i)
        for r in (r, _transpose(r)):
            d = decompose(r, rng.randint(1, 30))
            rows = d.rows()
            assert len(rows) == len(d.steps) + (not d.terminated)
            if not d.terminated:
                assert _qnums(rows[-1]) == list(d.remainder)
            for s, row in zip(d.steps, rows):
                x1, x2, y1, y2 = _qnums(row)
                assert (x1, y1) == (s.x, s.y) and (x2 - x1, y2 - y1)[not s.along_x] == s.count * s.side
            area = sum((from_numerators(*PRODUCT.rect_kernel(*row)) for row in rows), ZERO)
            assert area == r.area()
            seen.add((d.steps[0].along_x, d.terminated))
    assert seen == {(a, t) for a in (True, False) for t in (True, False)}


def test_telescope_values_the_corners_the_decomposition_holds():
    # on the value path every coordinate looked up is one of the original's,
    # the remainder's or a step's own x and y, and each row's four
    # lookups are the corners of its row on the frame
    rng = random.Random(491)
    seen = set()
    for i in range(200):
        r = rand_rect(rng, i)
        for r in (r, _transpose(r)):
            d = decompose(r, rng.randint(1, 20))
            tiles = d.all_squares() + ([d.remainder] if d.remainder is not None else [])
            looked_up = []

            class Recording(Table):
                def value(self, x, y):
                    looked_up.append((x, y))
                    return super().value(x, y)

            table = rand_table_function(rng, _rect_corner_points(tiles))
            Ft = corner_difference(Recording(table.point_fn._entries))
            assert telescope(Ft, d) == table.value(r)
            held = [*r, *(d.remainder or ())]
            held += [v for s in d.steps for v in (s.x, s.y)]
            held = {id(v) for v in held}
            assert all(id(x) in held and id(y) in held for x, y in looked_up)
            rows = d.rows()
            assert len(looked_up) == 4 * len(rows)
            for k, row in enumerate(rows):
                x1, x2, y1, y2 = _qnums(row)
                assert set(looked_up[4 * k : 4 * k + 4]) == {(x, y) for x in (x1, x2) for y in (y1, y2)}
            seen.add((d.steps[0].along_x, d.terminated))
    assert seen == {(a, t) for a in (True, False) for t in (True, False)}


def _fifty_digit_rect(rng):
    def part():
        return f"{rng.randrange(10**49, 10**50)}/{rng.randrange(10**49, 10**50)}"

    def literal(sign):
        return f"{sign}{part()}{sign or '+'}{part()}*sqrt2"

    return parse_rect(f"[{literal('-')},{literal('')}]x[{literal('-')},{literal('')}]")


def _fresh_squares(step):
    # the step's squares by field arithmetic on its own x, y and side
    start, lo = (step.x, step.y) if step.along_x else (step.y, step.x)
    edges = [start + k * step.side for k in range(step.count + 1)]
    hi = lo + step.side
    if step.along_x:
        return [Rect(e, f, lo, hi) for e, f in zip(edges, edges[1:])]
    return [Rect(lo, hi, e, f) for e, f in zip(edges, edges[1:])]


def test_frame_telescope_matches_value_and_per_square_sums():
    # both packing axes, rational and irrational rows, runs that terminate
    # and runs truncated with a remainder, and literals with 50-digit parts
    rng = random.Random(469)
    rects = [rand_rect(rng, i) for i in range(150)]
    rects += [_transpose(r) for r in rects[:50]]
    rects += [_fifty_digit_rect(rng) for _ in range(20)]
    seen = set()
    for r in rects:
        d = decompose(r, rng.randint(1, 25))
        tiles = [sq for s in d.steps for sq in _fresh_squares(s)]
        tiles += [d.remainder] if d.remainder is not None else []
        for F_ in (PROD, CE):
            per_square = sum((F_.value(sq) for sq in tiles), ZERO)
            assert telescope(F_, d) == per_square == F_.value(r)
        for s in d.steps:
            seen.add((s.along_x, (s.y if s.along_x else s.x).is_rational(), s.side.is_rational()))
        seen.add(("terminated", d.terminated))
        seen.add(("digits", len(str(r.x1._D)) >= 90))
    axes_and_rows = {(a, lo, side) for a in (True, False) for lo in (True, False) for side in (True, False)}
    assert axes_and_rows <= seen
    assert {("terminated", True), ("terminated", False), ("digits", True)} <= seen


def test_a_kernel_in_lowest_terms_is_cross_multiplied_in():
    # rows over different denominators: each is scaled to the running one
    denominators = set()

    class LowestTerms(type(PRODUCT)):
        def rect_kernel(self, As, Bs, L):
            q = from_numerators(*super().rect_kernel(As, Bs, L))
            denominators.add(q._D)
            return q._A, q._B, q._D

    F_ = corner_difference(LowestTerms())
    rng = random.Random(471)
    rects = [EIGHT_FIVE, SILVER, WITNESS, *(rand_rect(rng, i) for i in range(60))]
    mixed = 0
    for r in rects:
        denominators.clear()
        d = decompose(r, rng.randint(1, 30))
        assert telescope(F_, d) == PROD.value(r) == telescope(PROD, d)
        mixed += len(denominators) > 1
    assert mixed > 30
