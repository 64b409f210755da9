"""Behaviour of the library's immutable records: field order, keyword
construction and defaults, value equality and hashing, refusal of field
assignment, repr text, and the validation of rectangles and mesh squares."""

from fractions import Fraction

import pytest

from rectadd.decompose import Decomposition, HalvingCertificate, HalvingCheck, Step
from rectadd.geometry import DyadicSquare, Rect
from rectadd.harness import Finding, Report
from rectadd.numeric import ONE, QNum, SQRT2, ZERO
from rectadd.rectfn import COUNTEREXAMPLE, PRODUCT, ProbeReport, ProbeSample, ProbeScale, RectFunction
from rectadd.suites import SuiteResult

TWO = QNum(2)
UNIT = Rect(ZERO, ONE, ZERO, ONE)
WIDE = Rect(ZERO, TWO, ZERO, ONE)
STEP = Step(ZERO, ZERO, ONE, 2, True)
SAMPLE = ProbeSample(UNIT, ONE, ONE, "1.000000000000", True)
SCALE = ProbeScale(1, (SAMPLE,))

# record type, its fields in order, the field values of one record, and one
# field changed to another value of the same kind
RECORDS = [
    (Rect, ("x1", "x2", "y1", "y2"), (ZERO, ONE, ZERO, ONE), ("y2", SQRT2)),
    (DyadicSquare, ("order", "k", "m"), (2, 1, -3), ("m", 3)),
    (Step, ("x", "y", "side", "count", "along_x"), (ZERO, ZERO, ONE, 2, True), ("along_x", False)),
    (Decomposition, ("original", "steps", "remainder"), (WIDE, (STEP,), None), ("remainder", UNIT)),
    (HalvingCheck, ("index", "kind", "lhs", "rhs"), (0, "monotone", TWO, ONE), ("kind", "halving")),
    (HalvingCertificate, ("failure",), (None,), ("failure", HalvingCheck(0, "monotone", TWO, ONE))),
    (RectFunction, ("point_fn",), (PRODUCT,), ("point_fn", COUNTEREXAMPLE)),
    (
        ProbeSample,
        ("square", "value", "quotient", "quotient_approx", "inside_within"),
        (UNIT, ONE, ONE, "1.000000000000", True),
        ("quotient", None),
    ),
    (ProbeScale, ("level", "samples"), (1, (SAMPLE,)), ("level", 2)),
    (ProbeReport, ("point", "alpha", "scales"), ((ONE, ONE), Fraction(1), (SCALE,)), ("alpha", Fraction(1, 2))),
    (Finding, ("claim", "status", "exact_values", "approximations"), ("c", "verified", ("1",), ("1.0",)), ("status", "violated")),
    (Report, ("command", "inputs", "findings"), ("decompose", {"a": 1}, (Finding("c", "verified"),)), ("command", "probe")),
    (SuiteResult, ("name", "cases_run", "violations"), ("field", 3, []), ("cases_run", 4)),
]
IDS = [r[0].__name__ for r in RECORDS]
# a dict or list field makes a record unhashable
UNHASHABLE = {Report, SuiteResult}


@pytest.mark.parametrize("cls, names, values, changed", RECORDS, ids=IDS)
def test_record_fields_in_order_by_position_and_keyword(cls, names, values, changed):
    rec = cls(*values)
    assert [getattr(rec, n) for n in names] == list(values)
    assert cls(**dict(zip(names, values))) == rec


@pytest.mark.parametrize("cls, names, values, changed", RECORDS, ids=IDS)
def test_record_equality_and_hash_follow_the_fields(cls, names, values, changed):
    a, b = cls(*values), cls(*values)
    assert a == b and not (a != b)
    name, value = changed
    other = cls(**{**dict(zip(names, values)), name: value})
    assert a != other
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, names, values, changed", RECORDS, ids=IDS)
def test_record_field_assignment_is_refused(cls, names, values, changed):
    rec = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
    assert [getattr(rec, n) for n in names] == list(values)


def test_record_repr_text():
    assert repr(UNIT) == (
        "Rect(x1=QNum(Fraction(0, 1), Fraction(0, 1)), x2=QNum(Fraction(1, 1), Fraction(0, 1)), "
        "y1=QNum(Fraction(0, 1), Fraction(0, 1)), y2=QNum(Fraction(1, 1), Fraction(0, 1)))"
    )
    assert repr(Finding("c", "verified")) == (
        "Finding(claim='c', status='verified', exact_values=(), approximations=())"
    )
    assert repr(Finding("c", "violated", ("1",), ("1.000000",))) == (
        "Finding(claim='c', status='violated', exact_values=('1',), approximations=('1.000000',))"
    )


def test_rect_coerces_its_corners_to_qnum():
    r = Rect(0, 1, Fraction(1, 2), 1)
    assert all(type(v) is QNum for v in (r.x1, r.x2, r.y1, r.y2))
    assert r == Rect(ZERO, ONE, QNum(Fraction(1, 2)), ONE)
    assert hash(Rect(0, 1, 0, 1)) == hash(UNIT)
    assert Rect(x1=0, x2=1, y1=0, y2=1) == UNIT


def test_degenerate_rect_and_negative_order_are_refused():
    for corners in [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1, 1), (0, 1, 2, 1)]:
        with pytest.raises(ValueError, match="degenerate rectangle"):
            Rect(*corners)
    with pytest.raises(ValueError, match="dyadic order must be >= 0"):
        DyadicSquare(-1, 0, 0)
    assert DyadicSquare(0, 0, 0).to_rect() == UNIT


def test_keyword_construction_and_defaults():
    assert Step(ZERO, ZERO, ONE, 2, along_x=True) == STEP
    d = Decomposition(original=WIDE, steps=(STEP,), remainder=None)
    assert d.terminated and d.counts == [2] and d.total_squares == 2
    f = Finding("claim", "verified")
    assert f.exact_values == () and f.approximations == ()
    s = ProbeSample(UNIT, ONE, None, "1.000000000000")
    assert s.inside_within is None and s.flagged
    assert ProbeScale(level=3, samples=()).min_quotient is None


def test_step_memos_leave_equality_and_hash_alone():
    # a Step is a bare record, with no instance dict to hold a memo: tiling
    # it leaves its equality, hash and repr those of its five fields
    fresh = Step(ZERO, ZERO, ONE, 2, True)
    used = Step(ZERO, ZERO, ONE, 2, True)
    assert not hasattr(used, "__dict__")
    assert len(Decomposition(WIDE, (used,), None).all_squares()) == 2
    assert used == fresh == tuple(fresh) and hash(used) == hash(fresh) == hash(tuple(fresh))
    zero, one = "QNum(Fraction(0, 1), Fraction(0, 1))", "QNum(Fraction(1, 1), Fraction(0, 1))"
    assert repr(used) == repr(fresh) == f"Step(x={zero}, y={zero}, side={one}, count=2, along_x=True)"
    # a decomposition's frame is a memo too, outside its three fields
    fresh = Decomposition(WIDE, (STEP,), None)
    used = Decomposition(WIDE, (STEP,), None)
    assert used.frame == ([0, 2, 0, 1, 0, 0, 0, 0, 1], [0] * 9, 1) and len(used.rows()) == 1
    assert fresh._frame is None and used._frame is not None
    assert used == fresh and hash(used) == hash(fresh) and {used: 1} == {fresh: 1}
    assert repr(used) == repr(fresh) and tuple(used) == tuple(fresh) == (WIDE, (STEP,), None)
    assert used._asdict() == fresh._asdict() and used._replace() == fresh
