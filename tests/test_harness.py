import argparse
import hashlib
import inspect
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest

from rectadd import command_decompose, command_dyadic_approx, harness, numeric
from rectadd.cli import COMMANDS, build_parser, main
from rectadd.geometry import DyadicSquare, Rect, parse_rect
from rectadd.harness import (
    DISPLAY_DIGITS,
    EVIDENCE,
    VERIFIED,
    VIOLATED,
    WITNESS_RECT,
    cmd_counterexample,
    cmd_decompose,
    cmd_dyadic_approx,
    cmd_probe,
    cmd_proptest,
    MAX_TILES,
    inner_cover_sum,
    report_to_dict,
    shrink_bound,
    write_decomposition_svg,
)
from rectadd.decompose import Decomposition, Step, decompose, verify_halving
from rectadd.numeric import QNum, SQRT2, ZERO, numerators
from rectadd.rectfn import PointFunction, Product, corner_difference, named_point_function, named_rect_function
from rectadd.suites import rand_rect, rand_table_function, _rect_corner_points

from cover_oracle import dyadic_inner_cover, rand_mesh_rect
from field_counter import count_builds, count_calls, count_field_calls, counterexample_squares

F = Fraction


def test_cmd_counterexample_verified():
    rep = cmd_counterexample(samples=200, seed=7)
    assert rep.exit_status == 0
    statuses = [f.status for f in rep.findings]
    assert statuses == [VERIFIED, VERIFIED, VERIFIED]
    witness = rep.findings[1]
    assert witness.exact_values == ("-1",)


def test_cmd_counterexample_product_violates_negativity():
    rep = cmd_counterexample(samples=50, seed=1, function="product")
    assert rep.findings[0].status == VERIFIED  # product == area on dyadic squares
    assert rep.findings[1].status == VIOLATED  # no negative witness
    assert rep.exit_status == 1


def test_cmd_counterexample_constant_violates_positivity():
    rep = cmd_counterexample(samples=20, seed=1, function="constant:1")
    assert rep.findings[0].status == VIOLATED  # corner difference is 0, not area
    assert rep.exit_status == 1


def test_cmd_counterexample_determinism():
    a = report_to_dict(cmd_counterexample(samples=100, seed=42), timestamp="T")
    b = report_to_dict(cmd_counterexample(samples=100, seed=42), timestamp="T")
    assert json.dumps(a) == json.dumps(b)
    c = report_to_dict(cmd_counterexample(samples=100, seed=43), timestamp="T")
    assert a["findings"] == c["findings"]  # all-pass findings don't depend on the draw


@pytest.mark.parametrize(
    "flags, status, digest",
    [
        ([], 0, "f3288e0ba05bea8c5a6d934289b7020392843a83925c941366e0cb74990cdfbb"),
        (["--function", "product"], 1, "0b2bd1d93a17355529e09ce9f81d3c05c9b2335fbff9c103315dc49ab9c93270"),
        # fails on its first sample: the report names the square and F = 0
        (["--function", "constant:1"], 1, "150756cfbab63334204d7cdf95b5a0b4ec1d78c537ba76417fd95eb37d8786a3"),
        (
            ["--min-order", "20", "--max-order", "40", "--seed", "3"],
            0,
            "e152235d4e9fa0b912961e010df54271fce966ab9f68c7a83220744236e793f2",
        ),
    ],
)
def test_counterexample_report_pinned(tmp_path, flags, status, digest):
    path = tmp_path / "c.json"
    assert main(["counterexample", *flags, "--json", str(path)]) == status
    report = json.loads(path.read_text())
    report.pop("generated_at")
    assert hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "seed, min_order, max_order, samples, fail_at",
    [
        (7, 0, 12, 1000, 37),
        (7, 0, 12, 1000, 1000),
        (1, 20, 40, 1000, 37),
        (42, 5, 5, 1000, 37),
        (42, 5, 5, 1000, 1000),
        (3, 1000, 1000, 50, 50),
    ],
)
def test_counterexample_samples_the_stdlib_randint_stream(monkeypatch, seed, min_order, max_order, samples, fail_at):
    # an all-pass report does not depend on the draws, and constant:1 fails
    # on the first sample; a kernel that fails on a later call shows that
    # every square up to it is the one random.Random(seed).randint draws

    class FailAtCall(Product):
        calls = 0

        def rect_kernel(self, As, Bs, L):
            self.calls += 1
            return (0, 0, 1) if self.calls == fail_at else super().rect_kernel(As, Bs, L)

    rep, seen = counterexample_squares(
        monkeypatch, FailAtCall(), min_order=min_order, max_order=max_order, samples=samples, seed=seed
    )
    rng = random.Random(seed)
    expected = [
        (rng.randint(min_order, max_order), rng.randint(-(2**15), 2**15), rng.randint(-(2**15), 2**15))
        for _ in range(fail_at)
    ]
    assert seen == expected
    assert rep.findings[0].status == VIOLATED
    assert rep.findings[0].exact_values == (DyadicSquare(*expected[-1]).to_rect().literal(), "0")


class _Quadrants(PointFunction):
    """x*y where x >= 0, x*y*(1+sqrt2) where x < 0 <= y, and -x*y where
    both are negative: on a square inside one quadrant F is the area, the
    area plus an irrational part, or minus the area; a user subclass with
    no integer kernel."""

    label = "quadrants"

    def value(self, x, y):
        if x.sign() >= 0:
            return x * y
        return x * y * (1 + SQRT2) if y.sign() >= 0 else -(x * y)


@pytest.mark.parametrize(
    "f",
    [*map(named_point_function, ("counterexample", "product", "constant:1", "constant:0")), _Quadrants()],
    ids=lambda f: f.label,
)
def test_mesh_square_check_matches_value(monkeypatch, f):
    # every square the run checks before its last holds, and the last one
    # too unless the report names it with F's value
    F_ = corner_difference(f)
    verdicts = set()
    for n in range(61):
        rep, seen = counterexample_squares(monkeypatch, f, min_order=n, max_order=n, samples=16, seed=n)
        failed = rep.findings[0].status == VIOLATED
        assert len(seen) == 16 or failed
        assert {order for order, _, _ in seen} == {n}
        for i, sq in enumerate(seen):
            r = DyadicSquare(*sq).to_rect()
            v = F_.value(r)
            holds = v == r.area() and v.sign() > 0
            assert holds != (failed and i == len(seen) - 1), (f.label, sq)
            if not holds:
                assert rep.findings[0].exact_values == (r.literal(), v.literal())
            verdicts.add(holds)
    if isinstance(f, _Quadrants):
        assert type(f).rect_kernel is PointFunction.rect_kernel and verdicts == {True, False}


def test_counterexample_passing_samples_build_nothing(monkeypatch):
    # a passing sample makes no field operation and builds no QNum, Rect or
    # DyadicSquare: the work of 2000 samples is that of 200
    calls = count_field_calls(monkeypatch, "__add__", "__sub__", "__mul__")
    built = count_builds(monkeypatch)
    counts = []
    for samples in (200, 2000):
        calls.clear()
        built.clear()
        assert cmd_counterexample(samples=samples).exit_status == 0
        counts.append((len(calls), len(built)))
    assert counts[0] == counts[1]


def test_cmd_counterexample_budgets(tmp_path, capsys):
    # the benchmark's stress row draws 6000 samples
    assert harness.MAX_SAMPLES >= 6000
    top = harness.MAX_ORDER
    assert cmd_counterexample(samples=harness.MAX_SAMPLES).exit_status == 0
    rep = cmd_counterexample(min_order=top, max_order=top, samples=200)
    assert rep.findings[0].status == VERIFIED
    over = str(top + 1)
    for flags, bound in (
        (["--samples", str(harness.MAX_SAMPLES + 1)], f"samples above {harness.MAX_SAMPLES}"),
        (["--max-order", over], f"max_order above {top}"),
        (["--min-order", over, "--max-order", over, "--samples", "3"], f"max_order above {top}"),
    ):
        path = tmp_path / "c.json"
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", *flags, "--json", str(path)])
        assert time.perf_counter() - t0 < 1.0
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rectadd counterexample: ")
        assert bound in err[0]
        assert not path.exists()


def test_cmd_counterexample_validates():
    with pytest.raises(ValueError):
        cmd_counterexample(samples=0)
    with pytest.raises(ValueError):
        cmd_counterexample(min_order=5, max_order=2)


def test_cmd_decompose_rational(tmp_path):
    svg = tmp_path / "out.svg"
    rep = cmd_decompose(rect="[0,8]x[0,5]", max_steps=20, svg_path=str(svg))
    assert rep.exit_status == 0
    text = svg.read_text()
    assert text.count('class="square"') == 5
    assert 'class="remainder"' not in text
    assert text.startswith("<?xml")


def test_cmd_decompose_silver_svg_has_remainder(tmp_path):
    svg = tmp_path / "silver.svg"
    rep = cmd_decompose(
        rect="[0,1+1*sqrt2]x[0,1]", max_steps=12, function="product", svg_path=str(svg)
    )
    assert rep.exit_status == 0
    text = svg.read_text()
    assert text.count('class="square"') == 24  # two per step
    assert text.count('class="remainder"') == 1


def test_svg_square_count_matches_decomposition(tmp_path):
    rng = random.Random(501)
    for i in range(12):
        d = decompose(rand_rect(rng, i), rng.randint(1, 10))
        path = tmp_path / f"r{i}.svg"
        drawn = write_decomposition_svg(d, str(path))
        text = path.read_text()
        assert drawn == d.total_squares == text.count('class="square"')
        assert (d.remainder is not None) == ('class="remainder"' in text)


@pytest.mark.parametrize(
    "rect, max_steps, digest",
    [
        ("[0,8]x[0,5]", 20, "818e874d8b1b56d4bff519f042fc424d833227b05edd4b980064522843609add"),
        # silver: two squares per step, truncated with a remainder
        ("[0,1+1*sqrt2]x[0,1]", 12, "a9a02e0f92d8cfcc622ab5eb7d512c6fddadc64c5ecd350d007abf039cfed513"),
        # horizontal rational strip: 1009 + 2 squares
        ("[-5/2,334]x[1/4,7/12]", 20, "c5690df7c494ce5e80933ab758bab2e6348e5af7de95d01f17e5301a152504aa"),
        # vertical strip in Q(sqrt2): 989 + 1 + 18 + ... squares, truncated
        (
            "[1/3,1/3+1/2*sqrt2]x[-7/4,2793/4]",
            6,
            "632fa78c71f4ddff38a44ccfce439d61e2c9c15dd9d6de342a1144c43ae7d1f5",
        ),
        # vertical strip in Q(sqrt2) whose walk offset and square side have
        # different denominators (18 and 1 in step 0, 9 and 6 in step 2)
        (
            "[1/2,1/2+1/5*sqrt2]x[-1/9,300+1/18*sqrt2]",
            8,
            "463a11211e30b282eed01b877684fbb69a226e0b509831929c1fec07302f7023",
        ),
        # rational trace truncated with a remainder
        ("[0,8]x[0,5]", 2, "0c678536b3f5cb1655174dd443ae1b05fa702da6e791b8f75d5beeb0ef491fd2"),
        # deep irrational traces: terms past 2^1000 drawn from integer floors;
        # silver's width has a negative norm, 3+sqrt2's a positive one
        (
            "[0,1+1*sqrt2]x[0,1]",
            1000,
            "ed276a0fa16fb85543559485649c0b7150f49fca2a1c917c8eb684af88f8a579",
        ),
        (
            "[0,355/113+1/1000*sqrt2]x[0,1]",
            1000,
            "58fe099caf87999de2c41f3d55ceaed8d4c444ba4952c248e0e33f1a89cc6548",
        ),
        ("[0,3+1*sqrt2]x[0,1]", 40, "cbe04f68b8b192111c268f8d0a8e444a930b1ef955583b5a2e5701fd55ecaecb"),
        # a square too large for a float, drawn to the width
        pytest.param(
            f"[0,1{'0' * 400}]x[0,1{'0' * 400}]",
            1,
            "43c209448e8c2f2488b60c015f3148828e1dfd4ad0bc33781db1b3c9517b9e08",
            id="10^400-square",
        ),
    ],
)
def test_svg_bytes_pinned(tmp_path, rect, max_steps, digest):
    # every coordinate keeps its {:.3f} digits whatever way the renderer walks the tiles
    path = tmp_path / "d.svg"
    write_decomposition_svg(decompose(parse_rect(rect), max_steps), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_svg_of_deep_irrational_trace_stays_in_the_viewport(tmp_path):
    # the coordinates' rational and sqrt2 terms grow past 2^1000 while the
    # squares shrink, so their float sum would cancel and then overflow
    path = tmp_path / "deep.svg"
    argv = ["decompose", "--rect", "[0,1+1*sqrt2]x[0,1]", "--max-steps", str(harness.MAX_STEPS)]
    assert main(argv + ["--svg", str(path)]) == 0
    text = path.read_text()
    view = re.search(r'<svg [^>]*width="([^"]+)" height="([^"]+)"', text)
    view_w, view_h = float(view[1]), float(view[2])
    attrs = r'x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)"'
    rects = re.findall(r'<rect class="(\w+)" ' + attrs, text)
    assert [cls for cls, *_ in rects].count("square") == 2 * harness.MAX_STEPS
    for _, *numbers in rects:
        x, y, w, h = map(float, numbers)
        assert all(math.isfinite(v) and v >= 0 for v in (x, y, w, h))
        assert x + w <= view_w and y + h <= view_h


@pytest.mark.parametrize(
    "rect, max_steps, digest, function",
    [
        # horizontal rational strip: 1009 + 2 squares
        ("[-5/2,334]x[1/4,7/12]", 20, "a12f9a5324ac56b0791db25a4d41b45c12d8cfa30a86ec1c5825a35e8300c9c5", "product"),
        # vertical strip in Q(sqrt2): 989 + 1 + 18 + ... squares, truncated
        (
            "[1/3,1/3+1/2*sqrt2]x[-7/4,2793/4]",
            6,
            "a992e2b2bfda387bcfbcb4044a4a0489ba5508c3bc5b7a78f0b77b5d47a165cd",
            "product",
        ),
        # silver at the step budget: coefficients past 1200 bits
        (
            "[0,1+1*sqrt2]x[0,1]",
            1000,
            "5b481bb42fcdc0ce2a48f9b1543bdd4013202ffa948bb800bc2b4004b5cdc6d5",
            "counterexample",
        ),
        # negative corners, a tall rectangle packed along y first
        (
            "[-5,-4]x[15/2,17/2+2*sqrt2]",
            200,
            "d1a200a92654a1c63dcb858f12acbe449326857d9a75fe70879130c598540cdf",
            "product",
        ),
        # corners over unrelated denominators
        (
            "[1/3,1/3+1/2*sqrt2]x[-7/4,40]",
            30,
            "ce82c7c5db3630dc50e9580bdce826d2a9cfdaea5b376cc89121a3b1b748ebac",
            "counterexample",
        ),
        # one square, exact in one step
        ("[0,1]x[0,1]", 20, "5c5a0813c683ed03d4c44227de5f55f8100b1d7a75aa798da87f65b81f5b8d51", "product"),
    ],
)
def test_decompose_product_report_pinned(tmp_path, rect, max_steps, digest, function):
    # the JSON report, telescoping sum and side trace included, of strips of
    # about 1000 squares and of deep irrational traces
    path = tmp_path / "d.json"
    argv = ["decompose", "--rect", rect, "--max-steps", str(max_steps), "--function", function]
    assert main(argv + ["--json", str(path)]) == 0
    report = json.loads(path.read_text())
    report.pop("generated_at")
    assert hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest() == digest


def test_inner_cover_sum_matches_enumeration():
    rng = random.Random(502)
    for i in range(40):
        r = rand_rect(rng, i)
        order = rng.randint(0, 3)
        cover = dyadic_inner_cover(r, order)
        pts = _rect_corner_points([sq.to_rect() for sq in cover] + [r])
        Ft = rand_table_function(rng, pts)
        brute = sum((Ft.value(sq.to_rect()) for sq in cover), ZERO)
        assert inner_cover_sum(Ft, r, order) == brute


def test_cmd_dyadic_approx_product_verified():
    rep = cmd_dyadic_approx(rect=WITNESS_RECT, function="product", max_order=8)
    assert rep.exit_status == 0
    assert rep.findings[0].status == VERIFIED
    assert rep.findings[1].status == EVIDENCE


def test_cmd_dyadic_approx_counterexample_gaps_exact():
    rep = cmd_dyadic_approx(rect=WITNESS_RECT, function="counterexample", max_order=6)
    assert rep.exit_status == 1
    assert rep.findings[0].status == VIOLATED
    gaps = rep.findings[1].exact_values
    assert gaps == ("-1", "-5/4", "-11/8", "-11/8", "-45/32", "-45/32")


def test_cmd_dyadic_approx_dyadic_square_gap_zero():
    rep = cmd_dyadic_approx(rect="[0,1/4]x[0,1/4]", function="counterexample", max_order=4)
    assert rep.exit_status == 0
    # from order 2 on the cover is the square itself
    assert rep.findings[1].exact_values[1:] == ("0", "0", "0")


def test_cmd_dyadic_approx_order_budget(tmp_path, capsys):
    # the mesh order of counterexample bounds dyadic-approx too
    top = harness.MAX_ORDER
    rep = cmd_dyadic_approx(rect=WITNESS_RECT, function="product", max_order=top)
    assert rep.exit_status == 0 and len(rep.findings[1].exact_values) == top
    path = tmp_path / "a.json"
    argv = ["dyadic-approx", "--rect", WITNESS_RECT.literal(), "--max-order", str(top + 1)]
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rectadd dyadic-approx: ")
    assert f"max_order above {top}" in err[0]
    assert not path.exists()


def _dyadic_approx_reference(function: str, r: Rect, max_order: int) -> tuple[list, list]:
    # the gaps and failing orders order by order: a cover Rect and F.value
    # at every order, against the shrink bound built in the field, on the F
    # that the command looks up
    F = command_dyadic_approx.named_rect_function(function)
    target = F.value(r)
    gaps = [target - inner_cover_sum(F, r, n) for n in range(1, max_order + 1)]
    return gaps, [n for n, gap in enumerate(gaps, 1) if abs(gap) > shrink_bound(r, n)]


def _assert_dyadic_approx_matches_reference(rect: Rect, function: str, max_order: int) -> str:
    rep = cmd_dyadic_approx(rect=rect, function=function, max_order=max_order)
    gaps, failures = _dyadic_approx_reference(function, rect, max_order)
    bound, trail = rep.findings
    assert trail.exact_values == tuple(g.literal() for g in gaps), (rect, function, max_order)
    assert trail.approximations == tuple(g.approximate(6) for g in gaps)
    assert bound.exact_values == tuple(gaps[n - 1].literal() for n in failures)
    assert bound.approximations == tuple(trail.approximations[n - 1] for n in failures)
    assert bound.status == (VIOLATED if failures else VERIFIED)
    assert bound.claim.endswith(f" (fails at orders {failures})" if failures else f"n=1..{max_order}")
    return bound.status


def test_cmd_dyadic_approx_matches_the_per_order_reference():
    # the spans of every order shifted from the top order's, and F of each
    # cover from the kernel, give the gaps and failing orders that a cover
    # Rect per order gives
    rng = random.Random(2201)
    functions = ("product", "counterexample", "constant:1/3-2*sqrt2")
    statuses = set()
    for i in range(120):
        r = rand_mesh_rect(rng) if i % 4 == 0 else rand_rect(rng, i)
        statuses.add(_assert_dyadic_approx_matches_reference(r, functions[i % 3], rng.randint(1, 40)))
    assert statuses == {VERIFIED, VIOLATED}


def test_cmd_dyadic_approx_matches_the_per_order_reference_to_order_200():
    # each gap is formed on the kernel's integers and normalised once, and
    # compared with the bound on crossed integers: deep orders, where the
    # integers are hundreds of bits, give the reference's gaps and verdicts
    rng = random.Random(2502)
    functions = ("product", "counterexample", "constant:1/3-2*sqrt2")
    statuses = set()
    for i in range(60):
        r = rand_mesh_rect(rng) if i % 4 == 0 else rand_rect(rng, 64 + i)
        statuses.add(_assert_dyadic_approx_matches_reference(r, functions[i % 3], rng.randint(150, 200)))
    assert statuses == {VERIFIED, VIOLATED}


class _ScaledProduct(PointFunction):
    """f(x, y) = c*x*y, so F is c times the area: a user subclass with no
    integer kernel, whose covers have a sqrt2 part when c has one."""

    label = "scaled"

    def __init__(self, c: QNum) -> None:
        self.c = c

    def value(self, x, y):
        return self.c * (x * y)


def test_cmd_dyadic_approx_decides_a_gap_on_the_bound(monkeypatch):
    # F = c*area with |c| chosen so that |gap| equals the shrink bound at
    # order 3: the strict bound holds there, and fails once |c| is a little
    # larger; c is irrational, and its negative makes every gap negative
    r = parse_rect("[1/3,2+1/7*sqrt2]x[-1/5,1/9]")
    area = named_rect_function("product")
    c = shrink_bound(r, 3) / (area.value(r) - inner_cover_sum(area, r, 3))
    assert not c.is_rational()
    for scale, fails in ((c, False), (-c, False), (c * (1 + numeric.dyadic(1, 60)), True), (-c - 1, True)):
        F = corner_difference(_ScaledProduct(scale))
        monkeypatch.setattr(command_dyadic_approx, "named_rect_function", lambda name: F)
        _assert_dyadic_approx_matches_reference(r, "scaled", 8)
        gaps, failures = _dyadic_approx_reference("scaled", r, 8)
        assert (abs(gaps[2]) == shrink_bound(r, 3)) != fails
        assert (3 in failures) == fails, (scale, failures)


def test_cmd_dyadic_approx_builds_one_value_per_order(monkeypatch):
    # the gap is the one QNum an order builds: no cover value, no |gap| and
    # no bound; the witness's covers are non-empty from order 2 on
    counts = []
    for max_order in (50, 100):
        built = count_builds(monkeypatch)
        cmd_dyadic_approx(rect=WITNESS_RECT, function="product", max_order=max_order)
        monkeypatch.undo()
        counts.append(len(built))
    assert counts[1] - counts[0] == 50


@pytest.mark.parametrize("function", ["product", "counterexample"])
@pytest.mark.parametrize("rect", [WITNESS_RECT, parse_rect("[-7/3+1/5*sqrt2,1/3+1/2*sqrt2]x[-7/4-3*sqrt2,40+1/7*sqrt2]")])
def test_cmd_dyadic_approx_matches_the_reference_at_the_order_budget(rect, function):
    _assert_dyadic_approx_matches_reference(rect, function, harness.MAX_ORDER)


def test_cmd_dyadic_approx_validates_no_rect_per_order(monkeypatch):
    validate = Rect.__init__
    for max_order in (1, 50):
        built = count_builds(monkeypatch)
        rep = cmd_dyadic_approx(rect=WITNESS_RECT, function="counterexample", max_order=max_order)
        monkeypatch.undo()
        assert len(rep.findings[1].exact_values) == max_order
        assert built.count(validate) == 0


def test_cmd_dyadic_approx_report_pinned(tmp_path):
    # a rectangle with four irrational corners, whose deep gaps render as
    # zeros; recorded before the covers were taken on integers
    path = tmp_path / "a.json"
    rect = "[-7/3+1/5*sqrt2,1/3+1/2*sqrt2]x[-7/4-3*sqrt2,40+1/7*sqrt2]"
    assert main(["dyadic-approx", "--rect", rect, "--max-order", "40", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    report.pop("generated_at")
    assert "0.000000" in report["findings"][1]["approximations"]
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    assert digest == "c100d1b283379b096119172163077acad43073c69e88584179de76ecab3fb15a"


def test_cmd_proptest_case_budget(capsys):
    # the benchmark's stress call runs field at 3000 cases
    top = harness.MAX_CASES
    assert top >= 3000
    assert main(["proptest", "--suite", "field", "--cases", str(top)]) == 0
    assert capsys.readouterr().out == f"[verified] suite field: invariant held on {top} cases\n"
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["proptest", "--suite", "telescope", "--cases", str(top + 1)])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("rectadd proptest: ")
    assert f"cases above {top}" in err[0]
    assert captured.out == ""


def test_cmd_decompose_takes_a_constant_number_of_numerators_calls(tmp_path, monkeypatch):
    # the decomposition puts the rectangle over one denominator and keeps
    # its integers; the tiling sum, the halving check, the telescope and the
    # SVG read them, with a remainder or without
    for rect in ("[0,1+1*sqrt2]x[0,1]", "[-5/2,334]x[1/4,7/12]"):
        for svg in (None, str(tmp_path / "d.svg")):
            calls = count_calls(monkeypatch, numerators)
            rep = cmd_decompose(rect=rect, max_steps=600, svg_path=svg)
            monkeypatch.undo()
            assert rep.exit_status == 0
            assert len(calls) == 1


ZERO_DECIMAL = "0." + "0" * DISPLAY_DIGITS


@pytest.mark.parametrize(
    "rect, max_steps, zeros",
    [
        ("[0,1+1*sqrt2]x[0,1]", 600, True),
        ("[0,1+1*sqrt2]x[0,1]", 1000, True),
        # the `reports` benchmark's non-silver traces, 1 + 2*sqrt2 by 1,
        # lying and standing
        ("[3/8,11/8+2*sqrt2]x[-5/4,-1/4]", 200, True),
        ("[3/8,11/8]x[-5/4,-1/4+2*sqrt2]", 200, True),
        ("[0,355/113+1/1000*sqrt2]x[0,1]", 1000, True),
        # terminated, its last side 1/113
        ("[0,355/113]x[0,1]", 1000, False),
    ],
)
def test_cmd_decompose_side_decimals_are_each_sides(rect, max_steps, zeros):
    # a verified trace with a positive last side is rendered up to its
    # first zero decimal, which stands for every later side's
    approxs = cmd_decompose(rect=rect, max_steps=max_steps).findings[1].approximations
    d = decompose(parse_rect(rect), max_steps)
    assert approxs == tuple(s.approximate(DISPLAY_DIGITS) for s in d.sides)
    assert (ZERO_DECIMAL in approxs) == zeros


def test_side_decimals_stop_at_the_first_zero(monkeypatch):
    d = decompose(parse_rect("[0,1+1*sqrt2]x[0,1]"), 600)
    first_zero = [s.approximate(DISPLAY_DIGITS) for s in d.sides].index(ZERO_DECIMAL)
    assert 0 < first_zero < 50
    calls = count_field_calls(monkeypatch, "approximate")
    floors = count_calls(monkeypatch, numeric._floor)
    command_decompose._trace_approxs(d.sides, verify_halving(d).ok)
    # one decimal, and so one floor, per side up to the first zero
    assert len(calls) <= first_zero + 1
    assert len(floors) == len(calls)


@pytest.mark.parametrize(
    "sides, status, approxs",
    [
        # monotone and halving, but its last side is negative
        ((1, F(1, 10**7), F(1, 10**8), -1), VERIFIED, ("1.000000", ZERO_DECIMAL, ZERO_DECIMAL, "-1.000000")),
        # a zero decimal, then a larger side
        ((1, F(1, 10**7), F(2, 10**6)), VIOLATED, ("1.000000", ZERO_DECIMAL, "0.000002")),
    ],
)
def test_cmd_decompose_renders_other_traces_value_by_value(monkeypatch, sides, status, approxs):
    sides = [QNum(s) for s in sides]
    d = Decomposition(
        Rect(ZERO, sides[0], ZERO, sides[1]),
        tuple(Step(ZERO, ZERO, s, 1, along_x=True) for s in sides[1:]),
        remainder=None,
    )
    monkeypatch.setattr(command_decompose, "decompose", lambda r, max_steps: d)
    halving = cmd_decompose(rect="[0,1]x[0,1]").findings[1]
    assert halving.status == status
    assert halving.approximations == approxs


def test_shrink_bound_value():
    r = Rect(ZERO, QNum(1), ZERO, QNum(1))
    assert shrink_bound(r, 1) == QNum(3)  # 2*(1+1)/2 + 4/4


def test_cmd_probe_only_evidence():
    rep = cmd_probe(function="product", point=("1/2", "1/2"), alpha=F(1), depth=6)
    assert rep.exit_status == 0
    assert all(f.status == EVIDENCE for f in rep.findings)
    mins = rep.findings[-1].exact_values
    assert mins == ("1",) * 6


def test_cmd_probe_within_flag_round_trip():
    rep = cmd_probe(
        function="counterexample",
        point=("1/2", "1/2"),
        alpha=F(1),
        depth=2,
        offsets=2,
        within="[0,1]x[0,1]",
    )
    assert rep.inputs["within"] == "[0,1]x[0,1]"
    assert all(f.status == EVIDENCE for f in rep.findings)
    # each scale's claim counts its squares inside `within`; the squares are
    # the sampling family the probe documents, rebuilt here
    point = QNum(F(1, 2))
    depth, offsets = 4, 3
    for within in ("[0,1]x[0,1]", "[0,3/4]x[0,3/4]", "[2,3]x[2,3]"):
        rep = cmd_probe(point=(point, point), depth=depth, offsets=offsets, within=within)
        box = parse_rect(within)
        for j, finding in zip(range(1, depth + 1), rep.findings):
            side = QNum(F(1, 2**j))
            inside = 0
            for i in range(offsets):
                lo = point - QNum(F(i, 4)) * side
                inside += box.contains_rect(Rect(lo, lo + side, lo, lo + side))
            assert finding.claim.endswith(f", {inside} inside within")
        assert "inside within" not in rep.findings[-1].claim
    assert not any("inside within" in f.claim for f in cmd_probe().findings)


def test_cmd_probe_rejects_bad_alpha():
    with pytest.raises(ValueError):
        cmd_probe(alpha=F(5, 2))
    with pytest.raises(ValueError):
        cmd_probe(alpha="5/2")


def test_cmd_probe_rejects_point_without_two_coordinates():
    for point in [("1",), ("1", "2", "3"), "1", "1,2,3"]:
        with pytest.raises(ValueError, match="two coordinates"):
            cmd_probe(point=point)
    assert cmd_probe(point="1/2,1/2", alpha="1") == cmd_probe()


def test_cmd_proptest_all_suites_pass():
    for suite, cases in [
        ("field", 500),
        ("additivity", 100),
        ("tiling", 60),
        ("halving", 60),
        ("oracle", 200),
        ("telescope", 40),
    ]:
        rep = cmd_proptest(suite=suite, cases=cases, seed=11)
        assert rep.exit_status == 0, suite
        assert rep.findings[0].status == VERIFIED


def test_rand_table_function_ignores_qnum_hash(monkeypatch):
    # the values a seed draws over a decomposition's corners must not depend
    # on how the points hash
    def drawn_table():
        r = rand_rect(random.Random(7))
        pts = _rect_corner_points(decompose(r, 6).all_squares() + [r])
        Ft = rand_table_function(random.Random(3), pts)
        return [(p, Ft.point_fn.value(*p)) for p in pts]

    before = drawn_table()
    real = [hash(p) for p, _ in before]
    # a tagged hash of the reversed triple, unlike the real hash of any value
    monkeypatch.setattr(QNum, "__hash__", lambda q: hash(("patched", q._D, q._B, q._A)))
    assert all(hash(p) != h for (p, _), h in zip(before, real))
    assert drawn_table() == before


def test_cmd_proptest_unknown_suite():
    with pytest.raises(ValueError):
        cmd_proptest(suite="bogus")


def test_report_json_schema(tmp_path):
    rep = cmd_decompose(rect="[0,2]x[0,1]", max_steps=4)
    d = report_to_dict(rep)
    assert d["schema"] == 1
    assert d["command"] == "decompose"
    assert d["exit_status"] == 0
    assert {"claim", "status", "exact_values", "approximations"} <= set(
        d["findings"][0].keys()
    )


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "decompose",
            "--rect",
            "[0,8]x[0,5]",
            "--max-steps",
            "20",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    assert data["exit_status"] == 0


def test_cli_counterexample_product_exits_nonzero():
    assert main(["counterexample", "--samples", "20", "--function", "product"]) == 1


def test_cli_probe_and_proptest():
    assert main(["probe", "--alpha", "1", "--depth", "3"]) == 0
    assert main(["proptest", "--suite", "field", "--cases", "50"]) == 0


def test_cli_rejects_bad_literal():
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--rect", "not-a-rect"])
    assert exc.value.code == 2


def test_cli_rejects_bad_alpha():
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--alpha", "7/2"])
    assert exc.value.code == 2


def test_command_table_flags_are_the_function_keywords():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMANDS)
    for name, p in sub.choices.items():
        params = inspect.signature(getattr(harness, COMMANDS[name][0])).parameters
        dests = {a.dest for a in p._actions} - {"help", "json"}
        assert dests == set(params), name


@pytest.mark.parametrize(
    "command, fn", [("counterexample", cmd_counterexample), ("probe", cmd_probe)]
)
def test_cli_defaults_are_the_function_defaults(tmp_path, command, fn):
    out = tmp_path / "r.json"
    assert main([command, "--json", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got == report_to_dict(fn(), timestamp=got["generated_at"])


def test_cli_parser_is_built_once_and_keeps_no_flags(tmp_path):
    assert build_parser() is build_parser()
    out = tmp_path / "p.json"
    depths = []
    for argv in (["probe", "--depth", "3"], ["probe"]):
        assert main([*argv, "--json", str(out)]) == 0
        depths.append(json.loads(out.read_text())["inputs"]["depth"])
    assert depths == [3, 4]


def test_cli_json_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        assert main(["counterexample", "--samples", "60", "--seed", "5", "--json", str(p)]) == 0
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--samples", "20", "--json"],
        ["decompose", "--rect", "[0,8]x[0,5]", "--json"],
        ["decompose", "--rect", "[0,8]x[0,5]", "--svg"],
    ],
)
def test_cli_unwritable_report_path_exits_2(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing" / "x.json")
    with pytest.raises(SystemExit) as exc:
        main(argv + [missing])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    # the report is written before any finding is printed, so exit 2 prints none
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"rectadd {argv[0]}: ")
    assert missing in err[0]


def test_cli_refuses_point_without_two_coordinates(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--point", "1,2,3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rectadd probe: ")


def test_cli_svg_of_huge_rectangle(tmp_path):
    # 10^400 overflows a float; the figure is normalised to the width first
    big = "1" + "0" * 400
    svg = tmp_path / "big.svg"
    assert main(["decompose", "--rect", f"[0,{big}]x[0,{big}]", "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.count('class="square"') == 1
    assert 'x="8.000" y="8.000" width="720.000" height="720.000"' in text


def test_cmd_decompose_tiling_value_is_per_tile_area_sum():
    rng = random.Random(506)
    for i in range(30):
        r = rand_rect(rng, i)
        d = decompose(r, rng.randint(1, 24))
        per_tile = sum((sq.area() for sq in d.all_squares()), ZERO)
        if d.remainder is not None:
            per_tile = per_tile + d.remainder.area()
        rep = cmd_decompose(rect=r, max_steps=len(d.steps), function="product")
        assert rep.findings[0].exact_values == (r.area().literal(), per_tile.literal())


def test_cmd_decompose_tile_budget(monkeypatch):
    monkeypatch.setattr(command_decompose, "MAX_TILES", 5)
    assert cmd_decompose(rect="[0,5]x[0,1]", max_steps=1).exit_status == 0
    with pytest.raises(ValueError, match="more than 5 squares"):
        cmd_decompose(rect="[0,6]x[0,1]", max_steps=1)


def test_cmd_probe_alpha_denominator_budget(tmp_path, capsys):
    q = harness.MAX_ALPHA_DENOMINATOR
    rep = cmd_probe(alpha=f"1/{q}", depth=1, offsets=1)
    assert rep.inputs["alpha"] == f"1/{q}"
    assert main(["probe", "--alpha", f"{q - 1}/{q}", "--depth", "1", "--offsets", "1"]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"denominator above {q}"):
        cmd_probe(alpha=f"1/{q + 1}")
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--alpha", f"1/{q + 1}", "--depth", "12", "--json", str(tmp_path / "p.json")])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rectadd probe: ")
    assert not (tmp_path / "p.json").exists()


def test_cmd_probe_refuses_alpha_with_an_exponent(capsys):
    # Fraction('1e-1000000') builds a million-digit integer: refused first
    t0 = time.perf_counter()
    for alpha in ("1e-1000000", "1E5", "2e0"):
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--alpha", alpha, "--depth", "1", "--offsets", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("rectadd probe: ")
        assert "exponent" in err[0]
    assert time.perf_counter() - t0 < 1.0
    for alpha in ("3/2", "1", "0.5"):
        assert main(["probe", "--alpha", alpha, "--depth", "1", "--offsets", "1"]) == 0
    assert cmd_probe(alpha="0.5").inputs["alpha"] == "1/2"


def test_cli_refuses_decomposition_over_tile_budget(tmp_path, capsys):
    # 10^400 packed squares: refused before any square is enumerated
    big = "1" + "0" * 400
    t0 = time.perf_counter()
    d = decompose(parse_rect(f"[0,{big}]x[0,1]"), 1)
    assert d.total_squares == 10**400
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--rect", f"[0,{big}]x[0,1]", "--svg", str(tmp_path / "x.svg")])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rectadd decompose: ")
    assert f"more than {MAX_TILES} squares" in err[0]
    assert not (tmp_path / "x.svg").exists()
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--rect", f"[0,{MAX_TILES + 1}]x[0,1]", "--max-steps", "1"])
    assert exc.value.code == 2
    # the benchmark's stress row stays inside the budget
    assert main(["decompose", "--rect", "[0,5000]x[0,1]", "--max-steps", "1"]) == 0


@pytest.mark.parametrize(
    "rect, max_steps",
    [
        ("[-5/2,334]x[1/4,7/12]", 20),
        ("[1/2,1/2+1/5*sqrt2]x[-1/9,300+1/18*sqrt2]", 8),
        ("[0,1+1*sqrt2]x[0,1]", harness.MAX_STEPS),
    ],
)
def test_svg_walk_makes_no_field_addition_per_square(tmp_path, monkeypatch, rect, max_steps):
    # the figure is drawn on the integer numerators of the decomposition's
    # frame: no field arithmetic, no QNum built and no `numerators` call,
    # whatever the step count
    d = decompose(parse_rect(rect), max_steps)
    assert d.total_squares > 1000 or len(d.steps) == harness.MAX_STEPS
    ops = count_field_calls(monkeypatch, "__add__", "__sub__", "__mul__", "__truediv__")
    built = count_builds(monkeypatch)
    calls = count_calls(monkeypatch, numerators)
    assert write_decomposition_svg(d, str(tmp_path / "d.svg")) == d.total_squares
    assert (len(ops), len(built), len(calls)) == (0, 0, 0)


def test_cmd_decompose_step_budget(tmp_path, capsys):
    silver = "[0,1+1*sqrt2]x[0,1]"
    # the largest step count the README and the benchmark use is 600
    assert harness.MAX_STEPS >= 600
    rep = cmd_decompose(rect=silver, max_steps=harness.MAX_STEPS, function="product")
    assert rep.exit_status == 0
    assert len(rep.findings[1].exact_values) == harness.MAX_STEPS + 1
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"max_steps above {harness.MAX_STEPS}"):
        cmd_decompose(rect=silver, max_steps=harness.MAX_STEPS + 1)
    argv = ["decompose", "--rect", silver, "--max-steps", str(harness.MAX_STEPS + 1)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json", str(tmp_path / "d.json")])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rectadd decompose: ")
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize(
    "alpha, bound",
    [
        ("0." + "0" * 5000 + "1", "denominator above 1000"),
        ("1" + "0" * 5000, "alpha must lie in [0, 2]"),
        ("1/" + "1" + "0" * 5000, "denominator above 1000"),
        ("1" + "0" * 5000 + "/3", "alpha must lie in [0, 2]"),
        ("-0.0" + "0" * 5000 + "1", "alpha must lie in [0, 2]"),
        ("1" + "0" * 5000 + "/3" + "0" * 5000, f"more than {harness.MAX_ALPHA_DIGITS} digits"),
        ("0/" + "1" * 5000, f"more than {harness.MAX_ALPHA_DIGITS} digits"),
    ],
    ids=[
        "long-places",
        "long-integer",
        "long-denominator",
        "long-numerator",
        "negative",
        "long-both",
        "long-zero",
    ],
)
def test_cli_refuses_long_alpha_by_its_bound(capsys, alpha, bound):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--alpha", alpha, "--depth", "1", "--offsets", "1"])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rectadd probe: ")
    assert bound in err[0]
    assert "Exceeds the limit" not in err[0] and "int_max_str_digits" not in err[0]


@pytest.mark.parametrize("alpha", ["1/0", "-1/000", "1/0_0", "1/\u0660"])
def test_cli_names_a_zero_alpha_denominator(capsys, alpha):
    with pytest.raises(SystemExit) as exc:
        main(["probe", f"--alpha={alpha}", "--depth", "1", "--offsets", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["rectadd probe: alpha has a zero denominator"]
    with pytest.raises(ValueError, match="zero denominator"):
        cmd_probe(alpha=alpha)


def test_cmd_probe_reads_padded_alpha_text():
    # zeros that do not change the value are not digits of a bound
    for alpha, value in [
        ("0" * 5000 + "1", "1"),
        ("0.5" + "0" * 5000, "1/2"),
        ("2000/1000", "2"),
        ("0.001953125", "1/512"),  # nine places, the most a decimal within budget has
        ("1" * harness.MAX_ALPHA_DIGITS + "/" + "2" * harness.MAX_ALPHA_DIGITS, "1/2"),
    ]:
        assert cmd_probe(alpha=alpha, depth=1, offsets=1).inputs["alpha"] == value
    digits = harness.MAX_ALPHA_DIGITS + 1
    # 1/1024, and the three bounds
    for alpha in ("0.0009765625", "1/1001", "3/1", "1" * digits + "/" + "2" * digits):
        with pytest.raises(ValueError):
            cmd_probe(alpha=alpha)


def _refused_in_time(capsys, argv: list, command: str, bound: str) -> None:
    """argv exits 2 with one stderr line naming the bound, in under 1 s."""
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"rectadd {command}: ")
    assert bound in err[0]
    assert captured.out == ""


def test_cli_literal_digit_budget(tmp_path, capsys):
    # four coordinates whose sixteen parts all differ give the largest
    # numbers a report renders; at the budget every command still renders
    # them, and one more digit is refused before any work
    top = numeric.MAX_LITERAL_DIGITS
    assert top >= 401  # the 10^400 rectangles of the tests

    def literal(seed: int, digits: int = top, sign: str = "") -> str:
        rng = random.Random(seed)
        p, q, r, s = (rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(4))
        return f"{sign}{p}/{q}{sign or '+'}{r}/{s}*sqrt2"

    def rect(digits: int) -> str:
        return f"[{literal(1, digits, '-')},{literal(2)}]x[{literal(3, sign='-')},{literal(4)}]"

    point, boundary = literal(5), rect(top)
    json_path = tmp_path / "r.json"
    for argv, status in [
        (["decompose", "--rect", boundary, "--svg", str(tmp_path / "d.svg")], 0),
        (["decompose", "--rect", boundary, "--function", f"constant:{point}"], 0),
        (["dyadic-approx", "--rect", boundary], 0),
        (["probe", "--point", f"{point},{point}", "--within", boundary], 0),
        (["counterexample", "--function", f"constant:{point}", "--samples", "1"], 1),
    ]:
        assert main([*argv, "--json", str(json_path)]) == status
        assert json.loads(json_path.read_text())["exit_status"] == status
    # the largest number rendered: a gap of dyadic-approx at its top order
    r, F_ = parse_rect(boundary), corner_difference(named_point_function("product"))
    gap = F_.value(r) - inner_cover_sum(F_, r, harness.MAX_ORDER)
    assert len(gap.literal()) > 8 * top
    capsys.readouterr()
    over, bound = literal(5, top + 1), f"more than {top} digits (the digit budget)"
    for command, argv in [
        ("decompose", ["--rect", rect(top + 1)]),
        ("dyadic-approx", ["--rect", rect(top + 1)]),
        ("probe", ["--point", f"0,{over}"]),
        ("probe", ["--within", rect(top + 1)]),
        ("counterexample", ["--function", f"constant:{over}"]),
    ]:
        _refused_in_time(capsys, [command, *argv, "--json", str(json_path)], command, bound)


def test_cmd_probe_depth_and_square_budgets(capsys):
    # the benchmark probes at depth 400 with 3 offsets and at depth 12 with 4
    top, squares = harness.MAX_ORDER, harness.MAX_PROBE_SQUARES
    assert 400 * 3 <= squares and 400 <= top
    assert cmd_probe(depth=12, offsets=4).exit_status == 0
    assert main(["probe", "--depth", str(top), "--offsets", "1"]) == 0
    assert main(["probe", "--depth", "2", "--offsets", str(squares // 2)]) == 0
    capsys.readouterr()
    argv = ["probe", "--depth", str(top + 1), "--offsets", "1"]
    _refused_in_time(capsys, argv, "probe", f"depth above {top}")
    argv = ["probe", "--depth", "1", "--offsets", str(squares + 1)]
    _refused_in_time(capsys, argv, "probe", f"depth * offsets above {squares}")


def test_cli_probe_root_budget(capsys):
    # an alpha p/q whose quotients leave the field (q not dividing 4) costs
    # about (q*(j+20))^2 per square at scale j; the reports workload, the
    # largest denominator at depth 1 and at the default depth and offsets
    # stay inside the budget
    def work(q, depth, offsets):
        return offsets * sum((q * (j + 20)) ** 2 for j in range(1, depth + 1))

    budget = harness.MAX_ROOT_WORK
    assert work(1000, 4, 4) <= budget < work(1000, 4, 5)
    assert work(997, 13, 1) <= budget < work(997, 14, 1)
    for argv in (
        ["--alpha", "1/3", "--depth", "12", "--offsets", "4"],
        ["--alpha", "999/1000", "--depth", "1", "--offsets", "1"],
        ["--alpha", "1/1000"],
        ["--alpha", "999/1000", "--depth", "4", "--offsets", "4"],
    ):
        assert main(["probe", *argv]) == 0
    # a field alpha takes no root, whatever its denominator would cost
    assert work(4, 1000, 2) > budget
    assert main(["probe", "--alpha", "3/4", "--depth", "1000", "--offsets", "2"]) == 0
    capsys.readouterr()
    bound = "the root budget"
    for argv in (
        ["--alpha", "999/1000", "--depth", "4", "--offsets", "5"],
        ["--alpha", "1993/997", "--depth", "14", "--offsets", "1"],
        ["--alpha", "1/997", "--depth", "40", "--offsets", "500"],
    ):
        _refused_in_time(capsys, ["probe", *argv], "probe", bound)
