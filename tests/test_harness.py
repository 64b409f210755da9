import argparse
import hashlib
import inspect
import json
import random
import time
from fractions import Fraction

import pytest

from rectadd import harness
from rectadd.cli import COMMANDS, build_parser, main
from rectadd.geometry import Rect, parse_rect
from rectadd.harness import (
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
from rectadd.decompose import decompose
from rectadd.numeric import QNum, ZERO
from rectadd.suites import rand_rect, rand_table_function, _rect_corner_points

from cover_oracle import dyadic_inner_cover

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
        # rational trace truncated with a remainder
        ("[0,8]x[0,5]", 2, "0c678536b3f5cb1655174dd443ae1b05fa702da6e791b8f75d5beeb0ef491fd2"),
    ],
)
def test_svg_bytes_pinned(tmp_path, rect, max_steps, digest):
    # every coordinate keeps its {:.3f} digits whatever way the renderer walks the tiles
    path = tmp_path / "d.svg"
    write_decomposition_svg(decompose(parse_rect(rect), max_steps), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
    monkeypatch.setattr(QNum, "__hash__", lambda q: hash((q._A, q._B, q._D)))
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
    err = capsys.readouterr().err.splitlines()
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
    monkeypatch.setattr(harness, "MAX_TILES", 5)
    assert cmd_decompose(rect="[0,5]x[0,1]", max_steps=1).exit_status == 0
    with pytest.raises(ValueError, match="more than 5 squares"):
        cmd_decompose(rect="[0,6]x[0,1]", max_steps=1)


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
