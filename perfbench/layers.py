"""Per-layer timings: each layer's public functions called directly.

Every row is the time per call of the fastest of several batches (the
`timeit` convention: noise from other processes only ever adds time).  Inputs come from
the run's seed; the stress rows run one pathological input per command once.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import statistics
import sys
import time
from fractions import Fraction

numeric = importlib.import_module("rectadd.numeric")
geometry = importlib.import_module("rectadd.geometry")
rectfn = importlib.import_module("rectadd.rectfn")
dec = importlib.import_module("rectadd.decompose")
harness = importlib.import_module("rectadd.harness")
suites = importlib.import_module("rectadd.suites")
cli = importlib.import_module("rectadd.cli")

US, MS = 1e-6, 1e-3
# fixed case counts, sized so each suite takes about 0.1 s here
SUITE_CASES = {"additivity": 200, "field": 200, "halving": 20, "oracle": 200, "telescope": 20, "tiling": 20}
IMPORT_LAUNCHES = 5


def per_call(fn, unit: float, repeats: int = 5, min_s: float = 0.01) -> float:
    """Time per call of fn() in the fastest of `repeats` batches of at least min_s."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= min_s:
            break
        n = max(2 * n, int(n * min_s / max(dt, 1e-9)))
    samples = [dt / n]
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return min(samples) / unit


def once(fn, unit: float):
    t0 = time.perf_counter()
    out = fn()
    return (time.perf_counter() - t0) / unit, out


def _small(rng: random.Random):
    def f():
        return Fraction(rng.randint(1, 2**15), rng.randint(1, 2**15)) * rng.choice([-1, 1])

    return numeric.QNum(f(), f())


def _main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def measure(seed: int, tmp: str, launch_s) -> tuple[dict, list[str], int]:
    """(metrics {name: (value, unit)}, problems, number of checked calls).
    `launch_s(argv)` runs a fresh interpreter and returns its wall time."""
    rng = random.Random(seed)
    m: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    checked = 0

    def expect(name: str, got, want) -> None:
        nonlocal checked
        checked += 1
        if got != want:
            problems.append(f"{name}: got {got!r}, want {want!r}")

    QNum, SQRT2 = numeric.QNum, numeric.SQRT2
    # numeric: field operators on small (<= 16-bit) and big (~1000-bit) coefficients
    x, y = _small(rng), _small(rng)
    x_copy = QNum(x.a, x.b)
    m["numeric.mul_us.small"] = (per_call(lambda: x * y, US), "us")
    m["numeric.add_us.small"] = (per_call(lambda: x + y, US), "us")
    m["numeric.lt_us.small"] = (per_call(lambda: x < y, US), "us")
    m["numeric.eq_us.small"] = (per_call(lambda: x == x_copy, US), "us")
    m["numeric.hash_us.small"] = (per_call(lambda: hash(x), US), "us")
    big = (SQRT2 - 1) ** 800 + Fraction(1, rng.randint(2, 99))
    big2 = (SQRT2 - 1) ** 799 * Fraction(rng.randint(2, 99), 7)
    m["numeric.mul_us.big"] = (per_call(lambda: big * big2, US), "us")
    m["numeric.add_us.big"] = (per_call(lambda: big + big2, US), "us")
    m["numeric.lt_us.big"] = (per_call(lambda: big < big2, US), "us")
    m["numeric.div_us.big"] = (per_call(lambda: big / big2, US), "us")
    m["numeric.floor_us.big"] = (per_call(lambda: math.floor(big), US), "us")
    m["numeric.approximate_us.big"] = (per_call(lambda: big.approximate(harness.DISPLAY_DIGITS), US), "us")
    m["numeric.literal_us.big"] = (per_call(big.literal, US), "us")
    text = x.literal()
    m["numeric.parse_us"] = (per_call(lambda: numeric.parse_qnum(text), US), "us")
    expect("parse_qnum round trip", numeric.parse_qnum(text), x)

    # geometry
    Rect = geometry.Rect
    x2, y2 = x + QNum(rng.randint(1, 9)), y + QNum(rng.randint(1, 9))
    r = Rect(x, x2, y, y2)
    cut = (x + x2) / 2
    m["geometry.rect_us"] = (per_call(lambda: Rect(x, x2, y, y2), US), "us")
    m["geometry.split_us"] = (per_call(lambda: geometry.split(r, "vertical", cut), US), "us")
    lit = r.literal()
    m["geometry.parse_rect_us"] = (per_call(lambda: geometry.parse_rect(lit), US), "us")
    witness = harness.WITNESS_RECT
    m["geometry.cover_span_us.order64"] = (per_call(lambda: geometry.dyadic_inner_cover_span(witness, 64), US), "us")
    sq = geometry.DyadicSquare(12, rng.randint(-(2**15), 2**15), rng.randint(-(2**15), 2**15))
    m["geometry.to_rect_us"] = (per_call(sq.to_rect, US), "us")

    # rectfn
    counterexample = rectfn.named_rect_function("counterexample")
    product = rectfn.named_rect_function("product")
    m["rectfn.value_us.counterexample"] = (per_call(lambda: counterexample.value(witness), US), "us")
    m["rectfn.value_us.product"] = (per_call(lambda: product.value(r), US), "us")
    entries = {p: _small(rng) for p in r.corners()}
    table = rectfn.corner_difference(rectfn.Table(entries))
    m["rectfn.value_us.table"] = (per_call(lambda: table.value(r), US), "us")
    many = {(QNum(Fraction(i, 7)), QNum(0, Fraction(j, 5))): x for i in range(40) for j in range(25)}
    m["rectfn.table_build_us"] = (per_call(lambda: rectfn.Table(many), US, repeats=3) / len(many), "us")
    point = (QNum(Fraction(1, 2)), QNum(Fraction(1, 2)))
    for name, alpha in (("field", Fraction(1)), ("nonfield", Fraction(1, 3))):
        probe = lambda: rectfn.liminf_quotient_probe(product, point, alpha, 12, 4)  # noqa: E731
        m[f"rectfn.probe_ms.{name}"] = (per_call(probe, MS, repeats=3), "ms")

    # decompose
    m["decompose.greedy_step_us.8x5"] = (per_call(lambda: dec.greedy_step(Rect(0, 8, 0, 5)), US), "us")
    strip = Rect(0, QNum(Fraction(6001, 3)), 0, 1)
    d = dec.decompose(strip, 20)
    tiles = d.total_squares
    expect("strip tiles", tiles, 2003)
    m["decompose.decompose_us_per_tile"] = (per_call(lambda: dec.decompose(strip, 20), US, repeats=3) / tiles, "us")
    m["decompose.telescope_us_per_tile"] = (
        per_call(lambda: dec.telescope(counterexample, d), US, repeats=3) / tiles,
        "us",
    )
    silver = Rect(0, 1 + SQRT2, 0, 1)
    m["decompose.decompose_ms.silver200"] = (per_call(lambda: dec.decompose(silver, 200), MS, repeats=3), "ms")
    d200 = dec.decompose(silver, 200)
    expect("silver counts", d200.counts, [2] * 200)
    m["decompose.verify_halving_ms.silver200"] = (per_call(lambda: dec.verify_halving(d200), MS, repeats=3), "ms")
    m["decompose.continued_fraction_ms.silver200"] = (
        per_call(lambda: dec.continued_fraction_counts(silver, 200), MS, repeats=3),
        "ms",
    )

    # harness: each command at README arguments, the renderers, one stress input each
    out_svg = os.path.join(tmp, "layer.svg")
    readme = {
        "counterexample": (lambda: harness.cmd_counterexample(samples=1000, seed=7), 0),
        "decompose": (lambda: harness.cmd_decompose(rect="[0,8]x[0,5]", max_steps=20, svg_path=out_svg), 0),
        "dyadic_approx": (
            lambda: harness.cmd_dyadic_approx(rect=witness, function="counterexample", max_order=10),
            1,
        ),
        "probe": (harness.cmd_probe, 0),
        "proptest": (lambda: harness.cmd_proptest(suite="field"), 0),
    }
    for name, (fn, status) in readme.items():
        expect(f"cmd_{name} exit", fn().exit_status, status)
        m[f"harness.cmd_{name}_ms"] = (per_call(fn, MS, repeats=3), "ms")
    m["harness.svg_us_per_tile"] = (
        per_call(lambda: harness.write_decomposition_svg(d, out_svg), US, repeats=3) / tiles,
        "us",
    )
    report = harness.cmd_decompose(rect=silver, max_steps=200)
    out_json = os.path.join(tmp, "layer.json")
    m["harness.report_json_ms"] = (per_call(lambda: harness.write_report_json(report, out_json), MS, repeats=3), "ms")
    stress = {
        "decompose": (lambda: harness.cmd_decompose(rect="[0,5000]x[0,1]", max_steps=1), 0),
        "dyadic-approx": (
            lambda: harness.cmd_dyadic_approx(rect=witness, function="counterexample", max_order=1000),
            1,
        ),
        "probe": (lambda: harness.cmd_probe(depth=400, offsets=3), 0),
        "counterexample": (lambda: harness.cmd_counterexample(samples=6000, seed=seed), 0),
        "proptest": (lambda: harness.cmd_proptest(suite="field", cases=3000, seed=seed), 0),
    }
    for name, (fn, status) in stress.items():
        ms, rep = once(fn, MS)
        expect(f"{name} stress exit", rep.exit_status, status)
        m[f"harness.{name}.stress_ms"] = (ms, "ms")

    # suites at fixed case counts
    for name, cases in sorted(SUITE_CASES.items()):
        result = suites.run_suite(name, cases=cases, seed=seed)
        expect(f"suite {name}", (result.cases_run, result.violations), (cases, []))
        m[f"suites.{name}_ms"] = (per_call(lambda: suites.run_suite(name, cases=cases, seed=seed), MS, repeats=3), "ms")

    # cli: main() in process, and a fresh import against a bare interpreter
    argvs = {
        "counterexample": (["counterexample", "--samples", "1000", "--seed", "7"], 0),
        "decompose": (["decompose", "--rect", "[0,8]x[0,5]", "--max-steps", "20", "--svg", out_svg], 0),
        "dyadic-approx": (
            ["dyadic-approx", "--rect", str(witness), "--function", "counterexample", "--max-order", "10"],
            1,
        ),
        "probe": (["probe"], 0),
        "proptest": (["proptest", "--suite", "field"], 0),
    }
    for name, (argv, status) in argvs.items():
        expect(f"main {name} exit", _main(argv), status)
        m[f"cli.main_ms.{name}"] = (per_call(lambda: _main(argv), MS, repeats=3), "ms")
    bare, imported = [], []
    for _ in range(IMPORT_LAUNCHES):
        bare.append(launch_s([sys.executable, "-c", "pass"]))
        imported.append(launch_s([sys.executable, "-c", "import rectadd.cli"]))
    m["cli.import_ms"] = ((statistics.median(imported) - statistics.median(bare)) * 1e3, "ms")
    return m, problems, checked
