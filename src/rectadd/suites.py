"""Seeded invariant suites runnable from the CLI.

Each suite draws cases from Python's Mersenne Twister with the given seed
and checks an exact invariant; any violation is echoed with exact literals.
Case magnitudes ramp up with the case index, so the first reported failure
is already a near-minimal one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .decompose import decompose, telescope, verify_halving, continued_fraction_counts
from .geometry import Rect, split
from .numeric import QNum, ZERO
from .rectfn import RectFunction, Table, check_additivity, corner_difference

__all__ = ["SuiteResult", "run_suite", "SUITE_NAMES"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases_run: int
    violations: list[str]


# -- generators -------------------------------------------------------------


def _ramp(index: int, lo: int, hi: int) -> int:
    # magnitude cap grows with the index: early cases stay tiny
    return min(hi, lo + index // 8)


def rand_fraction(rng: random.Random, max_num: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_qnum(rng: random.Random, index: int = 64, rational_only: bool = False) -> QNum:
    m = _ramp(index, 4, 30)
    a = rand_fraction(rng, m, 8)
    if rational_only or rng.random() < 0.5:
        return QNum(a)
    return QNum(a, rand_fraction(rng, max(1, m // 2), 4))


def rand_positive_side(rng: random.Random, index: int = 64) -> QNum:
    """A side length in roughly [1/4, 8], possibly with a sqrt2 part."""
    while True:
        a = Fraction(rng.randint(1, 4 * _ramp(index, 2, 8)), rng.randint(1, 4))
        if rng.random() < 0.5:
            q = QNum(a)
        else:
            q = QNum(a, Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), 4))
        if q > Fraction(1, 4):
            return q


def rand_rect(rng: random.Random, index: int = 64) -> Rect:
    x1 = rand_qnum(rng, index)
    y1 = rand_qnum(rng, index)
    return Rect(
        x1,
        x1 + rand_positive_side(rng, index),
        y1,
        y1 + rand_positive_side(rng, index),
    )


def rand_split_params(rng: random.Random, r: Rect):
    axis = rng.choice(["vertical", "horizontal"])
    t = Fraction(rng.randint(1, 15), 16)
    if axis == "vertical":
        c = r.x1 + r.width * QNum(t)
    else:
        c = r.y1 + r.height * QNum(t)
    return axis, c


def rand_table_function(rng: random.Random, points) -> RectFunction:
    """Corner-difference function of a random finite table over `points`,
    one value drawn per point in the order `points` gives them."""
    table = {p: rand_qnum(rng) for p in points}
    return corner_difference(Table(table))


def _rect_corner_points(rects) -> dict:
    """The corner points of `rects` in order of first appearance (as dict
    keys), so the values a seed draws over them do not depend on how the
    points hash."""
    return dict.fromkeys(p for r in rects for p in r.corners())


# -- suites -------------------------------------------------------------------


def _suite_field(cases: int, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    violations = []
    for i in range(cases):
        p, q, r = (rand_qnum(rng, i) for _ in range(3))
        checks = [
            ((p + q) + r == p + (q + r), "add associativity"),
            ((p * q) * r == p * (q * r), "mul associativity"),
            (p + q == q + p, "add commutativity"),
            (p * q == q * p, "mul commutativity"),
            (p * (q + r) == p * q + p * r, "distributivity"),
        ]
        if q:
            checks.append(((p / q) * q == p, "div/mul round trip"))
        for ok, what in checks:
            if not ok:
                violations.append(f"{what}: p={p} q={q} r={r}")
                return SuiteResult("field", i + 1, violations)
    return SuiteResult("field", cases, violations)


def _suite_additivity(cases: int, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    violations = []
    for i in range(cases):
        r = rand_rect(rng, i)
        axis, c = rand_split_params(rng, r)
        r1, r2 = split(r, axis, c)
        F = rand_table_function(rng, _rect_corner_points([r, r1, r2]))
        disc = check_additivity(F, r, axis, c)
        if disc != 0:
            violations.append(f"rect={r.literal()} axis={axis} c={c} discrepancy={disc}")
            return SuiteResult("additivity", i + 1, violations)
    return SuiteResult("additivity", cases, violations)


def _decomposition_cases(cases: int, seed: int):
    rng = random.Random(seed)
    for i in range(cases):
        r = rand_rect(rng, i)
        yield i, r, decompose(r, max_steps=rng.randint(1, 24))


def _suite_tiling(cases: int, seed: int) -> SuiteResult:
    violations = []
    n = 0
    for i, r, d in _decomposition_cases(cases, seed):
        n = i + 1
        total = sum((sq.area() for sq in d.all_squares()), ZERO)
        if d.remainder is not None:
            total = total + d.remainder.area()
        if total != r.area():
            violations.append(f"rect={r.literal()} area={r.area()} tiled={total}")
            break
    return SuiteResult("tiling", n, violations)


def _suite_halving(cases: int, seed: int) -> SuiteResult:
    violations = []
    n = 0
    for i, r, d in _decomposition_cases(cases, seed):
        n = i + 1
        cert = verify_halving(d)
        if not cert.ok:
            bad = next(c for c in cert.checks if not c.holds)
            violations.append(
                f"rect={r.literal()} {bad.kind}@{bad.index}: {bad.lhs} > {bad.rhs}"
            )
            break
        # quantitative decay: sides[n] <= sides[1] * (1/2)^floor((n-1)/2)
        for j in range(1, len(d.sides)):
            bound = d.sides[1] * QNum(Fraction(1, 2 ** ((j - 1) // 2)))
            if d.sides[j] > bound:
                violations.append(
                    f"rect={r.literal()} decay@{j}: {d.sides[j]} > {bound}"
                )
                return SuiteResult("halving", n, violations)
    return SuiteResult("halving", n, violations)


def _suite_oracle(cases: int, seed: int) -> SuiteResult:
    # deterministic enumeration of integer aspect ratios q < p <= 60,
    # lexicographic; `cases` caps how many pairs are checked
    violations = []
    n = 0
    for p in range(2, 61):
        for q in range(1, p):
            if n >= cases:
                return SuiteResult("oracle", n, violations)
            n += 1
            r = Rect(QNum(0), QNum(p), QNum(0), QNum(q))
            d = decompose(r, max_steps=200)
            cf = continued_fraction_counts(r, max_terms=200)
            if not d.terminated or d.counts != cf:
                violations.append(f"p={p} q={q} counts={d.counts} cf={cf}")
                return SuiteResult("oracle", n, violations)
    return SuiteResult("oracle", n, violations)


def _suite_telescope(cases: int, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    violations = []
    for i in range(cases):
        r = rand_rect(rng, i)
        d = decompose(r, max_steps=rng.randint(1, 20))
        tiles = d.all_squares()
        if d.remainder is not None:
            tiles.append(d.remainder)
        F = rand_table_function(rng, _rect_corner_points(tiles + [r]))
        total = telescope(F, d)
        direct = F.value(r)
        if total != direct:
            violations.append(
                f"rect={r.literal()} telescoped={total} direct={direct}"
            )
            return SuiteResult("telescope", i + 1, violations)
    return SuiteResult("telescope", cases, violations)


_SUITES = {
    "field": _suite_field,
    "additivity": _suite_additivity,
    "tiling": _suite_tiling,
    "halving": _suite_halving,
    "oracle": _suite_oracle,
    "telescope": _suite_telescope,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(name: str, *, cases: int, seed: int) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if cases < 1:
        raise ValueError("cases must be >= 1")
    return _SUITES[name](cases, seed)
