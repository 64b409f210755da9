"""Seeded invariant suites runnable from the CLI.

Each suite draws cases from Python's Mersenne Twister with the given seed
and checks an exact invariant; any violation is echoed with exact literals.
Case magnitudes ramp up with the case index, so the first reported failure
is already a near-minimal one.  The generators build each field value from
the integers drawn for it, as one QNum triple.  Every integer is
`random.Random(seed).randint`'s draw, word for word (`_randint`), so a seed
gives the same cases, and the same reports, as it gave when the suites
called `randint`, on the same Python.

A suite yields one result per case, None when the case holds and its echo
when it fails, and `run_suite` alone counts the cases and stops at the first
echo.  `oracle` draws nothing: it ignores the seed and enumerates the 1770
aspect ratios q < p <= 60, so any `cases` above 1770 runs 1770.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import count, islice

from .geometry import Rect, split
from .numeric import QNum, ZERO, dyadic, from_numerators
from .rectfn import RectFunction, Table, check_additivity, corner_difference

__all__ = ["SuiteResult", "run_suite", "SUITE_NAMES"]


# The suite's name, the number of cases it ran, and the list of its
# violation echoes: empty, or the echo of the case it stopped at.
SuiteResult = namedtuple("SuiteResult", "name cases_run violations")


# -- generators -------------------------------------------------------------


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi) by its own rule, without its Python call chain: a
    word of (hi - lo + 1).bit_length() bits from `getrandbits`, redrawn while
    it is not below the width, so the same words are consumed in the same
    order."""
    w = hi - lo + 1
    k = w.bit_length()
    r = rng.getrandbits(k)
    while r >= w:
        r = rng.getrandbits(k)
    return lo + r


def _ramp(index: int, lo: int, hi: int) -> int:
    # magnitude cap grows with the index: early cases stay tiny
    return min(hi, lo + index // 8)


def rand_qnum(rng: random.Random, index: int = 64) -> QNum:
    """p/q, or p/q + (r/s)*sqrt2, from small drawn integers."""
    m = _ramp(index, 4, 30)
    p, q = _randint(rng, -m, m), _randint(rng, 1, 8)
    if rng.random() < 0.5:
        return from_numerators(p, 0, q)
    h = max(1, m // 2)
    r, s = _randint(rng, -h, h), _randint(rng, 1, 4)
    return from_numerators(p * s, r * q, q * s)


def rand_positive_side(rng: random.Random, index: int = 64) -> QNum:
    """A side length in roughly [1/4, 8], possibly with a sqrt2 part."""
    while True:
        p, q = _randint(rng, 1, 4 * _ramp(index, 2, 8)), _randint(rng, 1, 4)
        if rng.random() < 0.5:
            x = from_numerators(p, 0, q)
        else:
            # p/q + (r/4)*sqrt2
            r = (-1, 1)[_randint(rng, 0, 1)] * _randint(rng, 1, 4)
            x = from_numerators(4 * p, r * q, 4 * q)
        if x > dyadic(1, 2):
            return x


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
    axis = ("vertical", "horizontal")[_randint(rng, 0, 1)]
    t = dyadic(_randint(rng, 1, 15), 4)
    if axis == "vertical":
        c = r.x1 + r.width * t
    else:
        c = r.y1 + r.height * t
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
# Each suite is an endless generator over the one `random.Random(seed)` it
# is given; `oracle`'s ends after its 1770 pairs.  A suite that decomposes
# imports `decompose` when it starts, so `field` and `additivity` never load it.


def _suite_field(rng: random.Random):
    for i in count():
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
                yield f"{what}: p={p} q={q} r={r}"
                break
        else:
            yield None


def _suite_additivity(rng: random.Random):
    for i in count():
        r = rand_rect(rng, i)
        axis, c = rand_split_params(rng, r)
        r1, r2 = split(r, axis, c)
        F = rand_table_function(rng, _rect_corner_points([r, r1, r2]))
        disc = check_additivity(F, r, axis, c)
        yield f"rect={r.literal()} axis={axis} c={c} discrepancy={disc}" if disc != 0 else None


def _decomposition_cases(rng: random.Random):
    from .decompose import decompose
    for i in count():
        r = rand_rect(rng, i)
        yield r, decompose(r, max_steps=_randint(rng, 1, 24))


def _suite_tiling(rng: random.Random):
    for r, d in _decomposition_cases(rng):
        total = sum((sq.area() for sq in d.all_squares()), ZERO)
        if d.remainder is not None:
            total = total + d.remainder.area()
        yield f"rect={r.literal()} area={r.area()} tiled={total}" if total != r.area() else None


def _suite_halving(rng: random.Random):
    """`verify_halving`'s certificate on the frame's integers, then the decay
    bound sides[j] <= sides[1] * 2^-floor((j-1)/2) in QNum arithmetic.  The
    certificate proves a greedy trace a Euclid chain, S[n] = c[n]*S[n+1] +
    S[n+2] with counts >= 1, a positive last side and a non-negative last
    link, hence positive, non-increasing and halving every two steps.  That
    implies every decay bound by induction on j, so the decay loop can fail
    only where the certificate is wrong: it is the suite's only
    QNum-arithmetic cross-check of the certificate, and is kept for that."""
    from .decompose import verify_halving
    for r, d in _decomposition_cases(rng):
        bad = verify_halving(d).failure
        if bad is not None:
            yield f"rect={r.literal()} {bad.kind}@{bad.index}: {bad.lhs} > {bad.rhs}"
            continue
        # quantitative decay: sides[n] <= sides[1] * (1/2)^floor((n-1)/2)
        sides = d.sides
        for j in range(1, len(sides)):
            bound = sides[1] * dyadic(1, (j - 1) // 2)
            if sides[j] > bound:
                yield f"rect={r.literal()} decay@{j}: {sides[j]} > {bound}"
                break
        else:
            yield None


def _suite_oracle(rng: random.Random):
    # deterministic enumeration of integer aspect ratios q < p <= 60,
    # lexicographic: 1770 pairs, whatever the seed
    from .decompose import continued_fraction_counts, decompose
    for p in range(2, 61):
        for q in range(1, p):
            r = Rect(QNum(0), QNum(p), QNum(0), QNum(q))
            d = decompose(r, max_steps=200)
            cf = continued_fraction_counts(r, max_terms=200)
            failed = not d.terminated or d.counts != cf
            yield f"p={p} q={q} counts={d.counts} cf={cf}" if failed else None


def _suite_telescope(rng: random.Random):
    from .decompose import decompose, telescope
    for i in count():
        r = rand_rect(rng, i)
        d = decompose(r, max_steps=_randint(rng, 1, 20))
        tiles = d.all_squares()
        if d.remainder is not None:
            tiles.append(d.remainder)
        F = rand_table_function(rng, _rect_corner_points(tiles + [r]))
        total = telescope(F, d)
        direct = F.value(r)
        yield f"rect={r.literal()} telescoped={total} direct={direct}" if total != direct else None


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
    for n, echo in enumerate(islice(_SUITES[name](random.Random(seed)), cases), 1):
        if echo is not None:
            return SuiteResult(name, n, [echo])
    return SuiteResult(name, n, [])
