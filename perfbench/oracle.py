"""Known answers computed on plain integers and Fractions, independent of
rectadd.

A quadratic irrational is carried as an integer triple (p, q, r) meaning
(p + q*sqrt2)/r with r > 0; a field value for display is a pair of Fractions
(a, b) meaning a + b*sqrt2.  Nothing here imports the package under test.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Pair = tuple[Fraction, Fraction]


def floor_q2(p: int, q: int, r: int) -> int:
    """floor((p + q*sqrt2)/r) for r > 0, by an exact integer square root."""
    if q == 0:
        return p // r
    s = math.isqrt(2 * q * q)  # floor(|q|*sqrt2); never exact since q != 0
    return (p + s) // r if q > 0 else (p - s - 1) // r


def cf_terms(p: int, q: int, r: int, n: int) -> list[int]:
    """First n continued-fraction terms of (p + q*sqrt2)/r > 0, fewer when the
    expansion ends (rational input): Euclid's quotients when q == 0."""
    terms: list[int] = []
    while len(terms) < n:
        a = floor_q2(p, q, r)
        terms.append(a)
        p -= a * r
        if p == 0 and q == 0:
            break
        # 1 / ((p + q*sqrt2)/r) = r*(p - q*sqrt2) / (p^2 - 2q^2)
        p, q, r = r * p, -r * q, p * p - 2 * q * q
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(p, q), r)
        p, q, r = p // g, q // g, r // g
    return terms


def pair_of(p: int, q: int, r: int) -> Pair:
    return Fraction(p, r), Fraction(q, r)


def triple_of(v: Pair) -> tuple[int, int, int]:
    a, b = v
    r = math.lcm(a.denominator, b.denominator)
    return int(a * r), int(b * r), r


def pair_mul(u: Pair, v: Pair) -> Pair:
    return u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def ratio(num: tuple[int, int, int], den: tuple[int, int, int]) -> tuple[int, int, int]:
    """(p, q, r) of num/den for two positive triples."""
    (a1, b1, d1), (a2, b2, d2) = num, den
    p = d2 * (a1 * a2 - 2 * b1 * b2)
    q = d2 * (b1 * a2 - a1 * b2)
    r = d1 * (a2 * a2 - 2 * b2 * b2)
    if r < 0:
        p, q, r = -p, -q, -r
    g = math.gcd(math.gcd(p, q), r)
    return p // g, q // g, r // g


def packing(longer: Pair, shorter: Pair, max_steps: int) -> tuple[list[int], int, int, bool]:
    """Greedy packing of a longer x shorter rectangle cut off at max_steps:
    (continued-fraction terms, steps, packed squares, terminated)."""
    terms = cf_terms(*ratio(triple_of(longer), triple_of(shorter)), max_steps + 1)
    steps = min(len(terms), max_steps)
    return terms, steps, sum(terms[:steps]), len(terms) <= max_steps


def side_trace(longer: Pair, shorter: Pair, terms: list[int], steps: int) -> list[Pair]:
    """Shorter side at entry to each greedy step, preceded by the longer side:
    s[k+1] = s[k-1] - a_k * s[k], one entry per step plus one."""
    sides = [longer, shorter]
    for a in terms[: steps - 1]:
        (pa, pb), (ca, cb) = sides[-2], sides[-1]
        sides.append((pa - a * ca, pb - a * cb))
    return sides


def literal(v: Pair) -> str:
    """The package's exact literal grammar: `p/q` or `p/q+r/s*sqrt2`."""
    a, b = v
    if b == 0:
        return str(a)
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt2"


def witness_gaps(max_order: int) -> list[str]:
    """Exact gaps F(W) - S_n, n = 1..max_order, of the counterexample on
    W = [0,1]x[1,sqrt2]: F(W) = -1 and S_n is the area of the inner cover,
    whose rows run from ceil(2^n) to floor(sqrt2 * 2^n)."""
    return [
        str(-1 - Fraction(math.isqrt(2 << (2 * n)) - (1 << n), 1 << n))
        for n in range(1, max_order + 1)
    ]


def truncated_root2_power(e: Fraction, digits: int) -> int:
    """floor(10^digits * 2^e) for rational e, by integer bisection on
    m^den <= 10^(digits*den) * 2^num."""
    num, den = e.numerator, e.denominator
    top, bottom = 10 ** (digits * den), 1
    if num >= 0:
        top <<= num
    else:
        bottom <<= -num
    lo, hi = 0, 1 << (top.bit_length() // den + 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**den * bottom <= top:
            lo = mid
        else:
            hi = mid
    return lo


_DIGITS = re.compile(r"\d+")


def literal_bits(literals) -> int:
    """Largest numerator or denominator bit-length in exact literals."""
    return max(
        (int(t).bit_length() for s in literals for t in _DIGITS.findall(s.replace("*sqrt2", ""))),
        default=0,
    )
