"""Machine-checked reports for the library's headline constructions.

Each command returns a Report whose findings carry exact field values next
to display decimals; a finding is `verified` or `violated` only when the
claim is exactly decidable, and sampled liminf evidence is always
`evidence-only`.  Reports serialize to JSON (schema 1) and decompositions
render to static SVG.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Optional

from .decompose import Decomposition, decompose, telescope, verify_halving
from .geometry import (
    DyadicSquare, Rect, coarser_cover_span, dyadic_inner_cover_rect, dyadic_inner_cover_span, parse_rect,
)
from .numeric import (
    ONE, QNum, SQRT2, ZERO, _SQRT2_FLOAT, _floor, _sign2, dyadic, from_numerators, numerators, parse_qnum, qnum,
)
from .rectfn import RectFunction, liminf_quotient_probe, named_rect_function

__all__ = [
    "Finding",
    "Report",
    "report_to_dict",
    "write_report_json",
    "write_decomposition_svg",
    "cmd_counterexample",
    "cmd_decompose",
    "cmd_dyadic_approx",
    "cmd_probe",
    "cmd_proptest",
]

SCHEMA_VERSION = 1
DISPLAY_DIGITS = 6
# Most packed squares `cmd_decompose` accepts.  Only the SVG visits every
# square: through the CLI, 200,000 tiles take about 0.6 s and 106 MB with an
# SVG and 0.16 s and 16 MB without, on a 2-core x86 box (Python 3.11).
MAX_TILES = 200_000
# Most greedy steps `cmd_decompose` takes.  The coefficients of an irrational
# rectangle grow every step, so the cost grows faster than the step count:
# through the CLI, `[0,355/113+1/1000*sqrt2]x[0,1]` takes 0.20 s at 1000
# steps and 0.46 s at 2000, and `[0,1+1*sqrt2]x[0,1]` 0.18 s at 1000, on
# the same box.
MAX_STEPS = 1000
# Largest denominator q of `cmd_probe`'s alpha.  A quotient outside the field
# is rendered through a q-th power and a q-th root: with 4 offsets, depth 4
# takes 0.03 s at q = 997 and 0.12 s at q = 1999 in process on the same box.
MAX_ALPHA_DENOMINATOR = 1000
# Most work `cmd_probe` may spend on quotients outside the field, for an
# alpha p/q with q not dividing 4: offsets times the sum over the scales j of
# (q*(j + 20))^2.  Such a quotient's digits come from a q-th power of about
# 2q(j + 20) bits (APPROX_DIGITS digits are 40 bits, and the area at scale j
# adds up to 2j), and the time grows about with the square of that size.
# Near alpha 2 with q = 997, the slowest kind, the budget admits 4 offsets at
# depth 4 and 1 offset at depth 13 (0.03 s each in process on the same box);
# 1 offset at depth 40 takes 0.23 s.  The square overstates the work of
# small q.
MAX_ROOT_WORK = 10**10
# Most digits in either part of a `p/q` alpha, past leading zeros.  An alpha
# in [0, 2] within the denominator budget has at most 4 digits in lowest
# terms; Python refuses to convert more digits than its int-string limit,
# which cannot be set below 640.
MAX_ALPHA_DIGITS = 100
# Most squares `cmd_counterexample` samples, and the largest mesh order it
# draws them from.  A sample costs a few integer operations on numbers of
# about twice its order in bits: through the CLI, 100,000 samples take 0.17 s
# at the default orders and 0.31 s all at order 1000, and 2.3 s all at order
# 10,000 with the budget raised (median of 3 on a 2-CPU x86_64 host, Python
# 3.11.7).  MAX_ORDER also bounds `cmd_dyadic_approx`, which evaluates one
# cover per order up to its max_order: through the CLI, the witness takes
# 0.1 s up to order 1000 and 0.2 s up to order 2000 with the budget raised,
# of which the command itself takes 0.02 s and 0.11 s in process; the rest
# is the launch.
MAX_SAMPLES = 100_000
MAX_ORDER = 1000
# Most cases `cmd_proptest` runs.  Through the CLI, the slowest suite,
# telescope, takes 1.5 s at 3000 cases and 2.4 s at 5000, and field 0.16 s
# at 5000 (median of 9 on the same host).
MAX_CASES = 5000
# Most squares `cmd_probe` samples, depth times offsets, at a depth of at most
# MAX_ORDER (a probe scale 2^-j is a mesh order).  Through the CLI at alpha 1,
# 20,000 squares take 0.45 s at depth 12, 0.55 s at 100 and 1.0 s at 1000
# (median of 3 on the same host).
MAX_PROBE_SQUARES = 20_000

VERIFIED = "verified"
VIOLATED = "violated"
EVIDENCE = "evidence-only"

# Canonical witness: unit-width rectangle sitting on the rational line y = 1
# with irrational top edge y = sqrt2.
WITNESS_RECT = Rect(ZERO, ONE, ONE, SQRT2)


# A claim, its status, and tuples of exact literals and display decimals.
Finding = namedtuple("Finding", "claim status exact_values approximations", defaults=((), ()))


class Report(namedtuple("Report", "command inputs findings")):
    """A command's name, the dict of its inputs, and its tuple of Findings."""

    __slots__ = ()

    @property
    def exit_status(self) -> int:
        return 1 if any(f.status == VIOLATED for f in self.findings) else 0


def _lits(*values: QNum) -> tuple[str, ...]:
    return tuple(v.literal() for v in values)


def _approxs(*values: QNum) -> tuple[str, ...]:
    return tuple(v.approximate(DISPLAY_DIGITS) for v in values)


def report_to_dict(report: Report, timestamp: Optional[str] = None) -> dict:
    """JSON-ready dict.  `generated_at` is the only field excluded from
    byte-for-byte determinism guarantees."""
    if timestamp is None:
        from datetime import datetime, timezone  # on use: a CLI launch without --json skips it

        timestamp = datetime.now(timezone.utc).isoformat()
    return {
        "schema": SCHEMA_VERSION,
        "command": report.command,
        "generated_at": timestamp,
        "inputs": report.inputs,
        "findings": [
            {
                "claim": f.claim,
                "status": f.status,
                "exact_values": list(f.exact_values),
                "approximations": list(f.approximations),
            }
            for f in report.findings
        ],
        "exit_status": report.exit_status,
    }


def write_report_json(report: Report, path: str) -> None:
    import json  # on use: a CLI launch without --json skips it

    # one write of the whole text: json.dump writes once per encoder chunk
    text = json.dumps(report_to_dict(report), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# counterexample


def cmd_counterexample(
    *,
    min_order: int = 0,
    max_order: int = 12,
    samples: int = 1000,
    seed: int = 7,
    function: str = "counterexample",
) -> Report:
    """Check F = area > 0 on random dyadic squares, then evaluate F on the
    witness rectangle [0,1]x[1,sqrt2] and test its strict negativity.

    Dyadic squares are drawn as (order, k, m) with order uniform on
    [min_order, max_order] and k, m uniform on [-2^15, 2^15], using Python's
    seeded Mersenne Twister so identical seeds reproduce identical reports.
    They are `random.Random(seed).randint`'s draws, taken straight from
    `getrandbits` by its rule, so no Python call runs around each word.
    Each square is checked on integer numerators: F of the order-n mesh
    square [k, k+1]x[m, m+1] comes from one `rect_kernel` call on its
    numerators over 2^n as (a + b*sqrt2)/D, and the area is 1 over 4^n, so
    F equals the area exactly when b == 0 and a*4^n == D.  That test settles
    positivity too, with no sign test of a: the kernel's D is positive, so
    a*4^n == D puts a > 0.  The square, its `Rect` and F's value are built
    only for one that fails.  More than MAX_SAMPLES samples or a
    max_order above MAX_ORDER are refused before any square is drawn.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples above {MAX_SAMPLES} (the sample budget of counterexample)")
    if not (0 <= min_order <= max_order):
        raise ValueError("need 0 <= min_order <= max_order")
    if max_order > MAX_ORDER:
        raise ValueError(f"max_order above {MAX_ORDER} (the mesh-order budget of counterexample)")
    F = named_rect_function(function)
    kernel = F.point_fn.rect_kernel
    # n, k and m are drawn as random.Random(seed).randint draws them, word
    # for word: a word of the width's bit length, redrawn while it is not
    # below the width
    bits = random.Random(seed).getrandbits
    n_width = max_order - min_order + 1
    n_bits = n_width.bit_length()
    km_width = 2**16 + 1
    km_bits = km_width.bit_length()
    bad: Optional[DyadicSquare] = None
    for _ in range(samples):
        n = bits(n_bits)
        while n >= n_width:
            n = bits(n_bits)
        k = bits(km_bits)
        while k >= km_width:
            k = bits(km_bits)
        m = bits(km_bits)
        while m >= km_width:
            m = bits(km_bits)
        n, k, m = n + min_order, k - 2**15, m - 2**15
        a, b, D = kernel([k, k + 1, m, m + 1], [0, 0, 0, 0], 1 << n)
        if b or a << 2 * n != D:
            bad, bad_value = DyadicSquare(n, k, m), from_numerators(a, b, D)
            break
    findings = []
    if bad is None:
        findings.append(
            Finding(
                claim=f"F equals the area and is positive on all {samples} sampled "
                f"dyadic squares (orders {min_order}..{max_order})",
                status=VERIFIED,
            )
        )
    else:
        findings.append(
            Finding(
                claim="F equals the area and is positive on every sampled dyadic square",
                status=VIOLATED,
                exact_values=(bad.to_rect().literal(), bad_value.literal()),
                approximations=_approxs(bad_value),
            )
        )
    witness_value = F.value(WITNESS_RECT)
    negative = witness_value.sign() < 0
    findings.append(
        Finding(
            claim=f"F({WITNESS_RECT.literal()}) is strictly negative",
            status=VERIFIED if negative else VIOLATED,
            exact_values=_lits(witness_value),
            approximations=_approxs(witness_value),
        )
    )
    if function == "counterexample":
        findings.append(
            Finding(
                claim="witness value equals -1 exactly",
                status=VERIFIED if witness_value == -1 else VIOLATED,
                exact_values=_lits(witness_value),
            )
        )
    return Report(
        command="counterexample",
        inputs={
            "min_order": min_order,
            "max_order": max_order,
            "samples": samples,
            "seed": seed,
            "function": function,
        },
        findings=tuple(findings),
    )


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(
    *,
    rect: "Rect | str",
    max_steps: int = 20,
    function: str = "counterexample",
    svg_path: Optional[str] = None,
) -> Report:
    """Run the greedy decomposition and certify tiling, halving, and
    telescoping exactly; optionally render the figure to SVG.

    The tiling claim, the halving check, telescoping and the SVG read the
    decomposition's integer frame (`Decomposition.frame`), so the run makes
    one `numerators` call, the decomposition's own; all but the SVG cost
    O(steps).  The SVG visits every packed square, so more than MAX_TILES
    squares are refused with a ValueError before any square is enumerated,
    with or without an SVG so that the exit code does not depend on it; more
    than MAX_STEPS steps are refused before the decomposition starts.
    """
    if max_steps > MAX_STEPS:
        raise ValueError(f"max_steps above {MAX_STEPS} (the step budget of the decomposition)")
    r = parse_rect(rect) if isinstance(rect, str) else rect
    d = decompose(r, max_steps)
    if d.total_squares > MAX_TILES:
        raise ValueError(
            f"the decomposition packs more than {MAX_TILES} squares "
            "(the tile budget of the SVG)"
        )
    findings = []

    # count * side^2 summed on the sides' numerators over the frame's L: a
    # side (a + b*sqrt2)/L squares to (a^2 + 2b^2 + 2ab*sqrt2)/L^2
    As, Bs, L = d.frame
    A = sum(s.count * (a * a + 2 * b * b) for s, a, b in zip(d.steps, As[8::3], Bs[8::3]))
    B = sum(s.count * 2 * a * b for s, a, b in zip(d.steps, As[8::3], Bs[8::3]))
    if d.remainder is not None:
        # the remainder's area (x2 - rx)*(y2 - ry), its corner rx, ry over L
        wa, wb, ha, hb = As[1] - As[4], Bs[1] - Bs[4], As[3] - As[5], Bs[3] - Bs[5]
        A, B = A + wa * ha + 2 * wb * hb, B + wa * hb + wb * ha
    tiled, area = from_numerators(A, B, L * L), r.area()
    findings.append(
        Finding(
            claim=f"{d.total_squares} squares in {len(d.steps)} steps "
            f"(terminated={d.terminated}) tile the rectangle exactly",
            status=VERIFIED if tiled == area else VIOLATED,
            exact_values=_lits(area, tiled),
            approximations=_approxs(area),
        )
    )

    sides = d.sides
    findings.append(
        Finding(
            claim="side trace is monotone and halves at least every two steps",
            status=VERIFIED if verify_halving(d).ok else VIOLATED,
            exact_values=_lits(*sides),
            approximations=_approxs(*sides),
        )
    )

    F = named_rect_function(function)
    total = telescope(F, d)
    direct = F.value(r)
    findings.append(
        Finding(
            claim=f"sum of F over the tiles equals F(rectangle) exactly (F={F.label})",
            status=VERIFIED if total == direct else VIOLATED,
            exact_values=_lits(total, direct),
            approximations=_approxs(total, direct),
        )
    )

    if svg_path is not None:
        drawn = write_decomposition_svg(d, svg_path)
        findings.append(
            Finding(
                claim=f"SVG at {svg_path} draws one element per packed square",
                status=VERIFIED if drawn == d.total_squares else VIOLATED,
                exact_values=(str(drawn), str(d.total_squares)),
            )
        )

    return Report(
        command="decompose",
        inputs={
            "rect": r.literal(),
            "max_steps": max_steps,
            "function": function,
            "svg": svg_path,
        },
        findings=tuple(findings),
    )


# ---------------------------------------------------------------------------
# dyadic-approx


def inner_cover_sum(F: RectFunction, r: Rect, order: int) -> QNum:
    """Sum of F over the order-n inner cover of r, computed in O(1).

    The cover is a full grid of mesh squares, so for an additive
    corner-difference F the sum telescopes to F of the covered rectangle;
    no per-square enumeration is needed at any order.
    """
    covered = dyadic_inner_cover_rect(r, order)
    return ZERO if covered is None else F.value(covered)


def shrink_bound(r: Rect, order: int) -> QNum:
    """Inner-approximation error bound 2^(1-n)*(w+h) + 4*4^(-n)."""
    return (r.width + r.height) * dyadic(2, order) + dyadic(4, 2 * order)


def cmd_dyadic_approx(
    *,
    rect: "Rect | str",
    function: str = "product",
    max_order: int = 6,
) -> Report:
    """Compare F(rect) against sums of F over inner dyadic covers of rising
    order; the per-order gaps are exact.

    A function continuous in measure must see |gap| fall inside the shrink
    bound at every order, which is the decidable claim checked here; the
    per-order gap trail itself is reported as evidence.  A max_order above
    MAX_ORDER is refused before any cover is computed.

    The gaps and bounds are `inner_cover_sum` and `shrink_bound` computed on
    integers: the cover spans take one exact floor per coordinate, at
    max_order, and every lower order's span is that one shifted
    (`coarser_cover_span`).  F of a cover comes from the point function's
    `rect_kernel` on the span over 2^n, as `cmd_counterexample` takes a
    mesh square, so no Rect is built per order.  Each gap is formed on the
    kernel's integers and target's triple and normalised once, and |gap| is
    compared with the bound by one `_sign2` on cross-multiplied integers, so
    no bound QNum is built either.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if max_order > MAX_ORDER:
        raise ValueError(f"max_order above {MAX_ORDER} (the mesh-order budget of dyadic-approx)")
    r = parse_rect(rect) if isinstance(rect, str) else rect
    F = named_rect_function(function)
    kernel = F.point_fn.rect_kernel
    target = F.value(r)
    tA, tB, tD = target._A, target._B, target._D
    top = dyadic_inner_cover_span(r, max_order)
    # w + h over L, so that the shrink bound at order n is
    # (2^(n+1)*(w + h) + 4)/4^n, its numerators over L*4^n
    As, Bs, L = numerators(r)
    wa, wb = As[1] - As[0] + As[3] - As[2], Bs[1] - Bs[0] + Bs[3] - Bs[2]
    gaps: list[QNum] = []
    failures: list[int] = []
    for n in range(1, max_order + 1):
        k_lo, k_hi, m_lo, m_hi = coarser_cover_span(top, max_order - n)
        if k_lo < k_hi and m_lo < m_hi:
            # target minus the cover's value (a + b*sqrt2)/D, normalised once
            a, b, D = kernel([k_lo, k_hi, m_lo, m_hi], [0, 0, 0, 0], 1 << n)
            gap = from_numerators(tA * D - a * tD, tB * D - b * tD, tD * D)
        else:
            gap = target
        gaps.append(gap)
        # |gap| > bound: |gap|'s numerators over gD against the bound's over
        # L*4^n, each crossed over the other's denominator
        gA, gB, gD = gap._A, gap._B, gap._D
        if _sign2(gA, gB) < 0:
            gA, gB = -gA, -gB
        bA, bB = (wa << n + 1) + 4 * L, wb << n + 1
        if _sign2((gA * L << 2 * n) - bA * gD, (gB * L << 2 * n) - bB * gD) > 0:
            failures.append(n)
    # each failing gap is rendered once, in the trail
    lits, approxs = _lits(*gaps), _approxs(*gaps)
    findings = [
        Finding(
            claim=f"|F(rect) - inner cover sum| obeys the shrink bound "
            f"2^(1-n)(w+h)+4*4^(-n) for n=1..{max_order}"
            + (f" (fails at orders {failures})" if failures else ""),
            status=VIOLATED if failures else VERIFIED,
            exact_values=tuple(lits[n - 1] for n in failures),
            approximations=tuple(approxs[n - 1] for n in failures),
        ),
        Finding(
            claim=f"exact gaps F(rect) - S_n for n = 1..{max_order}",
            status=EVIDENCE,
            exact_values=lits,
            approximations=approxs,
        ),
    ]
    return Report(
        command="dyadic-approx",
        inputs={"rect": r.literal(), "function": function, "max_order": max_order},
        findings=tuple(findings),
    )


# ---------------------------------------------------------------------------
# probe


_ALPHA_DENOMINATOR_REFUSAL = (
    f"alpha has a denominator above {MAX_ALPHA_DENOMINATOR} "
    "(the budget of a non-field quotient's q-th root)"
)
_ALPHA_RANGE_REFUSAL = "alpha must lie in [0, 2]"
_ALPHA_ZERO_REFUSAL = "alpha has a zero denominator"
_ALPHA_DIGITS_REFUSAL = (
    f"alpha has a numerator or denominator of more than {MAX_ALPHA_DIGITS} digits "
    "(the digit budget of alpha)"
)


def _alpha_from_text(text: str) -> Fraction:
    """Fraction(text) for a probe's alpha, refusing first a `p/q` or plain
    decimal whose digits alone put alpha outside [0, 2] or its denominator
    above MAX_ALPHA_DENOMINATOR, then a `p/q` with a part of more than
    MAX_ALPHA_DIGITS digits, so a long numeral is neither converted
    (Python refuses more than 4300 digits) nor printed.  A zero denominator
    is refused by name, not by Fraction's ZeroDivisionError.

    Past its leading zeros, a numerator with 2 digits more than its
    denominator gives alpha >= 10, and a denominator with more digits than
    the budget beyond the numerator's gives q/p above the budget.  A
    decimal with n significant places, its last digit nonzero, has a
    denominator of at least 2^n.
    """
    if "e" in text.lower():
        # Fraction('1e-1000000') alone would build a million-digit integer
        raise ValueError(f"alpha {text!r} has an exponent; write it as p/q or a decimal")
    body = text.strip()
    negative = body.startswith("-")
    if body[:1] in ("+", "-"):
        body = body[1:]
    p, slash, q = body.partition("/")
    if slash and p.isdecimal() and q.isdecimal():
        p, q = p.lstrip("0"), q.lstrip("0")
        if p and q and (negative or len(p) > len(q) + 1):
            raise ValueError(_ALPHA_RANGE_REFUSAL)
        if p and len(q) > len(p) + len(str(MAX_ALPHA_DENOMINATOR)):
            raise ValueError(_ALPHA_DENOMINATOR_REFUSAL)
        if max(len(p), len(q)) > MAX_ALPHA_DIGITS:
            raise ValueError(_ALPHA_DIGITS_REFUSAL)
        text = f"{p or 0}/{q or 0}"  # read below, within the digit budget
    whole, _, places = body.partition(".")
    if not slash and (whole + places).isdecimal():
        whole, places = whole.lstrip("0"), places.rstrip("0")
        if (whole or places) and (negative or len(whole) > 1):
            raise ValueError(_ALPHA_RANGE_REFUSAL)
        if len(places) >= MAX_ALPHA_DENOMINATOR.bit_length():
            raise ValueError(_ALPHA_DENOMINATOR_REFUSAL)
        return Fraction(f"{whole or 0}.{places or 0}")
    try:
        return Fraction(text)  # Fraction's own reading, or its refusal
    except ZeroDivisionError:
        raise ValueError(_ALPHA_ZERO_REFUSAL) from None


def cmd_probe(
    *,
    function: str = "product",
    point: "tuple | str" = (Fraction(1, 2), Fraction(1, 2)),
    alpha: "Fraction | str" = Fraction(1),
    depth: int = 4,
    offsets: int = 3,
    within: "Rect | str | None" = None,
) -> Report:
    """Sample quotients F(Q)/|Q|^alpha on shrinking squares containing the
    point.  Finite samples cannot certify a liminf, so every finding is
    evidence-only and the report can never come out `verified`.

    `point` is a pair of coordinates or the text `x,y` of two QNum literals;
    `alpha` is a Fraction or text `Fraction` accepts without an exponent,
    such as `3/2` or `0.5`.  With `within`, each scale's claim also counts
    its squares that lie inside that rectangle.  A depth above MAX_ORDER,
    more than MAX_PROBE_SQUARES squares, or an alpha whose quotients leave
    the field with more work than MAX_ROOT_WORK is refused before any
    square is sampled.
    """
    if depth > MAX_ORDER:
        raise ValueError(f"depth above {MAX_ORDER} (the mesh-order budget of probe)")
    if depth * offsets > MAX_PROBE_SQUARES:
        raise ValueError(f"depth * offsets above {MAX_PROBE_SQUARES} (the square budget of probe)")
    coords = point.split(",") if isinstance(point, str) else point
    if len(coords) != 2:
        raise ValueError(f"point wants two coordinates 'x,y', got {point!r}")
    px, py = (parse_qnum(c) if isinstance(c, str) else qnum(c) for c in coords)
    alpha = _alpha_from_text(alpha) if isinstance(alpha, str) else Fraction(alpha)
    q = alpha.denominator
    if q > MAX_ALPHA_DENOMINATOR:
        raise ValueError(_ALPHA_DENOMINATOR_REFUSAL)
    if 4 % q and offsets * sum((q * (j + 20)) ** 2 for j in range(1, depth + 1)) > MAX_ROOT_WORK:
        raise ValueError(
            f"offsets * (q*(j+20))^2 summed over the scales j above {MAX_ROOT_WORK} "
            "(the root budget of an alpha whose quotients leave the field)"
        )
    F = named_rect_function(function)
    w = parse_rect(within) if isinstance(within, str) else within
    probe = liminf_quotient_probe(F, (px, py), alpha, depth, offsets, within=w)
    findings = []
    mins = []
    for scale in probe.scales:
        exact = [s.quotient for s in scale.samples if s.quotient is not None]
        if exact:
            mins.append(min(exact))
        flagged = sum(1 for s in scale.samples if s.flagged)
        desc = (
            f"scale 2^-{scale.level}: {len(scale.samples)} squares"
            + (f", {flagged} non-field quotients approximated" if flagged else "")
        )
        if w is not None:
            desc += f", {sum(1 for s in scale.samples if s.inside_within)} inside within"
        findings.append(
            Finding(
                claim=desc,
                status=EVIDENCE,
                exact_values=_lits(*exact),
                approximations=tuple(s.quotient_approx for s in scale.samples),
            )
        )
    findings.append(
        Finding(
            claim="per-scale minimum quotients (finite evidence, not a certificate)",
            status=EVIDENCE,
            exact_values=_lits(*mins),
            approximations=_approxs(*mins),
        )
    )
    return Report(
        command="probe",
        inputs={
            "function": function,
            "point": [px.literal(), py.literal()],
            "alpha": str(alpha),
            "depth": depth,
            "offsets": offsets,
            "within": w.literal() if w is not None else None,
        },
        findings=tuple(findings),
    )


# ---------------------------------------------------------------------------
# proptest


def cmd_proptest(*, suite: str, cases: int = 200, seed: int = 1) -> Report:
    """Run one named invariant suite with deterministic seeding.  More than
    MAX_CASES cases are refused before any case runs; `suites.run_suite`
    itself takes any number."""
    if cases > MAX_CASES:
        raise ValueError(f"cases above {MAX_CASES} (the case budget of proptest)")
    from . import suites  # on use: only proptest runs a suite

    result = suites.run_suite(suite, cases=cases, seed=seed)
    if result.violations:
        finding = Finding(
            claim=f"suite {suite}: invariant violated (case echo: {result.violations[0]})",
            status=VIOLATED,
            exact_values=tuple(result.violations),
        )
    else:
        finding = Finding(
            claim=f"suite {suite}: invariant held on {result.cases_run} cases",
            status=VERIFIED,
        )
    return Report(
        command="proptest",
        inputs={"suite": suite, "cases": cases, "seed": seed},
        findings=(finding,),
    )


# ---------------------------------------------------------------------------
# SVG rendering

_SVG_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
# A coordinate (A + B*sqrt2)/D in width units is drawn as the float sum
# A/D + (B/D)*sqrt2 while its terms stay below 2^20 units: the sum is then
# within 2^-30 units of the value, far below the 10^-3 px written.  Deep
# irrational traces have terms past 2^1000 that cancel to a tiny value and
# overflow a float, so there it is read from an integer floor of the value
# scaled by 2^64 instead.
_FLOAT_TERM_BITS = 20
_FLOOR_BITS = 64
# the drawn width of the original rectangle, margins aside
_WIDTH_PX = 720.0


def _floats(As: list[int], Bs: list[int], D: int) -> list[float]:
    """The coordinates (A + B*sqrt2)/D in width units as the SVG draws them,
    all one way: the way is decided once for the list, on bit lengths."""
    big = any(Bs) and max(max(As), -min(As), max(Bs), -min(Bs))
    if big and big.bit_length() - D.bit_length() >= _FLOAT_TERM_BITS:
        scale = 1 << _FLOOR_BITS
        return [_floor(A << _FLOOR_BITS, B << _FLOOR_BITS, D) / scale for A, B in zip(As, Bs)]
    return [A / D + (B / D) * _SQRT2_FLOAT for A, B in zip(As, Bs)]


def write_decomposition_svg(d: Decomposition, path: str) -> int:
    """Render the decomposition: packed squares outlined, remainder hatched.

    The viewport is scaled to the original rectangle and stroke width is
    proportional to the smallest packed square so deep traces stay legible.
    Returns the number of square elements written.
    """
    # Every coordinate is drawn in units of the width, so huge or tiny rectangles
    # give floats in range: the decomposition's frame holds the figure's values
    # over one L, and (A + B*sqrt2)/L over the width (wa + wb*sqrt2)/L is the
    # integer pair (A*wa - 2*B*wb, B*wa - A*wb) over the width's norm
    # N = wa^2 - 2*wb^2.
    As, Bs, _ = d.frame
    wa, wb = As[1] - As[0], Bs[1] - Bs[0]
    N = wa * wa - 2 * wb * wb
    if N < 0:
        N, wa, wb = -N, -wa, -wb
    As, Bs = [A * wa - 2 * B * wb for A, B in zip(As, Bs)], [B * wa - A * wb for A, B in zip(As, Bs)]
    # SVG y grows downward, so a rectangle's y is its top edge's distance
    # below the original's top edge y2
    (x1a, x2a, y1a, y2a), (x1b, x2b, y1b, y2b) = As[:4], Bs[:4]
    height, rem_x, rem_w, rem_h = _floats(
        [y2a - y1a, As[4] - x1a, x2a - As[4], y2a - As[5]],
        [y2b - y1b, Bs[4] - x1b, x2b - Bs[4], y2b - Bs[5]],
        N,
    )
    sides = _floats(As[8::3], Bs[8::3], N)
    margin = 8.0
    stroke = max(0.3, min(2.5, min(sides) * _WIDTH_PX * 0.04))

    def px(a: int, b: int) -> str:
        return f"{_floats([a], [b], N)[0] * _WIDTH_PX + margin:.3f}"

    def region_el(x: float, w: float, h: float, cls: str, fill: str) -> str:
        # every region drawn reaches up to the original's top edge
        return (
            f'  <rect class="{cls}" x="{x * _WIDTH_PX + margin:.3f}" y="{margin:.3f}" '
            f'width="{w * _WIDTH_PX:.3f}" height="{h * _WIDTH_PX:.3f}" '
            f'fill="{fill}" stroke="#000" stroke-width="{stroke:.3f}"/>'
        )

    square_style = f'fill="#fff" stroke="#000" stroke-width="{stroke:.3f}"'
    lines = [
        _SVG_HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH_PX + 2 * margin:.0f}" height="{height * _WIDTH_PX + 2 * margin:.0f}">',
        "  <defs>",
        '    <pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">',
        '      <line x1="0" y1="0" x2="0" y2="6" stroke="#777" stroke-width="1.2"/>',
        "    </pattern>",
        "  </defs>",
        region_el(0.0, 1.0, height, "original", "none"),
    ]
    first_square = len(lines)
    for i, (step, side) in enumerate(zip(d.steps, sides), 2):
        # Walk the squares of the step: t_k = t_0 ± k*u, the exact offset of
        # square k along the packing axis, is one integer addition over N.
        # Only t_k is formatted per square; the rest of the element is the step's.
        xa, ya, ua = As[3 * i : 3 * i + 3]
        xb, yb, ub = Bs[3 * i : 3 * i + 3]
        left, top = (xa - x1a, xb - x1b), (y2a - ya - ua, y2b - yb - ub)
        size = f"{side * _WIDTH_PX:.3f}"
        size_style = f'width="{size}" height="{size}" {square_style}/>'
        if step.along_x:
            a, b = left
            head, tail = '  <rect class="square" x="', f'" y="{px(*top)}" {size_style}'
        else:
            # up a vertical step is down the SVG: the bottom square comes first
            (a, b), ua, ub = top, -ua, -ub
            head, tail = f'  <rect class="square" x="{px(*left)}" y="', f'" {size_style}'
        n = step.count - 1
        ts = _floats([*accumulate(repeat(ua, n), initial=a)], [*accumulate(repeat(ub, n), initial=b)], N)
        lines.extend([f"{head}{t * _WIDTH_PX + margin:.3f}{tail}" for t in ts])
    drawn = len(lines) - first_square
    if d.remainder is not None:
        lines.append(region_el(rem_x, rem_w, rem_h, "remainder", "url(#hatch)"))
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return drawn
