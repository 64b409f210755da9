"""`rectadd probe`: sampled quotients F(Q)/|Q|^alpha on shrinking squares
near a point, as evidence only."""

from __future__ import annotations

from fractions import Fraction

from .geometry import Rect, parse_rect
from .numeric import parse_qnum, qnum
from .rectfn import liminf_quotient_probe, named_rect_function
from .report import EVIDENCE, MAX_ORDER, Finding, Report, _approxs, _lits

# Largest denominator q of `cmd_probe`'s alpha.  A quotient outside the field
# is rendered through a q-th power and a q-th root: with 4 offsets, depth 4
# takes 0.03 s at q = 997 and 0.12 s at q = 1999 in process on a 2-core x86
# box (Python 3.11).
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
# Most squares `cmd_probe` samples, depth times offsets, at a depth of at most
# MAX_ORDER (a probe scale 2^-j is a mesh order).  Through the CLI at alpha 1,
# 20,000 squares take 0.45 s at depth 12, 0.55 s at 100 and 1.0 s at 1000
# (median of 3 on a 2-CPU x86_64 host, Python 3.11.7).
MAX_PROBE_SQUARES = 20_000

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
