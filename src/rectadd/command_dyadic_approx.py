"""`rectadd dyadic-approx`: F of a rectangle against its sums over inner
dyadic covers of rising order, with the exact gap at each order."""

from __future__ import annotations

from .geometry import Rect, coarser_cover_span, dyadic_inner_cover_rect, dyadic_inner_cover_span, parse_rect
from .numeric import QNum, ZERO, _sign2, dyadic, from_numerators, numerators
from .rectfn import RectFunction, named_rect_function
from .report import EVIDENCE, MAX_ORDER, VERIFIED, VIOLATED, Finding, Report, _approxs, _lits


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
