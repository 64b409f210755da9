"""`rectadd decompose`: the greedy square decomposition with its tiling,
halving and telescoping certificates, and its figure as static SVG."""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Optional

from .decompose import Decomposition, decompose, telescope, verify_halving
from .geometry import Rect, parse_rect
from .numeric import _SQRT2_FLOAT, QNum, _floor, from_numerators
from .rectfn import named_rect_function
from .report import DISPLAY_DIGITS, VERIFIED, VIOLATED, Finding, Report, _approxs, _lits

# Most packed squares `cmd_decompose` accepts.  Only the SVG visits every
# square: through the CLI, 200,000 tiles take about 0.6 s and 106 MB with an
# SVG and 0.16 s and 16 MB without, on a 2-core x86 box (Python 3.11).
MAX_TILES = 200_000
# Most greedy steps `cmd_decompose` takes.  The coefficients of an irrational
# rectangle grow every step, so the cost grows faster than the step count:
# through the CLI, `[0,355/113+1/1000*sqrt2]x[0,1]` takes 0.10 s at 1000
# steps and 0.19 s at 2000, and `[0,1+1*sqrt2]x[0,1]` 0.09 s at 1000, on
# the same box.
MAX_STEPS = 1000


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
    tiled, area = from_numerators(A, B, L * L), r.area()
    if d.remainder is not None:
        tiled = tiled + d.remainder.area()
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
    halves = verify_halving(d).ok
    findings.append(
        Finding(
            claim="side trace is monotone and halves at least every two steps",
            status=VERIFIED if halves else VIOLATED,
            exact_values=_lits(*sides),
            approximations=_trace_approxs(sides, halves),
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


def _trace_approxs(sides: tuple[QNum, ...], halves: bool) -> tuple[str, ...]:
    """`_approxs(*sides)`.  A halving trace with a positive last side is positive
    and non-increasing: from its first all-zeros decimal on, every decimal is that one."""
    if not (halves and sides[-1].sign() > 0):
        return _approxs(*sides)
    zero, shown = "0." + "0" * DISPLAY_DIGITS, []
    for s in sides:
        shown.append(s.approximate(DISPLAY_DIGITS))
        if shown[-1] == zero:
            return (*shown, *repeat(zero, len(sides) - len(shown)))
    return tuple(shown)


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
    # the remainder's row by the row rule (the original's, undrawn, when
    # there is none), in one `_floats` call with the height
    ra, rb = (d._corners(As)[-1], d._corners(Bs)[-1]) if d.remainder is not None else (As[:4], Bs[:4])
    height, rem_x, rem_w, rem_h = _floats(
        [y2a - y1a, ra[0] - x1a, ra[1] - ra[0], ra[3] - ra[2]],
        [y2b - y1b, rb[0] - x1b, rb[1] - rb[0], rb[3] - rb[2]],
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
