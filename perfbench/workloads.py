"""The benchmark's workloads, generated from a seed.

A workload is an endless sequence of rounds; a round is a fixed mix of
cases, and a case is one verdict: `call()` does the timed library work,
`verify()` checks its output against known answers from `oracle` (untimed)
and `corrupted()` returns the same case with one wrong expected value, which
`verify()` must reject.  Runs execute whole rounds only, so every run of a
workload has the same mix whatever its length.

Library calls go through module attributes (`dec.decompose`, never a name
imported into this file), so the span tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import oracle

numeric = importlib.import_module("rectadd.numeric")
geometry = importlib.import_module("rectadd.geometry")
rectfn = importlib.import_module("rectadd.rectfn")
dec = importlib.import_module("rectadd.decompose")
harness = importlib.import_module("rectadd.harness")
cli = importlib.import_module("rectadd.cli")

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
TELESCOPE_STEPS = 50  # criterion 5's decompose(r, 50)
SPLITS_PER_TELESCOPE = 20  # criterion 5 runs 10^4 splits against 500 telescopes
# Packed squares of a telescope case: round i draws from stratum i % 16, the
# sixteenths of criterion 5's distribution below the cap (quantiles of 20,000
# draws by the oracle, ties at the small rational counts making the lowest
# strata uneven).  The cap drops the 1.1% of draws with more than 2000 squares, whose
# tail (up to 28,000 in 20,000 draws) would make one run's work depend on
# its seed; the draws kept carry 88% of the distribution's squares.
TILE_STRATA = (0, 6, 9, 11, 24, 117, 154, 183, 218, 256, 290, 329, 379, 440, 556, 823, 2000)
STRIP_COUNT = (1000, 1100)  # first packing count of a wide strip
STRIP_STEPS = 20  # `decompose --max-steps` default
STRIP_TAIL_MAX = 60  # packed squares after the first step of a strip
WITNESS = "[0,1]x[1,0+1*sqrt2]"
ONE = (Fraction(1), Fraction(0))  # field values for oracle.literal: (a, b) is a + b*sqrt2
SILVER = (Fraction(1), Fraction(1))  # 1 + sqrt2 = [2; 2, 2, ...]
NON_SILVER = (Fraction(1), Fraction(2))  # 1 + 2*sqrt2 = [3; 1, 4, 1, 4, ...]


@dataclass(frozen=True)
class Outcome:
    """What verify() read from a case's returned values."""

    problems: list[str]
    tiles: int = 0
    steps: int = 0
    coeff_bits: int = 0


# ---------------------------------------------------------------------------
# telescope_mix: criterion 5's mix of decompose + telescope and split cases


def _coordinate(rng: random.Random, m: int = 30) -> tuple[Fraction, Fraction]:
    """A field value a + b*sqrt2 as suites.rand_qnum draws it with magnitude
    cap m: 30 for a corner once criterion 5's ramp has saturated, 12 for a
    table value (rand_qnum's default index)."""
    a = Fraction(rng.randint(-m, m), rng.randint(1, 8))
    b = Fraction(rng.randint(-(m // 2), m // 2), rng.randint(1, 4)) if rng.random() >= 0.5 else Fraction(0)
    return a, b


def _side(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A side a + b*sqrt2 > 1/4 as criterion 5 draws it (suites.rand_positive_side)."""
    while True:
        a = Fraction(rng.randint(1, 32), rng.randint(1, 4))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), 4) if rng.random() >= 0.5 else Fraction(0)
        p, q, r = oracle.triple_of((4 * a - 1, 4 * b))
        if oracle.floor_q2(p, q, r) >= 0 and (p, q) != (0, 0):  # 4*side - 1 > 0
            return a, b


def _table_values(rng: random.Random, n: int) -> tuple:
    """n random small field values for a table, as suites.rand_table_function
    draws them."""
    return tuple(numeric.QNum(*_coordinate(rng, 12)) for _ in range(n))


def _table_function(values: tuple, rects):
    """Corner difference of the table that gives the corners of `rects`, in
    order of first appearance, the values drawn when the case was built."""
    points = dict.fromkeys(p for r in rects for p in r.corners())
    return rectfn.corner_difference(rectfn.Table(dict(zip(points, values))))


def _rect(x1, w, y1, h):
    x1, y1 = numeric.QNum(*x1), numeric.QNum(*y1)
    return geometry.Rect(x1, x1 + numeric.QNum(*w), y1, y1 + numeric.QNum(*h))


@dataclass(frozen=True)
class TelescopeCase:
    """decompose(r, 50), a table function over the tile corners, and the
    check telescope == F(r); counts must equal the continued fraction."""

    rect: object
    values: tuple
    counts: tuple[int, ...]
    terminated: bool
    tiled = True

    def call(self):
        d = dec.decompose(self.rect, TELESCOPE_STEPS)
        tiles = d.all_squares()
        if d.remainder is not None:
            tiles.append(d.remainder)
        F = _table_function(self.values, [self.rect, *tiles])
        return d, dec.telescope(F, d), F.value(self.rect)

    def verify(self, out) -> Outcome:
        d, total, direct = out
        problems = []
        if total != direct:
            problems.append(f"telescope {total} != F(r) {direct} on {self.rect}")
        if tuple(d.counts) != self.counts or d.terminated != self.terminated:
            problems.append(f"counts {d.counts} (terminated={d.terminated}) on {self.rect}")
        bits = oracle.literal_bits(v.literal() for v in (*d.sides, total, direct))
        return Outcome(problems, d.total_squares, len(d.steps), bits)

    def corrupted(self):
        return replace(self, counts=(self.counts[0] + 1, *self.counts[1:]))


@dataclass(frozen=True)
class SplitCase:
    """F(left) + F(right) - F(whole) for a table function: exactly 0."""

    rect: object
    axis: str
    cut: object
    values: tuple
    discrepancy: int = 0
    tiled = False

    def call(self):
        r1, r2 = geometry.split(self.rect, self.axis, self.cut)
        F = _table_function(self.values, (self.rect, r1, r2))
        return rectfn.check_additivity(F, self.rect, self.axis, self.cut)

    def verify(self, disc) -> Outcome:
        lit = disc.literal()
        problems = [] if disc == self.discrepancy else [f"split discrepancy {lit} on {self.rect}"]
        return Outcome(problems, coeff_bits=oracle.literal_bits([lit]))

    def corrupted(self):
        return replace(self, discrepancy=self.discrepancy + 1)


def _telescope_case(rng: random.Random, stratum: int) -> TelescopeCase:
    """A rectangle drawn as suites.rand_rect draws it, redrawn until its
    packing falls in the given stratum, with its greedy counts from the
    continued fraction of its aspect ratio."""
    lo, hi = TILE_STRATA[stratum], TILE_STRATA[stratum + 1]
    while True:
        w, h = _side(rng), _side(rng)
        x = oracle.ratio(oracle.triple_of(w), oracle.triple_of(h))
        if oracle.floor_q2(*x) < 1:
            x = oracle.ratio(oracle.triple_of(h), oracle.triple_of(w))
        terms = oracle.cf_terms(*x, TELESCOPE_STEPS + 1)
        tiles = sum(terms[:TELESCOPE_STEPS])
        if lo < tiles <= hi:
            break
    # corners of the rectangle, the tiles and the remainder: at most 4 each
    values = _table_values(rng, 4 * (tiles + 2))
    rect = _rect(_coordinate(rng), w, _coordinate(rng), h)
    return TelescopeCase(rect, values, tuple(terms[:TELESCOPE_STEPS]), len(terms) <= TELESCOPE_STEPS)


def _split_case(rng: random.Random) -> SplitCase:
    rect = _rect(_coordinate(rng), _side(rng), _coordinate(rng), _side(rng))
    axis = rng.choice(["vertical", "horizontal"])
    t = numeric.QNum(Fraction(rng.randint(1, 15), 16))
    cut = rect.x1 + rect.width * t if axis == "vertical" else rect.y1 + rect.height * t
    # the whole rectangle's four corners and the two ends of the cut
    return SplitCase(rect, axis, cut, _table_values(rng, 6))


def _telescope_round(rng: random.Random, i: int, tmp: str) -> list:
    stratum = i % (len(TILE_STRATA) - 1)
    return [_telescope_case(rng, stratum)] + [_split_case(rng) for _ in range(SPLITS_PER_TELESCOPE)]


# ---------------------------------------------------------------------------
# report cases: a command whose JSON report is checked against known answers


def report_digest(text: str, tmp: str) -> str:
    """sha256 of a JSON report, ignoring `generated_at` and `metrics` (the
    fields outside the byte-for-byte guarantee) and the temporary directory."""
    report = json.loads(text.replace(tmp, "TMP"))
    report.pop("generated_at", None)
    report.pop("metrics", None)
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


def _load_golden() -> dict:
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


GOLDEN = _load_golden()
_CLAIM = re.compile(r"^(\d+) squares in (\d+) steps \(terminated=(True|False)\)")


def _expect_claim(findings: list, i: int, claim: str, status: str, exact=None) -> list[str]:
    if i >= len(findings):
        return [f"finding {i} missing (want {claim!r})"]
    f = findings[i]
    if not f["claim"].startswith(claim) or f["status"] != status:
        return [f"finding {i}: [{f['status']}] {f['claim']!r}, want [{status}] {claim!r}"]
    if exact is not None and f["exact_values"] != list(exact):
        return [f"finding {i} ({claim!r}) exact values differ from the known answer"]
    return []


def decomposition_known(longer, shorter, value, max_steps: int, svg_path=None, terms=None):
    """Known answers for `decompose` on a rectangle with sides `longer` and
    `shorter` (field values), where F(rect) = `value` for the counterexample
    function.  `terms` overrides the continued fraction of longer/shorter."""
    if terms is None:
        terms = oracle.packing(longer, shorter, max_steps)[0]
    steps = min(len(terms), max_steps)
    tiles = sum(terms[:steps])
    terminated = len(terms) <= max_steps
    sides = [oracle.literal(s) for s in oracle.side_trace(longer, shorter, terms, steps)]
    area = oracle.literal(oracle.pair_mul(longer, shorter))
    val = oracle.literal(value)

    def check(report: dict) -> list[str]:
        f = report["findings"]
        problems = _expect_claim(
            f, 0, f"{tiles} squares in {steps} steps (terminated={terminated})", "verified", [area, area]
        )
        problems += _expect_claim(f, 1, "side trace is monotone", "verified", sides)
        problems += _expect_claim(f, 2, "sum of F over the tiles", "verified", [val, val])
        if svg_path is not None:
            problems += _expect_claim(f, 3, "SVG at", "verified", [str(tiles)] * 2)
            with open(svg_path, encoding="utf-8") as fh:
                drawn = fh.read().count('class="square"')
            os.remove(svg_path)
            if drawn != tiles:
                problems.append(f"SVG draws {drawn} squares, want {tiles}")
        return problems

    return check


@dataclass(frozen=True)
class ReportCase:
    """One command run in process through `cli.main` with `--json`."""

    argv: tuple[str, ...]
    exit: int
    known: Callable[[dict], list[str]]
    tmp: str
    tiled: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv).replace(self.tmp, "TMP")

    @property
    def json_path(self) -> str:
        return os.path.join(self.tmp, "report.json")

    def call(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main([*self.argv, "--json", self.json_path])
            except SystemExit as exc:  # refused input: exit 2 before any report
                return exc.code

    def verify(self, code: int) -> Outcome:
        if code != self.exit:
            return Outcome([f"{self.key}: exit {code}, want {self.exit}"])
        with open(self.json_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(self.json_path)  # a later case must write its own
        report = json.loads(text)
        problems = [] if report["exit_status"] == code else [f"{self.key}: JSON exit_status {report['exit_status']}"]
        problems += [f"{self.key}: {p}" for p in self.known(report)]
        golden = GOLDEN.get(self.key)
        if golden is not None and report_digest(text, self.tmp) != golden:
            problems.append(f"{self.key}: JSON report differs from the recorded one")
        m = _CLAIM.match(report["findings"][0]["claim"]) if self.tiled else None
        tiles, steps = (int(m.group(1)), int(m.group(2))) if m else (0, 0)
        bits = oracle.literal_bits(v for f in report["findings"] for v in f["exact_values"])
        return Outcome(problems, tiles, steps, bits)

    def corrupted(self):
        return replace(self, exit=1 - self.exit)


# ---------------------------------------------------------------------------
# wide_strip: per-tile work dominates, coefficients stay small


@dataclass(frozen=True)
class StripCase(ReportCase):
    """`cmd_decompose` on a wide strip in process, then its JSON report."""

    rect: str = ""
    svg_path: str | None = None
    length: tuple = ()

    def call(self) -> int:
        report = harness.cmd_decompose(
            rect=self.rect, max_steps=STRIP_STEPS, function="counterexample", svg_path=self.svg_path
        )
        harness.write_report_json(report, self.json_path)
        return report.exit_status


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-64, 64), 8)


def _strip_length(rng: random.Random, rational: bool) -> tuple[Fraction, Fraction]:
    """N + f with N in STRIP_COUNT and 0 < f < 1, rational or in Q(sqrt2),
    whose packing counts after the first sum to at most STRIP_TAIL_MAX."""
    n = rng.randint(*STRIP_COUNT)
    while True:
        if rational:
            d = rng.randint(2, 9)
            a, b = rng.randint(1, d - 1), 0
        else:
            d, b = rng.randint(1, 6), rng.choice([-3, -2, -1, 1, 2, 3])
            a = -oracle.floor_q2(0, b, d) * d + rng.randint(0, d - 1)
            if oracle.floor_q2(a, b, d) != 0:
                continue
        terms = oracle.cf_terms(n * d + a, b, d, STRIP_STEPS + 1)
        if sum(terms[1:STRIP_STEPS]) <= STRIP_TAIL_MAX:
            return oracle.pair_of(n * d + a, b, d)


def strip_case(rng: random.Random, tmp: str, rational: bool, vertical: bool, svg: bool) -> StripCase:
    length = _strip_length(rng, rational)
    x0, y0 = _fraction(rng), _fraction(rng)
    if vertical:
        x, y = ((x0, 0), (x0 + 1, 0)), ((y0, 0), (y0 + length[0], length[1]))
        # rows y0 (rational) and y0 + length: F = area, or -y0 on an irrational top row
        value = (-y0, Fraction(0)) if length[1] else length
    else:
        x, y = ((x0, 0), (x0 + length[0], length[1])), ((y0, 0), (y0 + 1, 0))
        value = length
    lits = [oracle.literal(v) for v in (*x, *y)]
    rect = f"[{lits[0]},{lits[1]}]x[{lits[2]},{lits[3]}]"
    argv = ("decompose", "--rect", rect, "--max-steps", str(STRIP_STEPS), "--function", "counterexample")
    svg_path = os.path.join(tmp, "strip.svg") if svg else None
    if svg:
        argv += ("--svg", svg_path)
    known = decomposition_known(length, ONE, value, STRIP_STEPS, svg_path)
    return StripCase(argv, 0, known, tmp, True, rect, svg_path, length)


def _wide_strip_round(rng: random.Random, i: int, tmp: str) -> list:
    return [
        strip_case(rng, tmp, rational=True, vertical=False, svg=True),
        strip_case(rng, tmp, rational=False, vertical=False, svg=False),
        strip_case(rng, tmp, rational=True, vertical=True, svg=False),
        strip_case(rng, tmp, rational=False, vertical=True, svg=True),
    ]


# ---------------------------------------------------------------------------
# reports: every command through cli.main, deep traces, few tiles


def counterexample_known(samples: int):
    def check(report: dict) -> list[str]:
        f = report["findings"]
        return (
            _expect_claim(f, 0, f"F equals the area and is positive on all {samples} sampled", "verified")
            + _expect_claim(f, 1, f"F({WITNESS}) is strictly negative", "verified", ["-1"])
            + _expect_claim(f, 2, "witness value equals -1 exactly", "verified", ["-1"])
        )

    return check


def witness_gaps_known(max_order: int):
    gaps = oracle.witness_gaps(max_order)

    def check(report: dict) -> list[str]:
        f = report["findings"]
        return _expect_claim(f, 0, "|F(rect) - inner cover sum| obeys", "violated") + _expect_claim(
            f, 1, f"exact gaps F(rect) - S_n for n = 1..{max_order}", "evidence-only", gaps
        )

    return check


def probe_known(alpha: Fraction, depth: int, offsets: int, digits: int = 12):
    """F = area on every probe square of the product function, so the
    quotient at scale j is 2^(-2j(1-alpha)).  For alpha 1 and 1/3 it is an
    exact power of two when 4*j*alpha is an integer, and otherwise a
    truncated decimal that the package promises to within one unit of the
    last place."""

    def check(report: dict) -> list[str]:
        f, problems, mins = report["findings"], [], []
        for j in range(1, depth + 1):
            e = -2 * j * (1 - alpha)
            want = oracle.truncated_root2_power(e, digits)
            exact = (4 * j * alpha).denominator == 1
            if exact:
                mins.append(oracle.literal((Fraction(2) ** e, Fraction(0))))
            problems += _expect_claim(
                f, j - 1, f"scale 2^-{j}: {offsets} squares", "evidence-only", [mins[-1]] * offsets if exact else []
            )
            for s in f[j - 1]["approximations"] if j - 1 < len(f) else ():
                got = int(s.replace(".", ""))
                if got != want and (exact or abs(got - want) > 1):
                    problems.append(f"scale 2^-{j}: quotient {s}, want {want} * 10^-{digits}")
        return problems + _expect_claim(f, depth, "per-scale minimum quotients", "evidence-only", mins)

    return check


def proptest_known(suite: str, cases: int):
    def check(report: dict) -> list[str]:
        return _expect_claim(
            report["findings"], 0, f"suite {suite}: invariant held on {cases} cases", "verified"
        )

    return check


def silver_known(n: int):
    """The silver rectangle packs two squares per step: counts [2]*n."""
    return decomposition_known(SILVER, ONE, SILVER, n, terms=[2] * (n + 1))


def readme_cases(tmp: str) -> list[ReportCase]:
    """The README's CLI examples, with the figure written to `tmp`."""
    out_svg = os.path.join(tmp, "out.svg")
    eight, five = (Fraction(8), Fraction(0)), (Fraction(5), Fraction(0))
    return [
        ReportCase(
            ("decompose", "--rect", "[0,8]x[0,5]", "--max-steps", "20", "--svg", out_svg),
            0,
            decomposition_known(eight, five, (Fraction(40), Fraction(0)), 20, out_svg),
            tmp,
            True,
        ),
        ReportCase(("counterexample", "--samples", "1000", "--seed", "7"), 0, counterexample_known(1000), tmp),
        ReportCase(("decompose", "--rect", "[0,1+1*sqrt2]x[0,1]", "--max-steps", "12"), 0, silver_known(12), tmp, True),
        ReportCase(
            ("dyadic-approx", "--rect", WITNESS, "--function", "counterexample", "--max-order", "10"),
            1,
            witness_gaps_known(10),
            tmp,
        ),
    ]


def _reports_round(rng: random.Random, i: int, tmp: str) -> list:
    x0, y0 = _fraction(rng), _fraction(rng)
    x1, y1 = oracle.literal((x0, Fraction(0))), oracle.literal((y0, Fraction(0)))
    x2, y2 = oracle.literal((x0 + 1, Fraction(0))), oracle.literal((y0 + 1, Fraction(0)))
    x2_long, y2_long = oracle.literal((x0 + 1, Fraction(2))), oracle.literal((y0 + 1, Fraction(2)))
    point = ",".join(str(Fraction(rng.randint(1, 1023), 1024)) for _ in range(2))
    seed, suite_seed = rng.randint(1, 10**6), rng.randint(1, 10**6)
    probe = ("probe", "--point", point, "--depth", "12", "--offsets", "4", "--alpha")
    return readme_cases(tmp) + [
        ReportCase(("decompose", "--rect", "[0,1+1*sqrt2]x[0,1]", "--max-steps", "600"), 0, silver_known(600), tmp, True),
        ReportCase(
            ("decompose", "--rect", f"[{x1},{x2_long}]x[{y1},{y2}]", "--max-steps", "200"),
            0,
            decomposition_known(NON_SILVER, ONE, NON_SILVER, 200),
            tmp,
            True,
        ),
        # the same trace standing up: its irrational top row gives F = -y0
        ReportCase(
            ("decompose", "--rect", f"[{x1},{x2}]x[{y1},{y2_long}]", "--max-steps", "200"),
            0,
            decomposition_known(NON_SILVER, ONE, (-y0, Fraction(0)), 200),
            tmp,
            True,
        ),
        ReportCase(
            ("dyadic-approx", "--rect", WITNESS, "--function", "counterexample", "--max-order", "200"),
            1,
            witness_gaps_known(200),
            tmp,
        ),
        ReportCase((*probe, "1/3"), 0, probe_known(Fraction(1, 3), 12, 4), tmp),
        ReportCase((*probe, "1"), 0, probe_known(Fraction(1), 12, 4), tmp),
        ReportCase(("counterexample", "--samples", "1000", "--seed", str(seed)), 0, counterexample_known(1000), tmp),
        ReportCase(("proptest", "--suite", "field", "--seed", str(suite_seed)), 0, proptest_known("field", 200), tmp),
        ReportCase(("proptest", "--suite", "oracle"), 0, proptest_known("oracle", 200), tmp),
    ]


# ---------------------------------------------------------------------------
# command-line launches, for cli_ms_p50


@dataclass(frozen=True)
class Launch:
    """`python -m rectadd <argv>`: expected exit status and first stdout line."""

    argv: tuple[str, ...]
    exit: int
    first_line: str


def _telescope_launches(rng: random.Random, tmp: str) -> list[Launch]:
    return [
        Launch(
            ("proptest", "--suite", suite, "--cases", str(cases), "--seed", str(rng.randint(1, 10**6))),
            0,
            f"[verified] suite {suite}: invariant held on {cases} cases",
        )
        for suite, cases in (("telescope", 10), ("additivity", 200))
    ]


def _strip_launch(rng: random.Random, tmp: str, rational: bool) -> Launch:
    case = strip_case(rng, tmp, rational=rational, vertical=False, svg=False)
    _, steps, tiles, _ = oracle.packing(case.length, ONE, STRIP_STEPS)
    return Launch(case.argv, 0, f"[verified] {tiles} squares in {steps} steps")


def _strip_launches(rng: random.Random, tmp: str) -> list[Launch]:
    return [_strip_launch(rng, tmp, rational=True), _strip_launch(rng, tmp, rational=False)]


README_FIRST_LINES = (
    "[verified] 5 squares in 4 steps (terminated=True)",
    "[verified] F equals the area and is positive on all 1000 sampled dyadic squares (orders 0..12)",
    "[verified] 24 squares in 12 steps (terminated=False)",
    "[violated] |F(rect) - inner cover sum| obeys the shrink bound",
)


def _readme_launches(rng: random.Random, tmp: str) -> list[Launch]:
    return [Launch(c.argv, c.exit, first) for c, first in zip(readme_cases(tmp), README_FIRST_LINES)]


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[random.Random, int, str], list]
    launches: Callable[[random.Random, str], list[Launch]]  # one group of CLI launches
    traced_rounds: int  # fixed work of the traced run, so its counts are exact


WORKLOADS = {
    w.name: w
    for w in (
        Workload("telescope_mix", _telescope_round, _telescope_launches, 32),
        Workload("wide_strip", _wide_strip_round, _strip_launches, 1),
        Workload("reports", _reports_round, _readme_launches, 1),
    )
}
