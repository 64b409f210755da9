"""`rectadd proptest`: one named invariant suite of `suites`, seeded."""

from __future__ import annotations

from .report import VERIFIED, VIOLATED, Finding, Report

# Most cases `cmd_proptest` runs.  Through the CLI, the slowest suite,
# telescope, takes 1.5 s at 3000 cases and 2.4 s at 5000, and field 0.16 s
# at 5000 (median of 9 on a 2-CPU x86_64 host, Python 3.11.7).
MAX_CASES = 5000


def cmd_proptest(*, suite: str, cases: int = 200, seed: int = 1) -> Report:
    """Run one named invariant suite with deterministic seeding.  Fewer than
    1 or more than MAX_CASES cases are refused before `suites` is loaded;
    `suites.run_suite` itself takes any number from 1."""
    if cases < 1:
        raise ValueError("cases must be >= 1")
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
