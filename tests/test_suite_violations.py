"""Every `proptest` suite's violated path, end to end.

No real invariant fails, so each test plants a fault at one case by wrapping
a name the suite calls: the wrapped call returns a wrong result at its k-th
call, one call per case.  A suite that decomposes imports `decompose`'s
functions when it starts, so those are wrapped on the `decompose` module.  The suite must then stop at case k, and the report
and the CLI line must carry the echo recorded below.  Each echo holds the
case's drawn values, so a suite that drew its cases differently (another
order of `random` calls, another ramp index) would fail here, though its
passing report carries no drawn value.
"""

import sys

import pytest

from rectadd import cli, suites
from rectadd.decompose import Decomposition, HalvingCheck
from rectadd.harness import VIOLATED, cmd_proptest
from rectadd.numeric import QNum

SEED = 7
CASES = 200

DEC = sys.modules["rectadd.decompose"]
# the wrapped originals, so a second planting in one test wraps the real ones
REAL = {
    **{name: getattr(suites, name) for name in ("check_additivity", "rand_qnum", "dyadic")},
    **{name: getattr(DEC, name) for name in ("telescope", "continued_fraction_counts", "verify_halving")},
}
REAL_ALL_SQUARES = Decomposition.all_squares
REAL_EQ = QNum.__eq__


def _on_call(k, real, fault):
    """`real`, except that its k-th call returns `fault` of its result."""
    calls = [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        result = real(*args, **kwargs)
        return fault(result) if calls[0] == k else result

    return wrapped


def _plant_field(monkeypatch, k):
    # three draws a case; from the k-th case's last draw on, `==` is False,
    # so its first check (add associativity) fails
    broken = []

    def broke(q):
        broken.append(True)
        return q

    monkeypatch.setattr(suites, "rand_qnum", _on_call(3 * k, REAL["rand_qnum"], broke))
    monkeypatch.setattr(QNum, "__eq__", lambda a, b: False if broken else REAL_EQ(a, b))


def _plant_halving_decay(monkeypatch, k):
    # the k-th certificate holds, then every decay bound is sides[1] / 2^64
    broken = []

    def broke(cert):
        broken.append(True)
        return cert

    def dyadic(a, n):
        return REAL["dyadic"](a, 64) if broken else REAL["dyadic"](a, n)

    monkeypatch.setattr(DEC, "verify_halving", _on_call(k, REAL["verify_halving"], broke))
    monkeypatch.setattr(suites, "dyadic", dyadic)


PLANTS = {
    "field": ("field", _plant_field),
    "additivity": ("additivity", lambda mp, k: mp.setattr(
        suites, "check_additivity", _on_call(k, REAL["check_additivity"], lambda disc: disc + 1))),
    "tiling": ("tiling", lambda mp, k: mp.setattr(
        Decomposition, "all_squares", _on_call(k, REAL_ALL_SQUARES, lambda squares: squares[1:]))),
    "halving-certificate": ("halving", lambda mp, k: mp.setattr(
        DEC, "verify_halving", _on_call(k, REAL["verify_halving"], lambda cert: cert._replace(
            failure=HalvingCheck(2, "halving", QNum(3), QNum(1)))))),
    "halving-decay": ("halving", _plant_halving_decay),
    "oracle": ("oracle", lambda mp, k: mp.setattr(
        DEC, "continued_fraction_counts",
        _on_call(k, REAL["continued_fraction_counts"], lambda cf: cf + [1]))),
    "telescope": ("telescope", lambda mp, k: mp.setattr(
        DEC, "telescope", _on_call(k, REAL["telescope"], lambda total: total + 1))),
}

# (plant, k) -> the echo of the planted case at seed 7
ECHOES = {
    ('field', 1): 'add associativity: p=1/3 q=-2-2/3*sqrt2 r=-1',
    ('field', 37): 'add associativity: p=-5/7+1*sqrt2 q=8/5-1/3*sqrt2 r=-2/3',
    ('additivity', 1): 'rect=[1/3,5/6]x[-2-2/3*sqrt2,-1/4-2/3*sqrt2] axis=vertical c=59/96 discrepancy=1',
    ('additivity', 37): 'rect=[-1/8,39/8]x[-7/6+2*sqrt2,23/6+5/4*sqrt2] axis=horizontal c=109/48+95/64*sqrt2 discrepancy=1',
    ('tiling', 1): 'rect=[1/3,5/6]x[-2-2/3*sqrt2,-1/4-2/3*sqrt2] area=7/8 tiled=5/8',
    ('tiling', 37): 'rect=[-1+2/3*sqrt2,10-1/12*sqrt2]x[-4/7,61/28] area=121/4-33/16*sqrt2 tiled=363/16-33/16*sqrt2',
    ('halving-certificate', 1): 'rect=[1/3,5/6]x[-2-2/3*sqrt2,-1/4-2/3*sqrt2] halving@2: 3 > 1',
    ('halving-certificate', 37): 'rect=[-1+2/3*sqrt2,10-1/12*sqrt2]x[-4/7,61/28] halving@2: 3 > 1',
    ('halving-decay', 1): 'rect=[1/3,5/6]x[-2-2/3*sqrt2,-1/4-2/3*sqrt2] decay@1: 1/2 > 1/36893488147419103232',
    ('halving-decay', 37): 'rect=[-1+2/3*sqrt2,10-1/12*sqrt2]x[-4/7,61/28] decay@1: 11/4 > 11/73786976294838206464',
    ('oracle', 1): 'p=2 q=1 counts=[2] cf=[2, 1]',
    ('oracle', 37): 'p=10 q=1 counts=[10] cf=[10, 1]',
    ('telescope', 1): 'rect=[1/3,5/6]x[-2-2/3*sqrt2,-1/4-2/3*sqrt2] telescoped=-409/280-11/4*sqrt2 direct=-689/280-11/4*sqrt2',
    ('telescope', 37): 'rect=[1,7+1/4*sqrt2]x[-2-4/3*sqrt2,2/3-4/3*sqrt2] telescoped=-249/40-1*sqrt2 direct=-289/40-1*sqrt2',
}


@pytest.mark.parametrize("plant, k", sorted(ECHOES))
def test_planted_violation_stops_the_suite_at_its_case(monkeypatch, capsys, plant, k):
    name, install = PLANTS[plant]
    echo = ECHOES[plant, k]

    install(monkeypatch, k)
    assert suites.run_suite(name, cases=CASES, seed=SEED) == (name, k, [echo])

    install(monkeypatch, k)
    rep = cmd_proptest(suite=name, cases=CASES, seed=SEED)
    assert rep.exit_status == 1
    (finding,) = rep.findings
    assert finding.status == VIOLATED
    assert finding.claim == f"suite {name}: invariant violated (case echo: {echo})"
    assert finding.exact_values == (echo,)

    install(monkeypatch, k)
    assert cli.main(["proptest", "--suite", name, "--cases", str(CASES), "--seed", str(SEED)]) == 1
    assert capsys.readouterr().out == f"[violated] suite {name}: invariant violated (case echo: {echo})  exact: {echo}\n"


def test_every_plant_is_recorded_at_case_1_and_37():
    assert sorted(ECHOES) == sorted((plant, k) for plant in PLANTS for k in (1, 37))
    assert {name for name, _ in PLANTS.values()} == set(suites.SUITE_NAMES)
