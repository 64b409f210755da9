"""`rectadd counterexample`: positivity on random dyadic squares against a
negative witness rectangle."""

from __future__ import annotations

import random
from typing import Optional

from .geometry import DyadicSquare, Rect
from .numeric import ONE, SQRT2, ZERO, from_numerators
from .rectfn import named_rect_function
from .report import MAX_ORDER, VERIFIED, VIOLATED, Finding, Report, _approxs, _lits

# Most squares `cmd_counterexample` samples; MAX_ORDER bounds the orders it
# draws them from.  A sample costs a few integer operations on numbers of
# about twice its order in bits: through the CLI, 100,000 samples take
# 0.17 s at the default orders and 0.31 s all at order 1000, and 2.3 s all
# at order 10,000 with the budget raised (median of 3 on a 2-CPU x86_64
# host, Python 3.11.7).
MAX_SAMPLES = 100_000

# Canonical witness: unit-width rectangle sitting on the rational line y = 1
# with irrational top edge y = sqrt2.
WITNESS_RECT = Rect(ZERO, ONE, ONE, SQRT2)


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
