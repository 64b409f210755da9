"""Exact-arithmetic toolkit for additive functions of rectangles.

Numbers live in Q(sqrt2), rectangles carry exact corners, rectangle
functions are corner differences of point functions, and the greedy square
decomposition comes with machine-checkable halving and telescoping
certificates.  See the CLI (`rectadd --help`) for the report commands.
"""

from .numeric import Fraction, QNum, SQRT2, ZERO, ONE, qnum, parse_qnum
from .geometry import (
    Rect,
    DyadicSquare,
    split,
    as_dyadic_square,
    dyadic_inner_cover_span,
    dyadic_inner_cover_rect,
    parse_rect,
)
from .rectfn import (
    PointFunction,
    Product,
    Counterexample,
    Constant,
    Table,
    PRODUCT,
    COUNTEREXAMPLE,
    RectFunction,
    corner_difference,
    named_point_function,
    named_rect_function,
    check_additivity,
    strong_continuity_witness,
    liminf_quotient_probe,
    ProbeReport,
)
from .decompose import (
    Step,
    Decomposition,
    HalvingCertificate,
    greedy_step,
    decompose,
    verify_halving,
    telescope,
    continued_fraction_counts,
)
from .harness import (
    Finding,
    Report,
    cmd_counterexample,
    cmd_decompose,
    cmd_dyadic_approx,
    cmd_probe,
    cmd_proptest,
    report_to_dict,
    write_decomposition_svg,
)

__version__ = "0.1.0"
