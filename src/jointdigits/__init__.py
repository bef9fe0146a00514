"""Exact joint leading-digit computation across integer bases.

The leading digit of x > 0 in base b >= 3 is the j in {1, ..., b-1} with
j * b**k <= x < (j+1) * b**k for some integer k.  This package computes
those digits exactly for positive rationals (arbitrary precision, no
floating point), decides which digit tuples are attainable jointly across
several bases, finds explicit witnesses, and explores the torus-orbit
geometry behind the attainability results.

The short story: bases that are powers of a common integer (say 4 and 8)
constrain each other's leading digits, and the set of attainable digit
pairs is computable exactly, with per-pair certificates.  Bases that are
not (say 3 and 10) impose no joint constraint: every digit tuple occurs,
and a witness search makes that concrete.
"""

from .digits import (
    DEFAULT_ENUMERATION_CAP,
    MIN_BASE,
    DigitSet,
    as_positive_rational,
    check_base,
    check_bases,
    check_digit,
    digit_runs,
    digit_set,
    digit_set_contains,
    digit_set_ranges,
    floor_log,
    iter_digit_tuples,
    leading_digit,
    leading_digit_tuple,
    parse_positive_rational,
    refine_digit,
)
from .dependence import (
    DependencePair,
    DependenceReport,
    PrimitiveRoot,
    integer_nth_root,
    pair_dependence,
    pairwise_report,
    primitive_root,
)
from .errors import IndependentBasesError, ResourceLimitError
from .image import (
    AttainabilityVerdict,
    ImageReport,
    JointTable,
    attainable_by_power_criterion,
    image_exact,
    image_via_table,
    joint_table,
    power_criterion_holds,
    scan_window,
)
from .torus import (
    DEFAULT_PRECISION,
    SAMPLERS,
    CoverageReport,
    FrequencyVector,
    Rectangle,
    classify_parameter,
    frequency_vector,
    measure_map,
    orbit_sample,
    rectangle_of,
    torus_digit_tuple,
    total_measure,
)
from .witness import (
    DEFAULT_BUDGET,
    WitnessQuery,
    WitnessResult,
    find_witness,
    image_observed,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # digits
    "MIN_BASE",
    "DEFAULT_ENUMERATION_CAP",
    "DigitSet",
    "as_positive_rational",
    "check_base",
    "check_bases",
    "check_digit",
    "digit_runs",
    "digit_set",
    "digit_set_contains",
    "digit_set_ranges",
    "floor_log",
    "iter_digit_tuples",
    "leading_digit",
    "leading_digit_tuple",
    "parse_positive_rational",
    "refine_digit",
    # dependence
    "PrimitiveRoot",
    "DependencePair",
    "DependenceReport",
    "integer_nth_root",
    "primitive_root",
    "pair_dependence",
    "pairwise_report",
    # errors
    "ResourceLimitError",
    "IndependentBasesError",
    # image
    "AttainabilityVerdict",
    "ImageReport",
    "JointTable",
    "attainable_by_power_criterion",
    "image_exact",
    "image_via_table",
    "joint_table",
    "power_criterion_holds",
    "scan_window",
    # torus
    "DEFAULT_PRECISION",
    "SAMPLERS",
    "CoverageReport",
    "FrequencyVector",
    "Rectangle",
    "classify_parameter",
    "frequency_vector",
    "measure_map",
    "orbit_sample",
    "rectangle_of",
    "torus_digit_tuple",
    "total_measure",
    # witness
    "DEFAULT_BUDGET",
    "WitnessQuery",
    "WitnessResult",
    "find_witness",
    "image_observed",
    "verify_witness",
]
