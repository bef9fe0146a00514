"""The package surface: one list of public names, gathered from the modules."""

import jointdigits
from jointdigits import dependence, digits, errors, image, torus, witness

MODULES = (digits, dependence, errors, image, torus, witness)

# every name the package exported while it kept its own list; none may go
EARLIER_NAMES = (
    "__version__",
    "MIN_BASE", "DEFAULT_ENUMERATION_CAP", "DigitSet", "as_positive_rational",
    "check_base", "check_bases", "check_digit", "digit_runs", "digit_set",
    "digit_set_contains", "digit_set_ranges", "floor_log", "iter_digit_tuples",
    "leading_digit", "leading_digit_tuple", "parse_positive_rational", "refine_digit",
    "PrimitiveRoot", "DependencePair", "DependenceReport", "integer_nth_root",
    "primitive_root", "pair_dependence", "pairwise_report",
    "ResourceLimitError", "IndependentBasesError",
    "AttainabilityVerdict", "ImageReport", "JointTable", "attainable_by_power_criterion",
    "image_exact", "image_via_table", "joint_table", "power_criterion_holds", "scan_window",
    "DEFAULT_PRECISION", "SAMPLERS", "CoverageReport", "FrequencyVector", "Rectangle",
    "classify_parameter", "frequency_vector", "measure_map", "orbit_sample",
    "rectangle_of", "torus_digit_tuple", "total_measure",
    "DEFAULT_BUDGET", "WitnessQuery", "WitnessResult", "find_witness",
    "image_observed", "verify_witness",
)


def test_all_is_the_modules_lists_without_duplicates():
    names = jointdigits.__all__
    assert names == ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert len(set(names)) == len(names)


def test_every_name_is_the_object_its_module_defines():
    for m in MODULES:
        for name in m.__all__:
            obj = getattr(m, name)
            assert getattr(jointdigits, name) is obj, (m.__name__, name)
            assert getattr(obj, "__module__", m.__name__) == m.__name__, (m.__name__, name)


def test_keeps_every_earlier_name():
    assert len(EARLIER_NAMES) == 54
    assert set(EARLIER_NAMES) <= set(jointdigits.__all__)


def test_exports_the_module_constants():
    for name in ("MAX_BASE_BITS", "DEFAULT_TUPLE_CAP", "DEFAULT_SCAN_CAP", "MAX_PRECISION"):
        assert name in jointdigits.__all__
    # one scan cap serves the sampler and the witness budget
    assert torus.orbit_sample.__kwdefaults__["sample_cap"] == digits.DEFAULT_SCAN_CAP
    assert witness.find_witness.__kwdefaults__["budget_cap"] == digits.DEFAULT_SCAN_CAP
    assert not hasattr(torus, "DEFAULT_SAMPLE_CAP")
