"""The package surface: one list of public names, gathered from the modules."""

import copy
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# every public class with a JSON reader; each must have payloads below
READERS = [obj for name in jointdigits.__all__
           if isinstance(obj := getattr(jointdigits, name), type) and "from_json_dict" in vars(obj)]


@lru_cache(maxsize=None)
def valid_payloads() -> dict[str, list]:
    """JSON-parsed payloads of each reader by class name, covering its shapes."""
    jd = jointdigits
    dep = jd.pair_dependence(4, 8)
    objects = {
        "DependencePair": [dep],
        "DependenceReport": [jd.pairwise_report((4, 8, 10))],
        "AttainabilityVerdict": [jd.attainable_by_power_criterion(dep, 3, 6),
                                 jd.attainable_by_power_criterion(dep, 2, 3),
                                 jd.image_exact(3, 10, allow_independent=True).verdicts[0]],
        "JointTable": [jd.joint_table(dep)],
        "ImageReport": [jd.image_exact(4, 8), jd.image_exact(3, 10, allow_independent=True)],
        "WitnessResult": [jd.find_witness(jd.WitnessQuery(bases, target, budget))
                          for bases, target, budget in [((3, 10), (2, 9), 5000),
                                                        ((4, 8, 10), (2, 3, 1), 5000),
                                                        ((3, 10, 7), (2, 9, 5), 1)]]
        # x = 2 * 3**13585, 6,482 digits: the reader rebuilds it from (anchor, k)
        + [jd.find_witness(jd.WitnessQuery((3, 10, 17, 19), (2, 9, 16, 18), 30_000,
                                           retry_other_anchors=False))],
        "CoverageReport": [jd.orbit_sample((3, 5), 40),
                           jd.orbit_sample((3, 5), 40, "low-discrepancy", precision=16)],
    }
    return {name: [json.loads(json.dumps(obj.to_json_dict())) for obj in objs]
            for name, objs in objects.items()}


def _nodes(value, path=()):
    """(path, value) of every JSON value inside ``value``, itself included."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _nodes(child, (*path, key))


def _mutants(value) -> list:
    """Each one-step change of a JSON value: a key dropped or added, an int
    made a float, a bool or a str, a number moved by 1, a bool negated, the
    value wrapped."""
    out = [[value]]
    if isinstance(value, bool):
        out.append(not value)
    if isinstance(value, dict):
        out += [{k: v for k, v in value.items() if k != key} for key in value]
        out.append(dict(value, extra=0))
    if isinstance(value, int) and not isinstance(value, bool):
        out += [float(value), bool(value), str(value)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [value - 1, value + 1]
    return out


@pytest.mark.parametrize("reader", READERS, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_reader_takes_only_canonical_payloads(reader, data):
    payload = copy.deepcopy(data.draw(st.sampled_from(valid_payloads()[reader.__name__])))
    path, node = data.draw(st.sampled_from(list(_nodes(payload))), label="path")
    mutant = data.draw(st.sampled_from(_mutants(node)), label="mutant")
    if path:
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = mutant
    else:
        payload = mutant
    try:
        rebuilt = reader.from_json_dict(payload)
    except (ValueError, jointdigits.ResourceLimitError):
        return
    assert json.dumps(rebuilt.to_json_dict(), sort_keys=True) == json.dumps(payload, sort_keys=True)
