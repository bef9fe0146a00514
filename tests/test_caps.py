"""Size caps: one rule refuses every over-cap input before anything that large is built."""

import json
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jointdigits import (
    DependencePair,
    DependenceReport,
    JointTable,
    ResourceLimitError,
    WitnessQuery,
    classify_parameter,
    digit_set,
    digit_set_ranges,
    find_witness,
    frequency_vector,
    image_exact,
    image_observed,
    integer_nth_root,
    joint_table,
    measure_map,
    orbit_sample,
    pair_dependence,
    pairwise_report,
    primitive_root,
    rectangle_of,
    refine_digit,
)
from jointdigits.cli import main
from jointdigits.errors import _check_cap, _check_power

# one cheap over-cap input per cap
OVER_CAP = {
    "primitive_root": lambda: primitive_root(1 << 2048),
    "joint_table": lambda: joint_table(DependencePair(2, 10**6, 3)),
    "joint_table digit pairs": lambda: joint_table(pair_dependence(4096, 2**24)),
    "image_exact": lambda: image_exact(5000, 5001, allow_independent=True),
    "measure_map": lambda: measure_map((300, 301)),
    "orbit_sample samples": lambda: orbit_sample((3, 10), 10**9),
    "orbit_sample precision": lambda: orbit_sample((3, 10), 10, precision=10**6),
    "find_witness": lambda: find_witness(
        WitnessQuery(bases=(3, 10), target=(2, 9), budget=11), budget_cap=10),
    "image_observed": lambda: image_observed((3, 10), 10**8 + 1),
    "digit_set": lambda: digit_set(3, 10**7, 1),
    "digit_set_ranges": lambda: digit_set_ranges(3, 8000, 1),
    "deps": lambda: pairwise_report((2**150, 2**151)).to_json_dict(),
    "classify_parameter": lambda: classify_parameter(
        Fraction(1, 2), frequency_vector((100003,))),
}


@pytest.mark.parametrize("name", OVER_CAP)
def test_every_cap_refuses_with_the_one_rule(name):
    with pytest.raises(ResourceLimitError, match="exceeds cap"):
        OVER_CAP[name]()


def _peak_bytes(call) -> int:
    """Peak traced allocation of call(), which may refuse with ResourceLimitError."""
    tracemalloc.start()
    try:
        call()
    except ResourceLimitError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_sizes_are_bounded_before_work():
    # each of these built a power or a table of more than 2 MB before it
    # answered or refused; the answers are those of the full computation
    fv = frequency_vector((100003,))  # enclosures of the base only, not its edges
    assert integer_nth_root(5, 10**8) == (1, False)
    assert refine_digit(5, 3, 10**7) == 1
    calls = [
        lambda: integer_nth_root(5, 10**8),
        lambda: refine_digit(5, 3, 10**7),
        lambda: digit_set(3, 10**7, 1),
        lambda: classify_parameter(Fraction(1, 2), fv),
    ]
    for call in calls:
        assert _peak_bytes(call) < 1 << 20


def test_table_reader_holds_no_second_copy_of_its_text():
    # the reader compares the payload with the rebuilt table's text and
    # parses nothing back; a second parse and dump of that 2.84 MB text
    # would alone take the peak past 30 MB
    payload = json.loads(joint_table(pair_dependence(16, 4096)).to_json_text())
    assert _peak_bytes(lambda: JointTable.from_json_dict(payload)) < 20 << 20


def test_deps_json_reads_back_under_the_default_digit_limit(capsys):
    # a combined base past the cap is refused, not printed; one under it
    # has at most 4300 digits, which json.loads reads with the default limit
    limit = sys.get_int_max_str_digits()
    try:
        for bases in (f"{2**150},{2**151}", f"{2**2046},{2**2047}"):
            assert main(["deps", "--bases", bases, "--output", "json"]) == 1
            out, err = capsys.readouterr()
            assert out == "" and "exceeds cap" in err
        assert main(["deps", "--bases", f"{10**65},{10**66}"]) == 0
        assert "combined_base=1" + "0" * 4290 + "\n" in capsys.readouterr().out
        assert main(["deps", "--bases", f"{10**65},{10**66},7", "--output", "json"]) == 0
        sys.set_int_max_str_digits(4300)
        report = DependenceReport.from_json_dict(json.loads(capsys.readouterr().out))
        assert report.dependent_pairs[0][2].combined_base == 10**4290
    finally:
        sys.set_int_max_str_digits(limit)


def test_ranges_refuse_before_building():
    assert len(digit_set_ranges(3, 2000, 1)) == 2000
    assert _peak_bytes(lambda: digit_set_ranges(3, 8000, 1)) < 1 << 20


def test_table_text_grid_holds_no_structure_per_digit_pair(capsys):
    # 16,4096 has 61,425 digit pairs and prints 0.9 MB; a dict entry, a run
    # list and a row cell per pair peaked at about 21 MB before the first line
    peak = _peak_bytes(lambda: main(["table", "--bases", "16,4096"]))
    out, err = capsys.readouterr()
    assert (len(out), err) == (933_911, "")
    assert peak < 8 << 20


def test_one_rectangle_of_a_large_base_needs_no_edge_table():
    r = rectangle_of((100003,), (5,))
    assert 0 < float(r.measure().a) < 1


@given(a=st.integers(1, 100), e=st.integers(1, 80),
       shift=st.integers(-2, 2) | st.integers(-2**70, 2**70))
def test_check_power_matches_the_built_power(a, e, shift):
    cap = max(0, a**e + shift)  # at the power, or anywhere below or above it
    if a**e <= cap:
        assert _check_power("power", a, e, cap) == a**e
    else:
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            _check_power("power", a, e, cap)


def test_check_power_refuses_without_building():
    # 2**(10**18) could not be built; the bit bound refuses it first
    with pytest.raises(ResourceLimitError, match=r"combined base 2\*\*1000000000000000000 "):
        _check_power("combined base", 2, 10**18, 1 << 24)
    assert _check_power("combined base", 2, 24, 1 << 24) == 1 << 24
    assert _check_cap("budget", 10, 10) == 10
    with pytest.raises(ResourceLimitError, match="^budget 11 exceeds cap 10$"):
        _check_cap("budget", 11, 10)
