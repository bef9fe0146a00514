"""Digit-core tests: exact leading digits, digit sets, refinement."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointdigits import (
    DigitSet,
    ResourceLimitError,
    as_positive_rational,
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
from jointdigits.digits import (
    _PARSE_CUTOFF,
    _MantissaCursor,
    _format_decimal,
    _parse_decimal,
    _split,
)


def repeated_division_digit(x, b):
    """Independent oracle: scale x into [1, b) by exact division, floor."""
    x = Fraction(x)
    while x >= b:
        x /= b
    while x < 1:
        x *= b
    return x.numerator // x.denominator


positive_rationals = st.builds(
    Fraction, st.integers(1, 10**12), st.integers(1, 10**12)
)
bases = st.integers(3, 64)


class TestLeadingDigit:
    def test_x_equal_to_base(self):
        assert leading_digit(7, 7) == 1

    def test_56_base_4(self):
        # 56 = 3*16 + 2*4 + 0: repeated-division oracle agrees
        assert repeated_division_digit(56, 4) == 3
        assert leading_digit(56, 4) == 3

    def test_single_digit_identity(self):
        for b in (3, 4, 10, 37):
            for j in range(1, b):
                assert leading_digit(j, b) == j

    def test_one_third_base_10(self):
        # 3/10 <= 1/3 < 4/10, by cross multiplication: 9 <= 10 and 10 < 12
        assert leading_digit(Fraction(1, 3), 10) == 3

    def test_boundary_values_exact(self):
        # x = j * b**k lands exactly on the digit-j boundary
        for b, j, k in [(10, 3, 50), (7, 6, -40), (3, 2, 0), (47, 46, 13)]:
            assert leading_digit(Fraction(j) * Fraction(b) ** k, b) == j

    def test_huge_and_tiny_inputs(self):
        assert leading_digit(10**500 + 1, 10) == 1
        assert leading_digit(Fraction(1, 10**500), 10) == 1
        x = Fraction(10**500 - 1)
        assert leading_digit(x, 10) == 9
        assert leading_digit(x, 10) == repeated_division_digit(x, 10)

    def test_rejects_nonpositive_and_floats(self):
        with pytest.raises(ValueError):
            leading_digit(0, 10)
        with pytest.raises(ValueError):
            leading_digit(Fraction(-3, 4), 10)
        with pytest.raises(TypeError):
            leading_digit(0.5, 10)

    def test_rejects_small_bases(self):
        for b in (2, 1, 0, -5):
            with pytest.raises(ValueError):
                leading_digit(7, b)
        with pytest.raises(TypeError):
            leading_digit(7, 4.0)

    @given(x=positive_rationals, b=bases)
    def test_matches_repeated_division_oracle(self, x, b):
        assert leading_digit(x, b) == repeated_division_digit(x, b)

    @given(x=positive_rationals, b=bases, m=st.integers(-30, 30))
    def test_scale_invariance(self, x, b, m):
        assert leading_digit(x * Fraction(b) ** m, b) == leading_digit(x, b)

    @given(x=positive_rationals, b=bases)
    def test_digit_in_range(self, x, b):
        assert 1 <= leading_digit(x, b) <= b - 1

    @given(x=positive_rationals, b=bases)
    def test_floor_log_brackets(self, x, b):
        k = floor_log(x, b)
        assert Fraction(b) ** k <= x < Fraction(b) ** (k + 1)


class TestSplit:
    """_split against the repeated-division oracle and the Fraction bracket."""

    @staticmethod
    def check(p, q, b):
        """(k, digit) from _split(p, q, b), after checking its bracket and mantissa."""
        x = Fraction(p, q)
        k, n, d = _split(p, q, b)
        assert Fraction(b) ** k <= x < Fraction(b) ** (k + 1)
        assert Fraction(n, d) == x / Fraction(b) ** k
        return k, n // d

    @settings(max_examples=60, deadline=None)
    @given(x=positive_rationals, b=bases, m=st.integers(-2000, 2000), c=st.integers(1, 10**6))
    def test_matches_oracles(self, x, b, m, c):
        # |k| up to about 2000, on unreduced p/q as well as reduced
        x = x * Fraction(b) ** m
        _, j = self.check(c * x.numerator, c * x.denominator, b)
        assert j == repeated_division_digit(x, b)

    def test_powers_and_digit_edges(self):
        for b in (3, 10, 37):
            for k in (0, 1, 2, 3, 7, 64, 1000):
                for j in sorted({1, 2, b // 2, b - 1}):
                    assert self.check(j * b**k, 1, b) == (k, j)
                    assert self.check(j, b**k, b) == (-k, j)
                    if j > 1:
                        assert self.check(j * b**k - 1, 1, b) == (k, j - 1)
                    elif k > 0:
                        assert self.check(b**k - 1, 1, b) == (k - 1, b - 1)

    def test_huge_and_tiny(self):
        k, j = self.check(7**30000, 1, 10)
        assert j * 10**k <= 7**30000 < (j + 1) * 10**k
        k, j = self.check(1, 7**30000, 10)
        assert j * 7**30000 <= 10**-k < (j + 1) * 7**30000
        assert self.check(10**3000 + 1, 10**3000, 10) == (0, 1)
        assert self.check(10**3000 - 1, 10**3000, 10) == (-1, 9)


class TestLeadingDigitTuple:
    def test_known_table_rows(self):
        assert leading_digit_tuple(9, (4, 8)) == (2, 1)
        assert leading_digit_tuple(56, (4, 8)) == (3, 7)

    def test_all_ones(self):
        assert leading_digit_tuple(1, (4, 8, 10, 37)) == (1, 1, 1, 1)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            leading_digit_tuple(5, (4, 4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            leading_digit_tuple(5, ())

    @given(x=positive_rationals)
    def test_componentwise(self, x):
        bs = (3, 10, 16)
        assert leading_digit_tuple(x, bs) == tuple(leading_digit(x, b) for b in bs)


class TestDigitSet:
    def test_expansion_4_3_1(self):
        expected = {1} | set(range(4, 8)) | set(range(16, 32))
        assert set(digit_set(4, 3, 1)) == expected

    def test_expansion_8_2_2(self):
        assert digit_set(8, 2, 2).members == (2,) + tuple(range(16, 24))

    def test_exponent_one_is_singleton(self):
        for b in (3, 10, 50):
            for j in (1, b - 1):
                assert digit_set(b, 1, j).members == (j,)

    def test_cardinality_formula(self):
        for b in (3, 4, 7, 10):
            for e in (1, 2, 3):
                for j in (1, b // 2 + 1, b - 1):
                    assert len(digit_set(b, e, j)) == (b**e - 1) // (b - 1)

    def test_partition_small(self):
        # disjoint cover of {1, ..., b**e - 1}
        for b, e in [(3, 4), (10, 3), (16, 2), (5, 1)]:
            seen = []
            for j in range(1, b):
                seen.extend(digit_set(b, e, j))
            assert sorted(seen) == list(range(1, b**e))

    def test_enumeration_cap(self):
        with pytest.raises(ResourceLimitError):
            digit_set(10, 9, 1)
        # membership form keeps working past the cap
        assert digit_set_contains(10**8, 10, 9, 1)
        assert not digit_set_contains(2 * 10**8 + 7, 10, 9, 1)

    def test_ranges_match_members(self):
        for b, e, j in [(4, 3, 1), (8, 2, 5), (10, 2, 9)]:
            s = digit_set(b, e, j)
            from_ranges = [d for lo, hi in digit_set_ranges(b, e, j) for d in range(lo, hi)]
            assert list(s.members) == from_ranges
            assert s.ranges == digit_set_ranges(b, e, j)

    def test_contains_protocol(self):
        s = digit_set(8, 2, 2)
        assert 17 in s
        assert 3 not in s
        assert "17" not in s
        for value in (17.0, True, 0, -17):
            assert not digit_set_contains(value, 8, 2, 2)

    def test_contains_agrees_with_members(self):
        for b, e in [(4, 3), (9, 2)]:
            member_of = {}
            for j in range(1, b):
                for d in digit_set(b, e, j):
                    member_of[d] = j
            for d in range(1, b**e):
                for j in range(1, b):
                    assert digit_set_contains(d, b, e, j) == (member_of[d] == j)

    def test_rejects_bad_digit_or_exponent(self):
        with pytest.raises(ValueError):
            digit_set(4, 3, 0)
        with pytest.raises(ValueError):
            digit_set(4, 3, 4)
        with pytest.raises(ValueError):
            digit_set(4, 0, 1)
        with pytest.raises(TypeError):
            digit_set_ranges(4, 2.0, 1)

    def test_is_dataclass_value(self):
        assert digit_set(4, 2, 3) == DigitSet(
            base=4, exponent=2, digit=3, members=(3, 12, 13, 14, 15)
        )


class TestRefineDigit:
    def test_examples(self):
        assert refine_digit(25, 4, 3) == 1  # 25 in [16, 32)
        assert refine_digit(63, 8, 2) == 7  # 63 in [56, 64)

    def test_exponent_one_identity(self):
        for b in (3, 9, 12):
            for j in range(1, b):
                assert refine_digit(j, b, 1) == j

    def test_total_and_consistent_with_digit_sets(self):
        for b, e in [(4, 3), (8, 2), (3, 5)]:
            for D in range(1, b**e):
                j = refine_digit(D, b, e)
                assert digit_set_contains(D, b, e, j)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            refine_digit(0, 4, 3)
        with pytest.raises(ValueError):
            refine_digit(64, 4, 3)
        with pytest.raises(TypeError):
            refine_digit(25.0, 4, 3)
        # the range is read off the split of D, at and far past b**e
        assert refine_digit(3**20 - 1, 3, 20) == 2
        for D in (3**20, 10**10**4):
            with pytest.raises(ValueError):
                refine_digit(D, 3, 20)

    @given(x=positive_rationals, b=st.integers(3, 20), e=st.integers(1, 3))
    @settings(max_examples=300)
    def test_power_base_refinement(self, x, b, e):
        # the base-b digit is a function of the base-b**e digit
        assert leading_digit(x, b) == refine_digit(leading_digit(x, b**e), b, e)


class TestIterDigitTuples:
    def test_matches_pointwise(self):
        bs = (4, 8, 10)
        scanned = list(iter_digit_tuples(bs, 300))
        for x, tup in enumerate(scanned, start=1):
            assert tup == leading_digit_tuple(x, bs)

    def test_rejects_bad_x_max(self):
        with pytest.raises(ValueError):
            list(iter_digit_tuples((4, 8), 0))


distinct_bases = st.lists(st.integers(3, 40), min_size=1, max_size=3, unique=True)


class TestDigitRuns:
    @given(bs=distinct_bases, x_max=st.integers(1, 5000))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_pointwise(self, bs, x_max):
        runs = list(digit_runs(bs, x_max))
        # the runs tile 1..x_max and adjacent runs differ (maximality)
        assert runs[0][0] == 1 and runs[-1][1] == x_max + 1
        for (_, stop, left), (start, _, right) in zip(runs, runs[1:]):
            assert stop == start and left != right
        for start, stop, digits in runs:
            assert start < stop
            for x in range(start, stop):
                assert leading_digit_tuple(x, bs) == digits

    @pytest.mark.parametrize("x_max", [2.5, True, "10", Fraction(10)])
    def test_rejects_non_int_x_max(self, x_max):
        with pytest.raises(ValueError, match="x_max must be an int"):
            list(digit_runs((3, 10), x_max))

    def test_huge_x_max_costs_runs_not_integers(self):
        runs = list(digit_runs((3, 10, 7), 10**100))
        assert runs[-1][1] == 10**100 + 1
        # one run per digit boundary (j+1) * b**m <= 10**100 of each base
        assert len(runs) <= 1 + sum((b - 1) * (floor_log(10**100, b) + 1) for b in (3, 10, 7))
        # the first and the last x of every run, so every step of every base
        # from digit b-1 back to 1 is checked
        for start, stop, digits in runs:
            assert leading_digit_tuple(start, (3, 10, 7)) == digits
            assert leading_digit_tuple(stop - 1, (3, 10, 7)) == digits


rational_steps = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)).filter(
    lambda r: r != 1
)


class TestBracket:
    @given(
        bs=distinct_bases,
        x0=positive_rationals,
        ratio=rational_steps,
        steps=st.integers(1, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_walk_matches_oracle_every_step(self, bs, x0, ratio, steps):
        # ratio > 1 walks the mantissas up, ratio < 1 walks them down
        cursor = _MantissaCursor(bs, x0, ratio.numerator, ratio.denominator)
        x = x0
        for n in range(steps):
            assert tuple(cursor.digit(i, n) for i in range(len(bs))) == leading_digit_tuple(x, bs)
            x *= ratio


class TestParsing:
    def test_accepts_integer_and_ratio(self):
        assert parse_positive_rational("56") == 56
        assert parse_positive_rational("7/3") == Fraction(7, 3)
        assert parse_positive_rational(" 10 / 4 ") == Fraction(5, 2)

    @pytest.mark.parametrize(
        "bad", ["1e3", "1.5", "-2", "0", "3/0", "abc", "", "1/2/3", "+4"]
    )
    def test_rejects_inexact_or_nonpositive(self, bad):
        with pytest.raises(ValueError):
            parse_positive_rational(bad)

    @given(
        length=st.integers(1, 40) | st.integers(_PARSE_CUTOFF - 5, _PARSE_CUTOFF + 5)
        | st.integers(2 * _PARSE_CUTOFF - 3, 2 * _PARSE_CUTOFF + 3) | st.integers(1, 20_000),
        zeros=st.integers(0, 5) | st.integers(_PARSE_CUTOFF - 2, _PARSE_CUTOFF + 2),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_parse_matches_int(self, length, zeros, seed):
        # leading zeros are part of the grammar, and can fill a whole half
        rng = random.Random(seed)
        digits = "0" * zeros + "".join(rng.choice("0123456789") for _ in range(length))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert _parse_decimal(digits, {}) == int(digits)
            if int(digits):
                assert parse_positive_rational(f"{digits}/7") == Fraction(int(digits), 7)
        finally:
            sys.set_int_max_str_digits(limit)

    @given(
        length=st.integers(1, 40) | st.integers(_PARSE_CUTOFF - 5, _PARSE_CUTOFF + 5)
        | st.integers(4295, 4305) | st.integers(5995, 6005) | st.integers(1, 30_000),
        shape=st.sampled_from(["random", "10**k", "10**k - 1", "0"]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_format_matches_str(self, length, shape, seed):
        # 10**k and 10**k - 1 put runs of zeros and nines across every split
        n = {"random": random.Random(seed).randrange(10 ** (length - 1), 10**length),
             "10**k": 10**length, "10**k - 1": 10**length - 1, "0": 0}[shape]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(n)
            sys.set_int_max_str_digits(4300)  # the default guard, which str() meets
            assert _format_decimal(n) == expected
        finally:
            sys.set_int_max_str_digits(limit)

    def test_library_keeps_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert parse_positive_rational("9" * 4300) == 10**4300 - 1
            for text in ("9" * 4301, f"1/{'9' * 4301}", "0" * 4000 + "1" * 301):
                with pytest.raises(ValueError, match="Exceeds the limit"):
                    parse_positive_rational(text)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_as_positive_rational(self):
        assert as_positive_rational(5) == 5
        assert as_positive_rational(Fraction(2, 6)) == Fraction(1, 3)
        with pytest.raises(TypeError):
            as_positive_rational(1.25)
        with pytest.raises(TypeError):
            as_positive_rational("3")
        with pytest.raises(ValueError):
            as_positive_rational(Fraction(0))


def test_deterministic_across_runs():
    # same inputs, same digits, independent of iteration order or caching
    rng = random.Random(20260809)
    samples = [
        Fraction(rng.randint(1, 10**18), rng.randint(1, 10**18)) for _ in range(200)
    ]
    first = [leading_digit_tuple(x, (3, 7, 10)) for x in samples]
    second = [leading_digit_tuple(x, (3, 7, 10)) for x in samples]
    assert first == second
