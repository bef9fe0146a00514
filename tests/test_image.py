"""Image tests: power-interval criterion vs combined-base table."""

import copy
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointdigits import (
    AttainabilityVerdict,
    DependencePair,
    ImageReport,
    IndependentBasesError,
    JointTable,
    ResourceLimitError,
    attainable_by_power_criterion,
    image_exact,
    image_via_table,
    joint_table,
    leading_digit_tuple,
    pair_dependence,
    power_criterion_holds,
    scan_window,
)

# every dependent pair with root a in 2..5, coprime exponents <= 4,
# bases >= 3, combined base <= 10**6 (the acceptance sweep re-derives this)
DEPENDENT_PAIRS = [
    (4, 8), (8, 16),
    (3, 9), (3, 27), (3, 81), (9, 27), (27, 81),
    (4, 16), (4, 64), (4, 256), (16, 64),
    (5, 25), (5, 125), (5, 625), (25, 125),
]

EXCLUDED_4_8 = {(2, 3), (2, 6), (2, 7), (3, 2), (3, 4), (3, 5)}


def criterion_oracle(a, j1, j2, c_lo=-64, c_hi=64):
    """Oracle: Fraction arithmetic scan over a wide, fixed c window."""
    for c in range(c_lo, c_hi + 1):
        p = Fraction(a) ** c
        if Fraction(j1, j2 + 1) < p < Fraction(j1 + 1, j2):
            return c
    return None


def window_scan_oracle(dep, j1, j2):
    """Oracle: the per-pair scan, testing every c of scan_window(dep) in turn."""
    lo, hi = scan_window(dep)
    for c in range(lo, hi + 1):
        if power_criterion_holds(dep.a, c, j1, j2):
            return AttainabilityVerdict(
                pair=(j1, j2), attainable=True, certificate=c, scan_range=(lo, hi)
            )
    return AttainabilityVerdict(
        pair=(j1, j2), attainable=False, certificate=None, scan_range=(lo, hi)
    )


def digit_set_oracle(b, e, j):
    """Oracle: expand the digit-set union directly."""
    out = set()
    for l in range(e):
        out |= set(range(j * b**l, (j + 1) * b**l))
    return out


def dense_table_oracle(dep):
    """Oracle: the dense per-D build, refining each combined-base digit D
    to base1 and base2 by its own power loop b**l <= D < b**(l+1)."""

    def refine(D, b):
        pw = 1
        while pw * b <= D:
            pw *= b
        return D // pw

    return tuple(
        (refine(D, dep.base1), refine(D, dep.base2)) for D in range(1, dep.combined_base)
    )


# every dependent pair with root a <= 12, bases >= 3, combined base <= 5000
SMALL_DEPENDENCES = [
    dep
    for a in range(2, 13)
    for e1 in range(1, 13)
    for e2 in range(1, 13)
    if e1 != e2 and gcd(e1, e2) == 1
    for dep in [DependencePair(a=a, e1=e1, e2=e2)]
    if min(dep.base1, dep.base2) >= 3 and dep.combined_base <= 5000
]


def _row_verdicts(dep, j1, j2s):
    """Oracle: verdicts of (j1, j2) for ascending j2, one pair at a time.

    j1/(j2+1) falls as j2 rises, so one walk serves the row: from the top of
    the window, where a**c = P/Q is above every j1/(j2+1), c steps down while
    a**(c-1) is still above, i.e. P*(j2+1) > a*j1*Q.
    """
    window = scan_window(dep)
    a, c, P, Q = dep.a, window[1], dep.a ** window[1], 1
    for j2 in j2s:
        while P * (j2 + 1) > a * j1 * Q:
            if c > 0:
                P //= a
            else:
                Q *= a
            c -= 1
        holds = power_criterion_holds(a, c, j1, j2)
        yield AttainabilityVerdict(
            pair=(j1, j2), attainable=holds, certificate=c if holds else None,
            scan_range=window,
        )


def report_oracle(b1, b2):
    """Oracle: the image report as one verdict per pair, and its JSON form."""
    dep = pair_dependence(b1, b2)
    verdicts = tuple(v for j1 in range(1, b1) for v in _row_verdicts(dep, j1, range(1, b2)))
    excluded = sorted(list(v.pair) for v in verdicts if not v.attainable)
    payload = {
        "bases": [b1, b2],
        "dependence": dep.to_json_dict(),
        "attainable_count": len(verdicts) - len(excluded),
        "excluded_count": len(excluded),
        "pairs": [
            {"pair": list(v.pair), "attainable": v.attainable, "certificate_c": v.certificate}
            for v in verdicts
        ],
        "excluded": excluded,
    }
    return verdicts, payload


def image_json_oracle(report):
    """Oracle: the image report's JSON as one dict per pair, built from its rows."""
    pairs, excluded = [], []
    for j1, row in enumerate(report.rows, 1):
        for start, stop, c in row:
            for j2 in range(start, stop):
                pairs.append({"pair": [j1, j2], "attainable": c is not None, "certificate_c": c})
                if c is None:
                    excluded.append([j1, j2])
    return {
        "bases": list(report.bases),
        "dependence": report.dependence.to_json_dict() if report.dependence else None,
        "attainable_count": len(pairs) - len(excluded),
        "excluded_count": len(excluded),
        "pairs": pairs,
        "excluded": excluded,
    }


def table_json_oracle(table):
    """Oracle: the joint table's JSON as one dict per cell, from runs_by_pair."""
    return {
        "bases": [table.dep.base1, table.dep.base2],
        "dependence": table.dep.to_json_dict(),
        "combined_base": table.combined_base,
        "cells": [
            {"j1": j1, "j2": j2, "runs": [list(r) for r in runs]}
            for (j1, j2), runs in table.runs_by_pair().items()
        ],
        "excluded": [list(p) for p in table.excluded()],
    }


def dependent_bases(max_pairs):
    """(b1, b2) = (a**e1, a**e2) with coprime e1 != e2, both >= 3, few pairs."""
    return st.sampled_from([
        (a**e1, a**e2)
        for a in range(2, 41)
        for e1 in range(1, 13)
        for e2 in range(1, 13)
        if e1 != e2 and gcd(e1, e2) == 1 and min(a**e1, a**e2) >= 3
        and (a**e1 - 1) * (a**e2 - 1) <= max_pairs
    ])


def _never_called(*args, **kwargs):
    raise AssertionError("reached past the enumeration cap")


_image_exact = lru_cache(maxsize=None)(image_exact)


def any_bases(max_pairs):
    """Distinct (b1, b2), dependent or not, in either orientation, few pairs."""
    return st.one_of(
        dependent_bases(max_pairs),
        st.tuples(st.integers(3, 120), st.integers(3, 120)).filter(
            lambda b: b[0] != b[1] and (b[0] - 1) * (b[1] - 1) <= max_pairs),
    )


class TestJsonText:
    """The hand-written emitters against json.dumps of the per-pair oracles."""

    @given(bases=any_bases(max_pairs=6000))
    # rows of (4, 8) and (8, 4) that end in excluded intervals; (3, 10) by density
    @example(bases=(4, 8))
    @example(bases=(8, 4))
    @example(bases=(3, 10))
    @settings(max_examples=80, deadline=None)
    def test_image_text_matches_oracle(self, bases):
        report = image_exact(*bases, allow_independent=True)
        oracle = image_json_oracle(report)
        text = report.to_json_text()
        assert text == json.dumps(oracle, sort_keys=True)
        assert report.to_json_dict() == oracle
        assert ImageReport.from_json_dict(report.to_json_dict()) == report
        if report.dependence is None:
            assert all(p["certificate_c"] == "density" for p in oracle["pairs"])

    def test_examples_cover_excluded_row_ends(self):
        assert image_exact(4, 8).rows[1][-1] == (6, 8, None)
        assert image_exact(8, 4).rows[1][-1] == (3, 4, None)

    @given(dep=st.sampled_from(SMALL_DEPENDENCES))
    @example(dep=pair_dependence(4, 8))
    @example(dep=pair_dependence(8, 4))
    @settings(max_examples=40, deadline=None)
    def test_table_text_matches_oracle(self, dep):
        table = joint_table(dep)
        oracle = table_json_oracle(table)
        assert table.to_json_text() == json.dumps(oracle, sort_keys=True)
        assert table.to_json_dict() == oracle
        assert JointTable.from_json_dict(table.to_json_dict()) == table

    @pytest.mark.parametrize("b1, b2", [(81, 243), (243, 81), (1296, 6), (6, 1296), (61, 97)])
    def test_benchmark_sized_images_match_oracle(self, b1, b2):
        report = image_exact(b1, b2, allow_independent=True)
        assert report.to_json_text() == json.dumps(image_json_oracle(report), sort_keys=True)

    @pytest.mark.parametrize("b1, b2", [(16, 64), (64, 16), (4, 1024), (1024, 4), (9, 729)])
    def test_benchmark_sized_tables_match_oracle(self, b1, b2):
        table = joint_table(pair_dependence(b1, b2))
        assert table.to_json_text() == json.dumps(table_json_oracle(table), sort_keys=True)


class TestPowerCriterion:
    def test_matches_fraction_oracle(self):
        for a in (2, 3, 5):
            for j1 in range(1, 10):
                for j2 in range(1, 10):
                    for c in range(-8, 9):
                        expected = (
                            Fraction(j1, j2 + 1) < Fraction(a) ** c < Fraction(j1 + 1, j2)
                        )
                        assert power_criterion_holds(a, c, j1, j2) == expected

    def test_excluded_pair_2_3(self):
        # no power of 2 in the open interval (1/2, 1)
        dep = pair_dependence(4, 8)
        v = attainable_by_power_criterion(dep, 2, 3)
        assert not v.attainable and v.certificate is None

    def test_diagonal_via_c0(self):
        dep = pair_dependence(4, 8)
        v = attainable_by_power_criterion(dep, 1, 1)
        assert v.attainable and v.certificate == 0

    def test_excluded_pair_3_5(self):
        dep = pair_dependence(4, 8)
        assert not attainable_by_power_criterion(dep, 3, 5).attainable

    def test_attainable_2_1(self):
        dep = pair_dependence(4, 8)
        v = attainable_by_power_criterion(dep, 2, 1)
        assert v.attainable and v.certificate == 1

    def test_certificates_match_oracle(self):
        for b1, b2 in DEPENDENT_PAIRS[:8]:
            dep = pair_dependence(b1, b2)
            for j1 in range(1, b1):
                for j2 in range(1, b2):
                    v = attainable_by_power_criterion(dep, j1, j2)
                    # the least c of the criterion, None when there is none
                    assert v.certificate == criterion_oracle(dep.a, j1, j2)
                    assert v.attainable == (v.certificate is not None)

    @given(dep=st.sampled_from(SMALL_DEPENDENCES), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_walk_matches_window_scan_oracle(self, dep, data):
        j1 = data.draw(st.integers(1, dep.base1 - 1), label="j1")
        j2 = data.draw(st.integers(1, dep.base2 - 1), label="j2")
        expected = window_scan_oracle(dep, j1, j2)
        assert attainable_by_power_criterion(dep, j1, j2) == expected
        # image_exact carries the walk along the j1 row; verdicts are j1-major
        row_major = _image_exact(dep.base1, dep.base2).verdicts
        assert row_major[(j1 - 1) * (dep.base2 - 1) + j2 - 1] == expected

    def test_window_endpoints_provably_fail(self):
        # outside [lo, hi] the power is already past the admissible interval
        for b1, b2 in DEPENDENT_PAIRS:
            dep = pair_dependence(b1, b2)
            lo, hi = scan_window(dep)
            a = dep.a
            for j1 in range(1, b1):
                for j2 in range(1, b2):
                    # a**lo <= j1/(j2+1): cross-multiplied with lo < 0
                    assert (j2 + 1) <= j1 * a**-lo
                    # a**hi >= (j1+1)/j2
                    assert a**hi * j2 >= j1 + 1

    def test_rejects_invalid_digits(self):
        dep = pair_dependence(4, 8)
        with pytest.raises(ValueError):
            attainable_by_power_criterion(dep, 4, 1)
        with pytest.raises(ValueError):
            attainable_by_power_criterion(dep, 1, 8)


class TestJointTable:
    def test_example_cells(self):
        table = joint_table(pair_dependence(4, 8))
        for D in range(8, 12):
            assert table.cell(D) == (2, 1)
        assert table.cell(1) == (1, 1)
        for D in range(48, 56):
            assert table.cell(D) == (3, 6)
        # the half-open convention puts 32 with (2, 4), not (1, 3)
        assert table.cell(31) == (1, 3)
        assert table.cell(32) == (2, 4)

    def test_full_table_against_digit_set_oracle(self):
        dep = pair_dependence(4, 8)
        table = joint_table(dep)
        sets1 = {j1: digit_set_oracle(4, 3, j1) for j1 in range(1, 4)}
        sets2 = {j2: digit_set_oracle(8, 2, j2) for j2 in range(1, 8)}
        for D in range(1, 64):
            j1, j2 = table.cell(D)
            assert D in sets1[j1] and D in sets2[j2]

    def test_cells_are_total_and_consistent(self):
        for b1, b2 in [(4, 8), (9, 27), (4, 16)]:
            dep = pair_dependence(b1, b2)
            table = joint_table(dep)
            assert len(table.cells) == table.combined_base - 1
            # digits of the integer D itself realize the cell
            for D in range(1, table.combined_base):
                assert leading_digit_tuple(D, (b1, b2)) == table.cell(D)

    def test_member_runs(self):
        table = joint_table(pair_dependence(4, 8))
        assert table.member_runs(2, 1) == [(8, 12)]
        assert table.member_runs(1, 1) == [(1, 2)]
        assert table.member_runs(2, 3) == []
        assert table.member_runs(3, 7) == [(56, 64)]

    def test_resource_cap(self):
        dep = pair_dependence(3, 81)  # combined base 3**4 = 81
        with pytest.raises(ResourceLimitError):
            joint_table(dep, cap=80)
        assert joint_table(dep, cap=81).combined_base == 81
        # 3**(10**18) would never finish: the cap must refuse it uncomputed
        with pytest.raises(ResourceLimitError):
            joint_table(DependencePair(a=3, e1=10**9, e2=10**9 + 1))

    def test_json_round_trip(self):
        table = joint_table(pair_dependence(4, 8))
        assert JointTable.from_json_dict(table.to_json_dict()) == table

    @given(dep=st.sampled_from(SMALL_DEPENDENCES))
    @settings(max_examples=60, deadline=None)
    def test_runs_expand_to_dense_oracle(self, dep):
        table = joint_table(dep)
        dense = dense_table_oracle(dep)
        assert table.cells == dense
        image = frozenset(dense)
        assert table.image() == image
        assert table.excluded() == sorted(
            (j1, j2)
            for j1 in range(1, dep.base1)
            for j2 in range(1, dep.base2)
            if (j1, j2) not in image
        )

    def test_json_rejects_moved_run(self):
        # move one run of (2, 1) into the empty cell (2, 3): the runs still
        # tile 1..63, so only the recomputation can tell
        payload = joint_table(pair_dependence(4, 8)).to_json_dict()
        tampered = copy.deepcopy(payload)
        cells = {(c["j1"], c["j2"]): c for c in tampered["cells"]}
        cells[(2, 3)]["runs"] = cells[(2, 1)]["runs"]
        cells[(2, 1)]["runs"] = []
        assert sorted(D for c in tampered["cells"] for lo, hi in c["runs"]
                      for D in range(lo, hi)) == list(range(1, 64))
        with pytest.raises(ValueError):
            JointTable.from_json_dict(tampered)

    @pytest.mark.parametrize("change", [
        {"a": 2.5}, {"a": "2"}, {"e1": 2.0}, {"e1": True}, {"e2": True},
        {"combined_base": 65}, {"combined_base": 64.0}, {"combined_base": None},
    ])
    def test_json_rejects_malformed_dependence_fields(self, change):
        payload = joint_table(pair_dependence(4, 8)).to_json_dict()
        payload["dependence"] = dict(payload["dependence"], **change)
        with pytest.raises(ValueError):
            DependencePair.from_json_dict(payload["dependence"])
        with pytest.raises(ValueError):
            JointTable.from_json_dict(payload)

    def test_json_rejects_absurd_exponents_before_computing(self):
        payload = joint_table(pair_dependence(4, 8)).to_json_dict()
        # 2**(10**18) would never finish; the cap check must come first
        payload["dependence"] = {"a": 2, "e1": 10**9, "e2": 10**9 + 1, "combined_base": 64}
        with pytest.raises(ResourceLimitError):
            JointTable.from_json_dict(payload)

    def test_json_rejects_mismatched_sizes_before_expanding(self):
        payload = joint_table(pair_dependence(4, 8)).to_json_dict()
        top = copy.deepcopy(payload)
        top["combined_base"] = 10**12
        inner = copy.deepcopy(payload)
        inner["dependence"]["combined_base"] = 10**12
        # a real pair within the cap whose table has 2**24 - 1 runs: the
        # 21 cells of the payload give it away before anything is built
        big = copy.deepcopy(payload)
        big["dependence"] = {"a": 4096, "e1": 1, "e2": 2, "combined_base": 2**24}
        big["combined_base"] = 2**24
        for bad in (top, inner, big):
            with pytest.raises(ValueError):
                JointTable.from_json_dict(bad)


class TestImageExact:
    def test_4_8_exclusions(self):
        report = image_exact(4, 8)
        assert report.excluded == frozenset(EXCLUDED_4_8)
        assert report.counts == (15, 6)

    def test_certificate_soundness(self):
        for b1, b2 in DEPENDENT_PAIRS:
            report = image_exact(b1, b2)
            a = report.dependence.a
            for v in report.verdicts:
                if v.attainable:
                    assert power_criterion_holds(a, v.certificate, *v.pair)

    def test_dual_route_sample(self):
        # the full sweep with timing lives in the acceptance suite;
        # (3, 9) is the smallest pair of the b2 = b1**2 family
        for b1, b2 in [(4, 8), (9, 27), (4, 16), (5, 25), (3, 9), (3, 27)]:
            dep = pair_dependence(b1, b2)
            assert image_via_table(dep) == image_exact(b1, b2).attainable

    def test_small_witness_realization(self):
        for b1, b2 in [(4, 8), (9, 27), (4, 16)]:
            report = image_exact(b1, b2)
            b = report.dependence.combined_base
            realized = set()
            for x in range(1, b):
                realized.add(leading_digit_tuple(x, (b1, b2)))
            assert realized == set(report.attainable)

    def test_diagonal_always_attainable(self):
        for b1, b2 in DEPENDENT_PAIRS:
            report = image_exact(b1, b2)
            assert (1, 1) in report.attainable
            assert report.certificate_for(1, 1) == 0

    def test_independent_raises_without_optin(self):
        with pytest.raises(IndependentBasesError):
            image_exact(3, 10)

    def test_independent_trivial_report(self):
        report = image_exact(3, 10, allow_independent=True)
        assert report.dependence is None
        assert report.counts == (18, 0)
        payload = report.to_json_dict()
        assert all(p["certificate_c"] == "density" for p in payload["pairs"])

    def test_json_round_trip(self):
        for args in [(4, 8), (9, 27)]:
            report = image_exact(*args)
            rebuilt = ImageReport.from_json_dict(report.to_json_dict())
            assert rebuilt == report
            assert rebuilt.bases == report.bases
            assert rebuilt.dependence == report.dependence
            assert rebuilt.attainable == report.attainable
            assert rebuilt.excluded == report.excluded
        trivial = image_exact(3, 10, allow_independent=True)
        rebuilt = ImageReport.from_json_dict(trivial.to_json_dict())
        assert rebuilt.dependence is None
        assert rebuilt.attainable == trivial.attainable

    def test_json_rejects_tampered_verdicts(self):
        # each tampering keeps counts and the excluded list consistent, so
        # only the recomputation can tell
        payload = image_exact(4, 8).to_json_dict()
        cert7 = copy.deepcopy(payload)
        for p in cert7["pairs"]:
            if p["pair"] == [2, 3]:
                p["attainable"], p["certificate_c"] = True, 7
        cert7["excluded"].remove([2, 3])
        cert7["attainable_count"], cert7["excluded_count"] = 16, 5
        density = image_exact(3, 10, allow_independent=True).to_json_dict()
        density["pairs"][0]["attainable"] = False
        density["excluded"] = [density["pairs"][0]["pair"]]
        density["attainable_count"], density["excluded_count"] = 17, 1
        for bad in (cert7, density):
            with pytest.raises(ValueError):
                ImageReport.from_json_dict(bad)

    def test_json_rejects_oversized_bases_before_rebuilding(self, monkeypatch):
        monkeypatch.setattr("jointdigits.image.image_exact", _never_called)
        payload = {"bases": [3, 43046721], "dependence": None, "pairs": []}
        with pytest.raises(ResourceLimitError):
            ImageReport.from_json_dict(payload)

    def test_enumeration_cap_refuses_before_any_verdict(self, monkeypatch):
        # 2 * 43046720 and 2 * 99999999 pairs, both past DEFAULT_ENUMERATION_CAP
        monkeypatch.setattr("jointdigits.image.AttainabilityVerdict", _never_called)
        with pytest.raises(ResourceLimitError):
            image_exact(3, 43046721)
        with pytest.raises(ResourceLimitError):
            image_exact(3, 10**8, allow_independent=True)

    @given(bases=dependent_bases(max_pairs=6000))
    @settings(max_examples=80, deadline=None)
    def test_rows_match_row_verdicts_oracle(self, bases):
        b1, b2 = bases
        report = image_exact(b1, b2)
        verdicts, payload = report_oracle(b1, b2)
        assert report.verdicts == verdicts
        assert report.attainable == frozenset(v.pair for v in verdicts if v.attainable)
        assert report.excluded == frozenset(v.pair for v in verdicts if not v.attainable)
        assert report.counts == (payload["attainable_count"], payload["excluded_count"])
        for v in verdicts:
            assert report.certificate_for(*v.pair) == v.certificate
        assert report.to_json_dict() == payload

    @given(bases=dependent_bases(max_pairs=10**6), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_pair_matches_row_verdicts_oracle(self, bases, data):
        dep = pair_dependence(*bases)
        j1 = data.draw(st.integers(1, dep.base1 - 1), label="j1")
        j2 = data.draw(st.integers(1, dep.base2 - 1), label="j2")
        expected = next(_row_verdicts(dep, j1, [j2]))
        assert attainable_by_power_criterion(dep, j1, j2) == expected

    @pytest.mark.parametrize(
        "b1, b2", [*DEPENDENT_PAIRS, (8, 4), (81, 243), (12, 1728), (1728, 12), (729, 27),
                   (512, 32), (1296, 6), (6, 1296), (36, 216), (256, 2048), (2048, 256)]
    )
    def test_rows_tile_in_few_intervals(self, b1, b2):
        report = image_exact(b1, b2)
        lo, hi = scan_window(report.dependence)
        assert len(report.rows) == b1 - 1
        for row in report.rows:
            assert len(row) <= 2 * (hi - lo + 1)
            assert row[0][0] == 1 and row[-1][1] == b2
            for (_, stop, c), (start, _, c_next) in zip(row, row[1:]):
                assert stop == start and not (c is None and c_next is None)
            for start, stop, c in row:
                assert start < stop and (c is None or lo < c < hi)

    def test_rows_build_no_per_pair_object(self, monkeypatch):
        monkeypatch.setattr("jointdigits.image.AttainabilityVerdict", _never_called)
        report = image_exact(256, 2048)
        assert len(report.rows) == 255 and sum(report.counts) == 255 * 2047
        assert report.certificate_for(1, 1) == 0
        trivial = image_exact(61, 97, allow_independent=True)
        assert trivial.counts == (60 * 96, 0) and trivial.certificate_for(60, 96) is None

    def test_certificate_for_rejects_pairs_off_the_grid(self):
        report = image_exact(4, 8)
        for pair in [(0, 1), (4, 1), (1, 0), (1, 8)]:
            with pytest.raises(ValueError):
                report.certificate_for(*pair)

    def test_verdict_round_trip(self):
        v = attainable_by_power_criterion(pair_dependence(4, 8), 3, 6)
        assert AttainabilityVerdict.from_json_dict(v.to_json_dict()) == v

    @pytest.mark.parametrize("b1, b2", [(4, 8), (27, 729), (61, 97)])
    def test_every_verdict_round_trips(self, b1, b2):
        verdicts = image_exact(b1, b2, allow_independent=True).verdicts
        for v in verdicts:
            assert AttainabilityVerdict.from_json_dict(v.to_json_dict()) == v

    def test_verdict_rejects_malformed_payloads(self):
        good = attainable_by_power_criterion(pair_dependence(4, 8), 3, 6).to_json_dict()
        excluded = attainable_by_power_criterion(pair_dependence(4, 8), 2, 3).to_json_dict()
        density = image_exact(61, 97, allow_independent=True).verdicts[0].to_json_dict()
        lo, hi = good["scan_range"]
        bad = [
            {"pair": [1, 2, 3], "attainable": "yes", "certificate_c": None, "scan_range": [5]},
            dict(good, pair=[0, 6]), dict(good, pair=[3]), dict(good, pair=[3, True]),
            dict(good, pair="36"), dict(good, attainable=1), dict(good, attainable="yes"),
            dict(good, scan_range=[5]), dict(good, scan_range=[hi, lo]),
            dict(good, scan_range=[lo, lo]), dict(good, scan_range=[lo, 2.5]),
            dict(good, certificate_c=None), dict(good, certificate_c=hi + 1),
            dict(good, certificate_c=lo - 1), dict(good, certificate_c=True),
            dict(good, certificate_c="1"),
            dict(excluded, certificate_c=0), dict(excluded, attainable=True),
            dict(excluded, scan_range=[hi, lo]), dict(excluded, scan_range=[lo, lo]),
            dict(density, attainable=False), dict(density, certificate_c=0),
            dict(good, scan_range=None),
        ]
        for payload in bad:
            with pytest.raises(ValueError):
                AttainabilityVerdict.from_json_dict(payload)
