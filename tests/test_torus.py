"""Torus-diagnostic tests: rectangles, measures, orbit sampling."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jointdigits
from jointdigits import (
    SAMPLERS,
    CoverageReport,
    ResourceLimitError,
    classify_parameter,
    frequency_vector,
    image_exact,
    leading_digit_tuple,
    measure_map,
    orbit_sample,
    rectangle_of,
    torus_digit_tuple,
    total_measure,
)
from jointdigits.torus import MAX_PRECISION, _context, _endpoints


def rational_iv(x: Fraction, ctx):
    return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)


def interval_floor(x, precision: int) -> int | None:
    """floor(x) when both interval endpoints agree on it, else None."""
    lo, hi = _endpoints(x, precision)
    with mpmath.mp.workprec(precision + 16):
        fl, fh = int(mpmath.floor(lo)), int(mpmath.floor(hi))
    return fl if fl == fh else None


def interval_classify_parameter(t: Fraction, fv) -> tuple[int, ...] | None:
    """Oracle: the orbit point's digits by interval exp, floor(b ** frac)."""
    ctx = _context(fv.precision)
    t_iv = rational_iv(Fraction(t), ctx)
    digits = []
    for om, b in zip(fv.omega, fv.bases):
        y = t_iv * om
        k = interval_floor(y, fv.precision)
        if k is None:
            return None
        d = ctx.exp((y - k) * ctx.log(ctx.mpf(b)))
        j = interval_floor(d, fv.precision)
        if j is None:
            return None
        digits.append(j)
    return tuple(digits)


distinct_bases = st.lists(st.integers(3, 60), min_size=1, max_size=3, unique=True)
precisions = st.sampled_from((16, 24, 53, 128))


def enclosure_contains(iv_value, value, precision=128) -> bool:
    lo, hi = _endpoints(iv_value, precision)
    with mpmath.mp.workprec(precision + 16):
        v = mpmath.mpf(value) if not isinstance(value, Fraction) else (
            mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
        )
        return lo <= v <= hi


def enclosure_width(iv_value, precision=128) -> float:
    lo, hi = _endpoints(iv_value, precision)
    return float(hi - lo)


class TestRectangle:
    def test_4_8_diagonal_measure_is_exactly_one_sixth(self):
        # log_4(2) = 1/2 and log_8(2) = 1/3, so the measure is 1/6
        r = rectangle_of((4, 8), (1, 1))
        m = r.measure()
        assert enclosure_contains(m, Fraction(1, 6))
        assert enclosure_width(m) < 2**-100
        assert enclosure_contains(r.lows[0], 0)
        assert enclosure_contains(r.highs[0], Fraction(1, 2))
        assert enclosure_contains(r.highs[1], Fraction(1, 3))

    def test_single_base_rectangle(self):
        r = rectangle_of((10,), (1,))
        with mpmath.mp.workprec(200):
            expected = mpmath.log(2) / mpmath.log(10)
            assert enclosure_contains(r.highs[0], expected)
        assert enclosure_contains(r.lows[0], 0)

    def test_3_10_target_2_9_measure(self):
        r = rectangle_of((3, 10), (2, 9))
        with mpmath.mp.workprec(200):
            expected = (mpmath.log(Fraction(3, 2).numerator) - mpmath.log(2)) * 0 + (
                mpmath.log(3) - mpmath.log(2)
            ) / mpmath.log(3) * ((mpmath.log(10) - mpmath.log(9)) / mpmath.log(10))
        assert enclosure_contains(r.measure(), expected)
        lo, _ = _endpoints(r.measure(), 128)
        assert lo > 0

    def test_contains_classification(self):
        ctx = _context(128)
        r = rectangle_of((4, 8), (1, 1))  # [0, 1/2) x [0, 1/3)
        inside = (rational_iv(Fraction(1, 5), ctx), rational_iv(Fraction(1, 10), ctx))
        assert r.contains(inside) == "inside"
        outside = (rational_iv(Fraction(7, 10), ctx), rational_iv(Fraction(1, 10), ctx))
        assert r.contains(outside) == "outside"
        at_origin = (ctx.mpf(0), ctx.mpf(0))
        assert r.contains(at_origin) == "inside"  # half-open: low edge in
        straddling = (ctx.mpf([0.4999, 0.5001]), rational_iv(Fraction(1, 10), ctx))
        assert r.contains(straddling) == "boundary"
        at_high_edge = (
            rational_iv(Fraction(1, 5), ctx),
            rational_iv(Fraction(1, 3), ctx),
        )
        assert r.contains(at_high_edge) in ("outside", "boundary")

    def test_dimension_mismatch(self):
        ctx = _context(128)
        r = rectangle_of((4, 8), (1, 1))
        with pytest.raises(ValueError):
            r.contains((ctx.mpf(0),))

    def test_rejects_invalid_digits(self):
        with pytest.raises(ValueError):
            rectangle_of((4, 8), (4, 1))
        with pytest.raises(ValueError):
            rectangle_of((4, 8), (1,))


class TestMeasures:
    @pytest.mark.parametrize("bases", [(4, 8), (3, 10), (5, 7, 11)])
    def test_normalization(self, bases):
        total = total_measure(bases)
        lo, hi = _endpoints(total, 128)
        with mpmath.mp.workprec(200):
            # 1 - 2**-64 rounds to 1.0 in double precision; compare carefully
            tol = mpmath.mpf(2) ** -64
            assert 1 - tol <= lo <= 1 <= hi <= 1 + tol

    def test_measure_map_matches_rectangles(self):
        mm = measure_map((4, 8))
        for tup, m in list(mm.items())[:5]:
            r = rectangle_of((4, 8), tup)
            lo1, hi1 = _endpoints(m, 128)
            lo2, hi2 = _endpoints(r.measure(), 128)
            # same quantity by two computations: enclosures overlap
            assert max(lo1, lo2) <= min(hi1, hi2)

    def test_tuple_cap(self):
        with pytest.raises(ResourceLimitError):
            measure_map((50, 51), cap=100)

    def test_frequency_vector_radius(self):
        fv = frequency_vector((3, 10, 7))
        assert fv.max_radius() < 2**-100
        assert len(fv.omega) == 3


class TestTorusClassification:
    def test_matches_exact_core_on_randoms(self):
        rng = random.Random(2)
        classified = 0
        for _ in range(120):
            x = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**6))
            got = torus_digit_tuple(x, (3, 10))
            if got is not None:
                classified += 1
                assert got == leading_digit_tuple(x, (3, 10))
        assert classified > 100  # ambiguity is the exception, not the rule

    def test_exact_power_is_boundary_ambiguous(self):
        # log_8(8) = 1 exactly: the integer-part split cannot be certified
        assert torus_digit_tuple(8, (8, 10)) is None

    def test_plain_integer(self):
        assert torus_digit_tuple(56, (4, 8)) == (3, 7)

    def test_classify_parameter_origin(self):
        fv = frequency_vector((4, 8, 10))
        assert classify_parameter(Fraction(0), fv) == (1, 1, 1)

    @given(
        bases=distinct_bases,
        precision=precisions,
        t=st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**7)),
    )
    @settings(max_examples=300, deadline=None)
    def test_classify_parameter_matches_interval_oracle(self, bases, precision, t):
        fv = frequency_vector(bases, precision=precision)
        got = classify_parameter(t, fv)
        want = interval_classify_parameter(t, fv)
        if got is not None and want is not None:
            assert got == want

    @given(
        bases=distinct_bases,
        precision=precisions,
        x=st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
    )
    @settings(max_examples=300, deadline=None)
    def test_certified_torus_tuple_is_exact(self, bases, precision, x):
        got = torus_digit_tuple(x, bases, precision=precision)
        if got is not None:
            assert got == leading_digit_tuple(x, bases)

    def test_below_one_at_low_precision(self):
        # ln x < 0: the integer bounds must keep their sign
        for x in (Fraction(3, 4), Fraction(1, 7), Fraction(2, 10**9)):
            assert torus_digit_tuple(x, (3, 10), precision=24) == leading_digit_tuple(x, (3, 10))

    def test_classify_parameter_matches_rectangle(self):
        fv = frequency_vector((3, 10))
        for m in (1, 5, 17):
            t = Fraction(m, 7)
            tup = classify_parameter(t, fv)
            assert tup is not None
            ctx = _context(fv.precision)
            t_iv = ctx.mpf(t.numerator) / ctx.mpf(t.denominator)
            point = []
            for om in fv.omega:
                y = t_iv * om
                lo, _ = _endpoints(y, fv.precision)
                point.append(y - int(mpmath.floor(lo)))
            assert rectangle_of((3, 10), tup).contains(tuple(point)) != "outside"


class TestOrbitSample:
    def test_integer_scan_4_8(self):
        rep = orbit_sample((4, 8), 63)
        assert rep.rectangles_hit == 15
        assert rep.rectangles_total == 21
        assert rep.boundary_ambiguous == 0
        assert sum(rep.hit_counts.values()) == 63

    def test_dependent_pair_obstruction(self):
        excluded = image_exact(4, 8).excluded
        for sampler, n in (
            ("integer-scan", 5000),
            ("geometric", 1500),
            ("low-discrepancy", 1500),
        ):
            rep = orbit_sample((4, 8), n, sampler=sampler)
            assert not (set(rep.hit_counts) & excluded), sampler

    def test_single_sample_hits_all_ones(self):
        rep = orbit_sample((3, 10, 7), 1)
        assert rep.hit_counts == {(1, 1, 1): 1}

    def test_geometric_matches_pointwise(self):
        rep = orbit_sample((3, 10), 40, sampler="geometric", ratio=Fraction(3, 2))
        from collections import Counter

        expected = Counter()
        x = Fraction(1)
        for _ in range(40):
            expected[leading_digit_tuple(x, (3, 10))] += 1
            x *= Fraction(3, 2)
        assert rep.hit_counts == dict(sorted(expected.items()))

    def test_geometric_rejects_unit_ratio(self):
        with pytest.raises(ValueError):
            orbit_sample((3, 10), 10, sampler="geometric", ratio=Fraction(1))

    def test_low_discrepancy_accounting(self):
        rep = orbit_sample((3, 10), 400, sampler="low-discrepancy")
        assert sum(rep.hit_counts.values()) + rep.boundary_ambiguous == 400
        for tup in rep.hit_counts:
            assert len(tup) == 2
            assert 1 <= tup[0] <= 2 and 1 <= tup[1] <= 9
        assert rep.rectangles_hit > 5

    def test_arguments_checked_before_measures(self):
        # the codomain of (50, 51) exceeds tuple_cap, so a check that ran
        # after the measure map would raise ResourceLimitError instead
        with pytest.raises(ValueError, match="window"):
            orbit_sample((50, 51), 10, "low-discrepancy", window=0, tuple_cap=100)
        with pytest.raises(ValueError, match="ratio"):
            orbit_sample((50, 51), 10, "geometric", ratio=Fraction(1), tuple_cap=100)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("n_samples", [2.5, True, "10", Fraction(10)])
    def test_rejects_non_int_sample_counts(self, sampler, n_samples):
        # before the measure map: (50, 51) would exceed tuple_cap
        with pytest.raises(ValueError, match="n_samples must be an int"):
            orbit_sample((50, 51), n_samples, sampler, tuple_cap=100)

    def test_unknown_sampler(self):
        with pytest.raises(ValueError):
            orbit_sample((3, 10), 10, sampler="sobol")

    def test_sample_cap(self):
        with pytest.raises(ResourceLimitError):
            orbit_sample((3, 10), 10**9)
        with pytest.raises(ResourceLimitError):
            orbit_sample((3, 10), 100, sample_cap=99)

    def test_report_shapes(self):
        rep = orbit_sample((3, 10), 1000)
        payload = rep.to_json_dict()
        assert payload["samples"] == 1000
        assert payload["rectangles_total"] == 18
        assert len(payload["cells"]) == 18
        assert all(
            set(c) == {"tuple", "count", "frequency", "measure"}
            for c in payload["cells"]
        )
        rows = rep.to_csv_rows()
        assert rows[0] == ["tuple", "count", "measure"]
        assert len(rows) == 19

    def test_json_round_trip(self):
        rep = orbit_sample((4, 8), 200)
        rebuilt = CoverageReport.from_json_dict(rep.to_json_dict())
        assert rebuilt.hit_counts == rep.hit_counts
        assert rebuilt.samples == rep.samples
        assert rebuilt.rectangles_total == rep.rectangles_total

    def test_json_rejects_tampered_payloads(self):
        payload = orbit_sample((3, 10), 50).to_json_dict()

        def tampered(**changes):
            d = dict(payload, cells=[dict(c) for c in payload["cells"]])
            for key, value in changes.items():
                if key.startswith("cell0_"):
                    d["cells"][0][key[len("cell0_"):]] = value
                else:
                    d[key] = value
            return d

        bad = [
            tampered(sampler="sobol"),
            tampered(samples=5),
            tampered(cell0_tuple=[9, 99]),
            tampered(cell0_count=-1),
            tampered(cell0_count=payload["cells"][0]["count"] + 1),
            tampered(cell0_count=True),
            tampered(boundary_ambiguous=1, samples=51),
            tampered(precision=8),
            tampered(precision=128.0),
            tampered(bases=[3, 3]),
            tampered(cells=payload["cells"][1:]),
            tampered(cells=payload["cells"][::-1]),
        ]
        for d in bad:
            with pytest.raises(ValueError):
                CoverageReport.from_json_dict(d)
        # the codomain size is checked against the cap before expansion
        with pytest.raises(ResourceLimitError):
            CoverageReport.from_json_dict(tampered(bases=[1009, 1013, 1019]))

    def test_precision_cap_refuses_before_any_log_table(self, monkeypatch):
        payload = orbit_sample((3, 10), 10, precision=MAX_PRECISION).to_json_dict()
        assert CoverageReport.from_json_dict(payload).to_json_dict() == payload

        def no_table(*args):
            raise AssertionError("a log table was built")

        monkeypatch.setattr("jointdigits.torus._log_table", no_table)
        for precision in (MAX_PRECISION + 1, 10**6):
            with pytest.raises(ResourceLimitError):
                CoverageReport.from_json_dict(dict(payload, precision=precision))
            for sampler in SAMPLERS:
                with pytest.raises(ResourceLimitError):
                    orbit_sample((3, 10), 10, sampler, precision=precision)

    def test_json_round_trip_every_sampler(self):
        for sampler in ("geometric", "low-discrepancy"):
            rep = orbit_sample((3, 10, 7), 300, sampler=sampler, precision=16)
            payload = rep.to_json_dict()
            assert CoverageReport.from_json_dict(payload).to_json_dict() == payload

    def test_deviations_are_reported(self):
        rep = orbit_sample((3, 10), 2000)
        devs = rep.deviations()
        assert len(devs) == 18
        assert all(0 <= v <= 1 for v in devs.values())
        assert rep.max_deviation() == max(devs.values())


# every torus entry point as the first call of a fresh interpreter: the
# package imports no mpmath, so each enclosure site must load it itself
FRESH_IMPORTS = """\
import sys
from fractions import Fraction
from jointdigits import (CoverageReport, classify_parameter, frequency_vector,
    measure_map, orbit_sample, rectangle_of, torus_digit_tuple, total_measure)
from jointdigits.torus import _fixed
"""


@pytest.mark.parametrize(
    "expr",
    [
        "frequency_vector((3, 10)).max_radius()",
        "_fixed(rectangle_of((4, 8), (1, 1)).measure(), 128)",
        "[(t, _fixed(m, 64)) for t, m in measure_map((3, 5), precision=64).items()]",
        "_fixed(total_measure((3, 5)), 128)",
        "torus_digit_tuple(Fraction(56, 3), (4, 8))",
        "classify_parameter(Fraction(7, 2), frequency_vector((3, 10)))",
        "CoverageReport.from_json_dict(orbit_sample((3, 5), 40).to_json_dict())",
        "orbit_sample((3, 5), 40, 'low-discrepancy', precision=24).to_csv_rows()",
    ],
)
def test_entry_point_first_in_fresh_interpreter(expr):
    namespace: dict = {}
    exec(FRESH_IMPORTS, namespace)
    expected = repr(eval(expr, namespace))
    env = dict(os.environ)
    src = str(Path(jointdigits.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         FRESH_IMPORTS + f"assert 'mpmath' not in sys.modules\nprint(repr({expr}))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"
