"""Torus-diagnostic tests: rectangles, measures, orbit sampling."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from mpmath.ctx_iv import MPIntervalContext
from hypothesis import assume, given, settings
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
import jointdigits.torus as torus
from jointdigits.cli import main
from jointdigits.torus import (
    _GUARD,
    _LN_FIXED_MAX,
    MAX_PRECISION,
    _context,
    _endpoints,
    _fixed,
    _float,
    _ln_fixed,
    _log_table,
    _ln_floats,
    _nstr,
    _van_der_corput,
)


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

    @pytest.mark.parametrize("window", [0.1, 2.5, True, Fraction(1, 2)])
    def test_rejects_non_int_window(self, window):
        # before the measure map: (50, 51) would exceed tuple_cap
        with pytest.raises(ValueError, match="window must be an int"):
            orbit_sample((50, 51), 10, "low-discrepancy", window=window, tuple_cap=100)

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
        rep = orbit_sample((3, 10), 50)
        payload = rep.to_json_dict()
        # 51 counts for 50 samples and -1 ambiguous: the text is self-consistent
        tup = next(iter(rep.hit_counts))
        negative = CoverageReport(**{**vars(rep), "boundary_ambiguous": -1,
                                     "hit_counts": {**rep.hit_counts, tup: rep.hit_counts[tup] + 1}})

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
            tampered(cell0_measure="0.5"),
            tampered(cell0_frequency=0.5),
            tampered(rectangles_hit=payload["rectangles_hit"] + 1),
            tampered(rectangles_hit=payload["rectangles_hit"] - 1),
            tampered(extra=1),
            tampered(bases=["3", 10]),
            negative.to_json_dict(),
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
        hit_cells = [c for c in payload["cells"] if c["count"]]  # counts still sum to samples
        with pytest.raises(ValueError):
            CoverageReport.from_json_dict(dict(payload, cells=hit_cells))
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
        # with every sample ambiguous, no frequency divides by zero
        unclassified = CoverageReport(**{**vars(rep), "hit_counts": {},
                                         "boundary_ambiguous": rep.samples})
        assert unclassified.frequency((1, 1)) == 0.0


# every torus entry point as the first call of a fresh interpreter: the
# package imports no mpmath, so each enclosure site must load it itself
FRESH_IMPORTS = """\
import sys
import time
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


# --- the mpmath route, as the oracle of the integer tables --------------------
# Log tables, measures, measure strings and deviations with every interval
# from mpmath's interval arithmetic and every string from mpmath.nstr; the
# integer tables must give the same bytes.

class MpmathLogTable:
    def __init__(self, b, precision):
        self.b, self.precision = b, precision
        ctx = _context(precision)
        self.log_b = ctx.log(ctx.mpf(b))
        self.inv_fixed = _fixed(ctx.one / self.log_b, precision)

    @cached_property
    def edges(self):
        ctx = _context(self.precision)
        return tuple(ctx.log(ctx.mpf(j)) / self.log_b for j in range(1, self.b + 1))

    @cached_property
    def edge_fixed(self):
        return tuple(zip(*(_fixed(e, self.precision) for e in self.edges)))

    split = torus._LogTable.split


def mpmath_measure_map(bases, precision=torus.DEFAULT_PRECISION, cap=torus.DEFAULT_TUPLE_CAP):
    bs = tuple(bases)
    ctx = _context(precision)
    tuples = torus._codomain(bs, cap)
    coord = []
    for b in bs:
        logs = mpmath_log_table(b, precision).edges
        coord.append([logs[j] - logs[j - 1] for j in range(1, b)])
    out = {}
    for tup in tuples:
        m = ctx.one
        for i, j in enumerate(tup):
            m = m * coord[i][j - 1]
        out[tup] = m
    return out


def mpmath_measure_str(self, tup, digits=30):
    with mpmath.mp.workprec(self.precision + 16):
        lo, hi = _endpoints(self.measures[tup], self.precision)
        return mpmath.nstr((lo + hi) / 2, digits)


def mpmath_deviations(self):
    out = {}
    for tup, m in self.measures.items():
        lo, hi = _endpoints(m, self.precision)
        out[tup] = abs(self.frequency(tup) - (float(lo) + float(hi)) / 2)
    return out


mpmath_log_table = lru_cache(maxsize=64)(MpmathLogTable)


@contextlib.contextmanager
def mpmath_route():
    """Run the torus layer on the mpmath oracle instead of the integer tables."""
    with mock.patch.multiple(torus, _log_table=mpmath_log_table, measure_map=mpmath_measure_map), \
            mock.patch.multiple(torus.CoverageReport, _measure_str=mpmath_measure_str,
                                deviations=mpmath_deviations):
        yield


def dyadic(x) -> Fraction:
    return Fraction(x[0]) * Fraction(2) ** x[1]


def mpmath_log_ends(n, precision):
    """Endpoints of mpmath's interval ln n at the given precision, as fractions."""
    ctx = MPIntervalContext()
    ctx.prec = precision
    return tuple(dyadic(end[1:3]) for end in ctx.log(ctx.mpf(n))._mpi_)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


DIFF_PRECISIONS = (16, 53, 64, 112, 113, 128, 256, 4096)
DEPENDENT = [(3, 9), (4, 8), (9, 27), (8, 32), (4, 32), (16, 64), (5, 25)]
CELL_BUDGET = 1500


@st.composite
def coverage_bases(draw):
    """2-3 distinct bases of 3 to 400, half of them opening with a dependent
    pair, with at most CELL_BUDGET digit tuples."""
    bases = list(draw(st.sampled_from(DEPENDENT))) if draw(st.booleans()) else []
    n = draw(st.integers(max(2, len(bases)), 3))
    while len(bases) < n:
        b = draw(st.integers(3, max(3, min(400, CELL_BUDGET // prod(c - 1 for c in bases) + 1))))
        while b in bases:  # two steps at most: the tuple may pass the budget a little
            b += 1
        bases.append(b)
    return tuple(draw(st.permutations(bases)))


class TestIntegerTablesMatchMpmath:
    @given(bases=coverage_bases(), precision=st.sampled_from(DIFF_PRECISIONS),
           sampler=st.sampled_from(SAMPLERS), samples=st.integers(1, 400),
           window=st.sampled_from((1, 64, 1000)))
    @settings(max_examples=40, deadline=None)
    def test_every_output_byte_matches(self, bases, precision, sampler, samples, window):
        argv = ["coverage", "--bases", ",".join(map(str, bases)), "--samples", str(samples),
                "--sampler", sampler, "--precision", str(precision), "--window", str(window)]
        for output in ("text", "json", "csv"):
            got = run_main(argv + ["--output", output])
            with mpmath_route():
                want = run_main(argv + ["--output", output])
            assert got == want
        rep = orbit_sample(bases, samples, sampler, window=window, precision=precision)
        with mpmath_route():
            oracle = orbit_sample(bases, samples, sampler, window=window, precision=precision)
            deviations = oracle.deviations()
        assert rep.deviations() == deviations
        assert rep.boundary_ambiguous == oracle.boundary_ambiguous

    @given(bases=coverage_bases(), precision=st.sampled_from(DIFF_PRECISIONS),
           window=st.sampled_from((1, 64, 1000)))
    @settings(max_examples=40, deadline=None)
    def test_classify_matches_on_van_der_corput_points(self, bases, precision, window):
        fv = frequency_vector(bases, precision=precision)
        points = [Fraction(window * num, den) for num, den in map(_van_der_corput, range(300))]
        got = [classify_parameter(t, fv) for t in points]
        with mpmath_route():
            assert got == [classify_parameter(t, fv) for t in points]

    def test_overlapping_edges_take_the_mpmath_route(self):
        # at 16 bits the edge intervals of base 3000 overlap, so some
        # coordinate measure holds 0 and its products are left to mpmath
        assert not measure_map((3000, 3), precision=16).exact
        assert measure_map((2000, 3), precision=16).exact
        argv = ["coverage", "--bases", "3000,3", "--samples", "50", "--precision", "16"]
        for output in ("text", "csv"):
            got = run_main(argv + ["--output", output])
            with mpmath_route():
                assert got == run_main(argv + ["--output", output])

    @given(n=st.integers(1, 400) | st.integers(400, 70_000),
           precision=st.sampled_from(DIFF_PRECISIONS))
    @settings(max_examples=150, deadline=None)
    def test_log_enclosures_hold_and_round_as_mpmath(self, n, precision):
        # the integer bounds of 2**bits * ln n hold mpmath's interval of ln n
        # at twice their bits; their roundings to the working precision are
        # the endpoints of mpmath's interval at that precision
        bits = precision + _GUARD
        if n <= _LN_FIXED_MAX:
            lo, hi = _ln_fixed(n, bits)
            assert lo <= hi
            wide_lo, wide_hi = mpmath_log_ends(n, 2 * bits)
            assert lo <= wide_lo * 2**bits and wide_hi * 2**bits <= hi
        assert tuple(map(dyadic, _ln_floats(n, precision))) == mpmath_log_ends(n, precision)

    @pytest.mark.parametrize("b, precision", [
        (2**61 - 1, 128), (2**89 - 1, 128), (2**1500, 2048), (3**1000, MAX_PRECISION)],
        ids=["2**61-1", "2**89-1", "2**1500", "3**1000"])
    def test_large_bases_take_their_logs_from_mpmath_promptly(self, b, precision):
        # a base past the integer tables' range is neither factored nor
        # recursed on: trial division of 2**89 - 1 would run for hours, and
        # the recursion over 2**1500 would overflow the stack
        start = time.perf_counter()
        x = 7 * b**3 + 5
        fv = frequency_vector((b, 10), precision=precision)
        got = torus_digit_tuple(x, (b, 10), precision=precision)
        assert time.perf_counter() - start < 10
        assert tuple(map(dyadic, _ln_floats(b, precision))) == mpmath_log_ends(b, precision)
        assert _log_table(b, precision).inv_fixed == MpmathLogTable(b, precision).inv_fixed
        assert fv.omega[0]._mpi_ == (_context(precision).one / mpmath_log_table(
            b, precision).log_b)._mpi_
        assert got == leading_digit_tuple(x, (b, 10))
        with mpmath_route():
            assert got == torus_digit_tuple(x, (b, 10), precision=precision)


class TestMeasureMap:
    def test_reads_as_the_dict_of_the_mpmath_route(self):
        mm, d = measure_map((4, 8, 5)), mpmath_measure_map((4, 8, 5))
        assert list(mm) == list(d) == list(product(range(1, 4), range(1, 8), range(1, 5)))
        assert len(mm) == len(d) and mm == d and d == mm and repr(mm) == repr(d)
        assert mm == measure_map((4, 8, 5)) and mm != measure_map((4, 8, 5), precision=64)
        assert mm != mpmath_measure_map((4, 8, 5), precision=64) and mm != {}
        with pytest.raises(TypeError):
            hash(mm)
        assert (3, 7, 4) in mm and mm.get((4, 1, 1)) is None
        for key in ((0, 1, 1), (1, 1), [1, 1, 1], (1, 8, 1), (1.5, 1, 1), "111"):
            assert key not in mm
            with pytest.raises(KeyError):
                mm[key]

    @pytest.mark.parametrize("precision", [16, 53, 128, 4096])
    def test_bounds_are_the_endpoints_of_the_mpmath_values(self, precision):
        mm = measure_map((3, 10, 7), precision=precision)
        for tup, value in mpmath_measure_map((3, 10, 7), precision=precision).items():
            assert tuple(map(dyadic, mm.bounds(tup))) == tuple(
                dyadic(end[1:3]) for end in value._mpi_)

    def test_cap_is_checked_at_once(self):
        with pytest.raises(ResourceLimitError):
            measure_map((300, 301, 302))


floats = st.tuples(st.integers(1, 2**300) | st.integers(1, 2**4200),
                   st.integers(-3800, 200) | st.integers(-400, 10))
# just below a power of ten, so that rounding the 30th digit carries all the way
near_powers_of_ten = st.builds(
    lambda k, bits, under: ((10 ** max(k, 0) << bits) // 10 ** max(-k, 0) - under, -bits),
    st.integers(-40, 40), st.integers(260, 600), st.integers(1, 2**20))


class TestFloatFormatting:
    @given(x=floats | near_powers_of_ten, dps=st.sampled_from((8, 15, 30)))
    @settings(max_examples=400, deadline=None)
    def test_nstr_is_mpmath_to_str(self, x, dps):
        from mpmath.libmp import from_man_exp, to_str

        assume(abs(x[0].bit_length() + x[1]) < 3500)
        assert _nstr(*x, dps) == to_str(from_man_exp(*x), dps)

    @given(x=floats | near_powers_of_ten)
    @settings(max_examples=200, deadline=None)
    def test_float_is_mpmath_float(self, x):
        from mpmath.libmp import from_man_exp

        assume(abs(x[0].bit_length() + x[1]) < 1000)  # normal floats, as every measure is
        assert _float(x) == float(mpmath.mpf(from_man_exp(*x)))

    @given(num=st.integers(1, 2**600), den=st.integers(1, 2**600),
           prec=st.sampled_from((16, 53, 69, 128, 144, 4096)), mode=st.sampled_from((-1, 0, 1)))
    @settings(max_examples=300, deadline=None)
    def test_round_is_mpmath_from_rational(self, num, den, prec, mode):
        from mpmath.libmp import from_rational

        _, man, exp, _ = from_rational(num, den, prec, {-1: "f", 0: "n", 1: "c"}[mode])
        assert dyadic(torus._round(num, den, prec, mode)) == dyadic((man, exp))

    @pytest.mark.parametrize("prec", [16, 53, 69])
    @pytest.mark.parametrize("den", [1, 8, 3])
    def test_round_ties_go_to_even(self, prec, den):
        # 2 * man + 1 lies halfway between two prec-bit mantissas; the last
        # one carries into a new power of two
        from mpmath.libmp import from_rational

        for man in (2 ** (prec - 1), 2 ** (prec - 1) + 1, 2**prec - 2, 2**prec - 1):
            for mode, rnd in ((-1, "f"), (0, "n"), (1, "c")):
                _, m, e, _ = from_rational((2 * man + 1) * den, den, prec, rnd)
                assert dyadic(torus._round((2 * man + 1) * den, den, prec, mode)) == dyadic((m, e))


NO_MPMATH = """\
import contextlib, io, json, sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
from jointdigits.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            out.append([main(argv), buf.getvalue()])
    except ImportError:
        out.append(["ImportError", buf.getvalue()])
print(json.dumps(out))
"""


def run_without_mpmath(queries):
    """[exit code or "ImportError", stdout] of each CLI query, in one fresh
    interpreter in which mpmath cannot be imported."""
    env = dict(os.environ)
    src = str(Path(jointdigits.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_MPMATH, json.dumps(queries)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("bases", ["4,8,10", "3,7,11"])
def test_default_coverage_needs_no_mpmath(bases):
    queries = [["coverage", "--bases", bases, "--samples", "500", "--sampler", sampler,
                "--output", output]
               for sampler in SAMPLERS for output in ("text", "json", "csv")]
    with mpmath_route():
        expected = [list(run_main(argv)[:2]) for argv in queries]
    assert run_without_mpmath(queries) == expected


def test_default_coverage_of_base_4717_needs_mpmath():
    # at 128 bits ln 4717 is the first log whose endpoints the integer
    # bounds cannot round, so, as the README says, a default coverage of a
    # base of 4717 or more may need mpmath; one of base 4716 does not
    queries = [["coverage", "--bases", f"{b},3", "--samples", "50"] for b in (4716, 4717)]
    with mpmath_route():
        expected = list(run_main(queries[0])[:2])
    assert run_without_mpmath(queries) == [expected, ["ImportError", ""]]
