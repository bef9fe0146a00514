"""Torus-orbit diagnostics for joint leading digits.

The joint digit tuple of x is determined by where the point
(log_{b_1} x, ..., log_{b_n} x) lands modulo 1: digit j_i corresponds to
the half-open interval [log_{b_i}(j_i), log_{b_i}(j_i + 1)) on coordinate
i, and the products of those intervals partition the n-torus into
rectangles.  As x sweeps the positive reals, the point traces the line
with direction (1/ln b_1, ..., 1/ln b_n); when those frequencies are
rationally independent, the line is dense (Kronecker), which is how
surjectivity of the digit map is established for independent bases.

This module renders that picture empirically: rectangle geometry and
measures at certified precision, plus orbit samplers with hit counts.
Density (every rectangle eventually hit) is proven for two independent
bases and conditional on Schanuel's conjecture for three or more pairwise
independent ones; a dependent pair such as (4, 8) never hits the
rectangles of its excluded digit pairs.  The frequency-vs-measure
comparison here is a diagnostic only.  Enclosures of 1/ln b and log_b j
are built once per base (mpmath) with outward-rounded integer bounds;
points are classified on those integers, and one that cannot be certified
on one side of a rectangle boundary is counted as boundary-ambiguous,
never silently classified.  Sample points that are exact rationals are
classified by the exact integer core instead, so those counts carry no
rounding at all.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping

from .digits import (
    DEFAULT_SCAN_CAP,
    _MantissaCursor,
    _check_count,
    as_positive_rational,
    check_bases,
    check_digit,
    iter_digit_tuples,
)
from .errors import ResourceLimitError

__all__ = [
    "DEFAULT_PRECISION",
    "MAX_PRECISION",
    "DEFAULT_TUPLE_CAP",
    "SAMPLERS",
    "FrequencyVector",
    "Rectangle",
    "CoverageReport",
    "frequency_vector",
    "rectangle_of",
    "measure_map",
    "total_measure",
    "torus_digit_tuple",
    "classify_parameter",
    "orbit_sample",
]

DEFAULT_PRECISION = 128
# enclosures cost more than linearly in their precision: a 3-base, 600-sample
# low-discrepancy coverage takes 0.12 s at 4096 bits (32 times the default)
# and 1.0 s at 16,384 bits on a shared 2-core machine (CPython 3.11)
MAX_PRECISION = 4096
DEFAULT_TUPLE_CAP = 1 << 16

SAMPLERS = ("integer-scan", "geometric", "low-discrepancy")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_precision(precision) -> None:
    """Validate a working precision: an int of 16 to MAX_PRECISION bits."""
    if not _is_int(precision) or precision < 16:
        raise ValueError(f"precision must be an int >= 16 bits, got {precision!r}")
    if precision > MAX_PRECISION:
        raise ResourceLimitError(f"precision exceeds the {MAX_PRECISION}-bit cap")


# mpmath is imported at the first enclosure, not with the package: the
# exact integer core and the CLI subcommands other than coverage never need it
@lru_cache(maxsize=None)
def _context(precision: int):
    """Interval context at the given precision (shared per precision)."""
    _check_precision(precision)
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = precision
    return ctx


def _endpoints(x, precision: int):
    """Exact mpf endpoints of an interval value."""
    import mpmath

    with mpmath.mp.workprec(precision + 16):
        return mpmath.mpf(x.a), mpmath.mpf(x.b)


def _fixed(x, precision: int) -> tuple[int, int]:
    """Outward-rounded integer bounds (floor, ceil) of 2**precision * x."""
    from mpmath.libmp import to_rational

    (p_lo, q_lo), (p_hi, q_hi) = (to_rational(v._mpf_) for v in _endpoints(x, precision))
    return (p_lo << precision) // q_lo, -((-p_hi << precision) // q_hi)


class _LogTable:
    """Enclosures of 1/ln b and of the edges log_b j, j = 1..b, at precision
    P, each with outward-rounded integer bounds at scale 2**P.  The O(b)
    edges are built on first use."""

    def __init__(self, b: int, precision: int):
        self.b, self.precision = b, precision
        ctx = _context(precision)
        self.log_b = ctx.log(ctx.mpf(b))
        self.inv = ctx.one / self.log_b
        self.inv_fixed = _fixed(self.inv, precision)

    def edge(self, j: int):
        """Enclosure of log_b j, for one rectangle without all b edges."""
        ctx = _context(self.precision)
        return ctx.log(ctx.mpf(j)) / self.log_b

    @cached_property
    def edges(self) -> tuple:
        return tuple(map(self.edge, range(1, self.b + 1)))

    @cached_property
    def edge_fixed(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(zip(*(_fixed(e, self.precision) for e in self.edges)))

    def split(self, lo: int, hi: int, den: int) -> tuple[int, int, int] | None:
        """For every v in [lo/den, hi/den]: k = floor(v / ln b) and integer
        bounds of 2**P * (v / ln b - k), or None if k is not certified."""
        inv_lo, inv_hi = self.inv_fixed
        y_lo = lo * (inv_lo if lo >= 0 else inv_hi) // den
        y_hi = -(-hi * (inv_hi if hi >= 0 else inv_lo) // den)
        k = y_lo >> self.precision
        if y_hi >> self.precision != k:
            return None
        return k, y_lo - (k << self.precision), y_hi - (k << self.precision)


# 64 tables cover every base and precision of a query; the bound keeps a
# process that sweeps many bases from growing without limit
_log_table = lru_cache(maxsize=64)(_LogTable)


@dataclass(frozen=True)
class FrequencyVector:
    """Certified enclosures of the orbit frequencies 1/ln(b_i)."""

    bases: tuple[int, ...]
    precision: int
    omega: tuple

    def max_radius(self) -> float:
        """Largest enclosure half-width among the frequencies."""
        rad = 0.0
        for om in self.omega:
            lo, hi = _endpoints(om, self.precision)
            rad = max(rad, float(hi - lo) / 2)
        return rad


def frequency_vector(
    bases: Iterable[int], precision: int = DEFAULT_PRECISION
) -> FrequencyVector:
    """Compute (1/ln b_1, ..., 1/ln b_n) as certified enclosures."""
    bs = check_bases(bases)
    omega = tuple(_log_table(b, precision).inv for b in bs)
    return FrequencyVector(bases=bs, precision=precision, omega=omega)


@dataclass(frozen=True)
class Rectangle:
    """The torus rectangle of a digit tuple, with certified endpoints.

    Coordinate i spans [log_{b_i}(j_i), log_{b_i}(j_i + 1)) inside [0, 1);
    its measure is log_{b_i}(1 + 1/j_i).
    """

    bases: tuple[int, ...]
    digits: tuple[int, ...]
    precision: int
    lows: tuple
    highs: tuple

    def measure(self):
        """Enclosure of the product of the coordinate interval lengths."""
        ctx = _context(self.precision)
        m = ctx.one
        for lo, hi in zip(self.lows, self.highs):
            m = m * (hi - lo)
        return m

    def contains(self, point) -> str:
        """Classify an enclosed torus point: 'inside'/'outside'/'boundary'.

        ``point`` is a tuple of interval enclosures of fractional parts in
        [0, 1).  'boundary' means the enclosures cannot certify membership
        either way at this precision.
        """
        if len(point) != len(self.bases):
            raise ValueError("point dimension does not match rectangle")
        certain_in = True
        for t, lo, hi in zip(point, self.lows, self.highs):
            t_lo, t_hi = _endpoints(t, self.precision)
            lo_lo, lo_hi = _endpoints(lo, self.precision)
            hi_lo, hi_hi = _endpoints(hi, self.precision)
            if t_hi < lo_lo or t_lo >= hi_hi:
                return "outside"
            if not (t_lo >= lo_hi and t_hi < hi_lo):
                certain_in = False
        return "inside" if certain_in else "boundary"


def rectangle_of(
    bases: Iterable[int], target: Iterable[int], precision: int = DEFAULT_PRECISION
) -> Rectangle:
    """Rectangle of the given digit tuple, with certified endpoints.

    >>> r = rectangle_of((4, 8), (1, 1))
    >>> 0.1666 < float(r.measure().a) < 0.1667
    True
    """
    bs = check_bases(bases)
    tgt = tuple(target)
    if len(tgt) != len(bs):
        raise ValueError(f"target length {len(tgt)} != number of bases {len(bs)}")
    lows, highs = [], []
    for j, b in zip(tgt, bs):
        check_digit(j, b)
        table = _log_table(b, precision)
        lows.append(table.edge(j))
        highs.append(table.edge(j + 1))
    return Rectangle(
        bases=bs, digits=tgt, precision=precision, lows=tuple(lows), highs=tuple(highs)
    )


def _codomain(bases: tuple[int, ...], cap: int):
    size = 1
    for b in bases:
        size *= b - 1
    if size > cap:
        raise ResourceLimitError(
            f"digit-tuple codomain has {size} elements, exceeding cap {cap}"
        )
    return product(*(range(1, b) for b in bases))


def measure_map(
    bases: Iterable[int],
    precision: int = DEFAULT_PRECISION,
    cap: int = DEFAULT_TUPLE_CAP,
) -> dict[tuple[int, ...], object]:
    """Rectangle measure enclosure for every digit tuple of the bases."""
    bs = check_bases(bases)
    ctx = _context(precision)
    tuples = _codomain(bs, cap)
    # coordinate measures log_b(j+1) - log_b(j), computed once per base
    coord: list[list] = []
    for b in bs:
        logs = _log_table(b, precision).edges
        coord.append([logs[j] - logs[j - 1] for j in range(1, b)])
    out = {}
    for tup in tuples:
        m = ctx.one
        for i, j in enumerate(tup):
            m = m * coord[i][j - 1]
        out[tup] = m
    return out


def total_measure(
    bases: Iterable[int],
    precision: int = DEFAULT_PRECISION,
    cap: int = DEFAULT_TUPLE_CAP,
):
    """Enclosure of the sum of all rectangle measures (telescopes to 1)."""
    ctx = _context(precision)
    total = ctx.zero
    for m in measure_map(bases, precision=precision, cap=cap).values():
        total = total + m
    return total


def torus_digit_tuple(
    x, bases: Iterable[int], precision: int = DEFAULT_PRECISION
) -> tuple[int, ...] | None:
    """Digit tuple of a rational x read off the torus, or None if ambiguous.

    Bounds log_b(x) by outward-rounded integers at scale 2**precision,
    certifies k = floor(log_b x) when both bounds agree on it, and takes
    the digit as floor(x / b**k) exactly.  Returns None when k cannot be
    certified (x is near a power of b); when it returns a tuple, it
    provably equals leading_digit_tuple(x, bases).

    >>> torus_digit_tuple(56, (4, 8))  # 56 = 3.5 * 4**2 = 7 * 8
    (3, 7)
    """
    xr = as_positive_rational(x)
    bs = check_bases(bases)
    ctx = _context(precision)
    ln_x = _fixed(ctx.log(ctx.mpf(xr.numerator)) - ctx.log(ctx.mpf(xr.denominator)), precision)
    digits = []
    for b in bs:
        split = _log_table(b, precision).split(*ln_x, 1 << precision)
        if split is None:
            return None
        digits.append(int(xr / Fraction(b) ** split[0]))
    return tuple(digits)


def classify_parameter(
    t: Fraction, fv: FrequencyVector
) -> tuple[int, ...] | None:
    """Digit tuple of the orbit point at parameter t (so x = e**t).

    Coordinate i of the orbit point is t / ln(b_i) mod 1; integer bounds
    of t / ln(b_i) at scale 2**P are split by a shift and placed among
    the edges log_{b_i}(j) by bisection.  Returns None when a bound pair
    straddles an integer or an edge (the point may lie on a boundary).

    >>> fv = frequency_vector((3, 10))
    >>> classify_parameter(Fraction(7, 2), fv)  # x = e**3.5 = 33.1...
    (1, 3)
    """
    t = Fraction(t)
    digits = []
    for b in fv.bases:
        table = _log_table(b, fv.precision)
        split = table.split(t.numerator, t.numerator, t.denominator)
        if split is None:
            return None
        _, f_lo, f_hi = split
        lows, highs = table.edge_fixed
        # edges 0 and b-1 are log_b(1) = 0 <= f_lo and log_b(b) >= 1 > f_lo
        j = bisect_right(highs, f_lo)
        if f_hi >= lows[j]:
            return None
        digits.append(j)
    return tuple(digits)


def _van_der_corput(m: int) -> Fraction:
    """Base-2 van der Corput value of index m (bit-reversed fraction)."""
    num, den = 0, 1
    while m:
        num = num * 2 + (m & 1)
        den *= 2
        m >>= 1
    return Fraction(num, den)


@dataclass(frozen=True)
class CoverageReport:
    """Hit counts of orbit samples against the rectangle partition.

    ``hit_counts`` maps digit tuples to sample counts;
    ``boundary_ambiguous`` counts samples whose rectangle could not be
    certified (always 0 for exact samplers).  ``measures`` holds the
    rectangle measure enclosure for every tuple of the codomain.
    """

    bases: tuple[int, ...]
    sampler: str
    samples: int
    precision: int
    hit_counts: Mapping[tuple[int, ...], int]
    boundary_ambiguous: int
    measures: Mapping[tuple[int, ...], object]

    @property
    def rectangles_hit(self) -> int:
        return len(self.hit_counts)

    @property
    def rectangles_total(self) -> int:
        return len(self.measures)

    def frequency(self, tup: tuple[int, ...]) -> float:
        classified = self.samples - self.boundary_ambiguous
        if classified == 0:
            return 0.0
        return self.hit_counts.get(tup, 0) / classified

    def deviations(self) -> dict[tuple[int, ...], float]:
        """Per-tuple |empirical frequency - rectangle measure| (midpoint)."""
        out = {}
        for tup, m in self.measures.items():
            lo, hi = _endpoints(m, self.precision)
            mid = (float(lo) + float(hi)) / 2
            out[tup] = abs(self.frequency(tup) - mid)
        return out

    def max_deviation(self) -> float:
        return max(self.deviations().values())

    def _measure_str(self, tup: tuple[int, ...], digits: int = 30) -> str:
        import mpmath

        with mpmath.mp.workprec(self.precision + 16):
            lo, hi = _endpoints(self.measures[tup], self.precision)
            return mpmath.nstr((lo + hi) / 2, digits)

    def _cells(self) -> Iterator[tuple[tuple[int, ...], int, str]]:
        """(tuple, count, measure string) for every tuple of the codomain, sorted."""
        for tup in sorted(self.measures):
            yield tup, self.hit_counts.get(tup, 0), self._measure_str(tup)

    def to_json_dict(self) -> dict:
        cells = [
            {"tuple": list(tup), "count": count, "frequency": self.frequency(tup),
             "measure": measure}
            for tup, count, measure in self._cells()
        ]
        return {
            "bases": list(self.bases),
            "sampler": self.sampler,
            "samples": self.samples,
            "precision": self.precision,
            "boundary_ambiguous": self.boundary_ambiguous,
            "rectangles_hit": self.rectangles_hit,
            "rectangles_total": self.rectangles_total,
            "cells": cells,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CoverageReport":
        """Rebuild a report; measures are recomputed from bases+precision.

        Every field is checked before the measures are built, and the
        codomain size against the tuple cap before it is expanded.
        """
        bases = check_bases(d["bases"])
        sampler, samples, precision = d["sampler"], d["samples"], d["precision"]
        ambiguous, cells = d["boundary_ambiguous"], d["cells"]
        if sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
        _check_precision(precision)
        if not (_is_int(samples) and _is_int(ambiguous) and 0 <= ambiguous <= samples):
            raise ValueError("samples and boundary_ambiguous must be ints, 0 <= ambiguous <= samples")
        if sampler != "low-discrepancy" and ambiguous != 0:
            raise ValueError(f"exact sampler {sampler!r} has boundary-ambiguous samples")
        tuples = list(_codomain(bases, DEFAULT_TUPLE_CAP))
        if len(cells) != len(tuples) or any(
            list(c["tuple"]) != list(tup) for c, tup in zip(cells, tuples)
        ):
            raise ValueError("cells are not the sorted digit tuples of the bases")
        counts = [c["count"] for c in cells]
        if not all(_is_int(n) and n >= 0 for n in counts) or sum(counts) != samples - ambiguous:
            raise ValueError("counts must be ints >= 0 summing to samples - boundary_ambiguous")
        return cls(
            bases=bases,
            sampler=sampler,
            samples=samples,
            precision=precision,
            hit_counts={tup: n for tup, n in zip(tuples, counts) if n > 0},
            boundary_ambiguous=ambiguous,
            measures=measure_map(bases, precision=precision),
        )

    def to_csv_rows(self) -> list[list[str]]:
        return [["tuple", "count", "measure"]] + [
            [" ".join(map(str, tup)), str(count), measure]
            for tup, count, measure in self._cells()
        ]


def orbit_sample(
    bases: Iterable[int],
    n_samples: int,
    sampler: str = "integer-scan",
    *,
    x0: Fraction | int = 1,
    ratio: Fraction = Fraction(3, 2),
    window: int = 64,
    precision: int = DEFAULT_PRECISION,
    sample_cap: int = DEFAULT_SCAN_CAP,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> CoverageReport:
    """Sample the log orbit and count rectangle hits.

    Samplers:
      * ``integer-scan``  -- x = 1, 2, ..., N, classified exactly.
      * ``geometric``     -- x = x0 * ratio**m, m = 0..N-1, exact rationals
                             (an orbit walk with step ln(ratio)), classified
                             exactly by a mantissa cursor: fixed-point
                             bounds per base, rebuilt from the exact x only
                             when they straddle a digit edge, so N samples
                             cost O(N) small-integer steps.
      * ``low-discrepancy`` -- orbit parameters t = window * vdc2(m) (van
                             der Corput), classified by certified interval
                             arithmetic; uncertifiable points count as
                             boundary-ambiguous.

    >>> rep = orbit_sample((4, 8), 63)
    >>> rep.rectangles_hit, rep.rectangles_total
    (15, 21)
    """
    bs = check_bases(bases)
    if _check_count("n_samples", n_samples) > sample_cap:
        raise ResourceLimitError(f"n_samples {n_samples} exceeds cap {sample_cap}")
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    if sampler == "geometric":
        x = as_positive_rational(x0)
        r = as_positive_rational(ratio)
        if r == 1:
            raise ValueError("geometric sampler needs ratio != 1")
    if sampler == "low-discrepancy" and window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    measures = measure_map(bs, precision=precision, cap=tuple_cap)
    counts: Counter = Counter()
    ambiguous = 0
    if sampler == "integer-scan":
        counts.update(iter_digit_tuples(bs, n_samples))
    elif sampler == "geometric":
        cursor = _MantissaCursor(bs, x, r.numerator, r.denominator)
        indices = range(len(bs))
        for m in range(n_samples):
            counts[tuple([cursor.digit(i, m) for i in indices])] += 1
    else:
        fv = frequency_vector(bs, precision=precision)
        for m in range(n_samples):
            tup = classify_parameter(window * _van_der_corput(m), fv)
            if tup is None:
                ambiguous += 1
            else:
                counts[tup] += 1
    return CoverageReport(
        bases=bs,
        sampler=sampler,
        samples=n_samples,
        precision=precision,
        hit_counts=dict(sorted(counts.items())),
        boundary_ambiguous=ambiguous,
        measures=measures,
    )
