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
comparison here is a diagnostic only.

The enclosures are mpmath's interval arithmetic at the working precision
P, but they are computed on integers: ln b and ln j are bounded by an
atanh series at 2**(P + 64) with its truncation error counted, rounded
outward to P-bit floats exactly as mpmath rounds its logs, and every
later +, -, *, / redoes mpmath's outward rounding, so each interval is
mpmath's own, endpoint for endpoint, and so is every printed measure.
Points are classified on the integer bounds of 1/ln b and log_b j at
scale 2**P, and one that cannot be certified on one side of a rectangle
boundary is counted as boundary-ambiguous, never silently classified.
Sample points that are exact rationals are classified by the exact
integer core instead, so those counts carry no rounding at all.  The
interval values of the public API and ln x in ``torus_digit_tuple`` take
the same endpoints: mpmath only computes the logs the integer bounds
cannot round, and does arithmetic on the values a caller holds.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import product
from math import isqrt, ldexp, log, prod
from operator import index

from .digits import (
    DEFAULT_SCAN_CAP,
    _MantissaCursor,
    _check_count,
    as_positive_rational,
    check_bases,
    check_digit,
    iter_digit_tuples,
)
from .errors import _Record, _check_cap, _json_reader

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
# low-discrepancy coverage, tables included, takes 0.034 s at 4096 bits (32
# times the default) and 0.31 s at 16,384 bits on a shared 2-core machine
# (CPython 3.11, medians of 5 fresh processes)
MAX_PRECISION = 4096
DEFAULT_TUPLE_CAP = 1 << 16

SAMPLERS = ("integer-scan", "geometric", "low-discrepancy")


def _check_precision(precision) -> None:
    """Validate a working precision: an int of 16 to MAX_PRECISION bits."""
    if not isinstance(precision, int) or isinstance(precision, bool) or precision < 16:
        raise ValueError(f"precision must be an int >= 16 bits, got {precision!r}")
    _check_cap("precision", precision, MAX_PRECISION)


# mpmath is imported only where an mpmath interval is asked for (the public
# interval API, and the logs of _ln_floats that the integer enclosure cannot
# round or does not take); the integer core, the other CLI subcommands and a
# default coverage query on bases below 4717 never import it
@lru_cache(maxsize=None)
def _context(precision: int):
    """Interval context at the given precision (shared per precision)."""
    _check_precision(precision)
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = precision
    return ctx


def _endpoints(x):
    """Exact mpf endpoints of an interval value, read from its raw floats."""
    import mpmath

    return tuple(map(mpmath.mp.make_mpf, x._mpi_))


# Binary floats as pairs (man, exp), the value man * 2**exp.  mpmath's
# interval arithmetic rounds every +, -, *, / outward to a float of the
# working precision, correctly; these functions make the same roundings on
# integers, so the intervals below are mpmath's own, endpoint for endpoint.

def _round(num: int, den: int, prec: int, mode: int) -> tuple[int, int]:
    """num/den, den > 0, as a prec-bit float: rounded down for mode < 0, up
    for mode > 0, and to nearest, ties to even, for mode 0."""
    if num <= 0:
        if not num:
            return 0, 0
        man, e = _round(-num, den, prec, -mode)
        return -man, e
    if den == 1:
        e = num.bit_length() - prec
        if e <= 0:
            return num, 0
        man, rem, d = num >> e, num & ((1 << e) - 1), 1 << e
    else:
        e = num.bit_length() - den.bit_length() - prec
        n, d = (num, den << e) if e >= 0 else (num << -e, den)
        if n >= d << prec:  # n/d lies in (2**(prec-1), 2**(prec+1))
            e += 1
            d <<= 1
        man, rem = divmod(n, d)
    if rem and (mode > 0 or mode == 0 and (2 * rem > d or 2 * rem == d and man & 1)):
        man += 1
        if man >> prec:
            man >>= 1
            e += 1
    return man, e


def _mul(x, y, prec: int, mode: int) -> tuple[int, int]:
    man, e = _round(x[0] * y[0], 1, prec, mode)
    return man, e + x[1] + y[1]


def _div(x, y, prec: int, mode: int) -> tuple[int, int]:
    man, e = _round(x[0], y[0], prec, mode)
    return man, e + x[1] - y[1]


def _add(x, y, prec: int, mode: int, sign: int = 1) -> tuple[int, int]:
    """x + y, or x - y for sign -1, rounded."""
    e = min(x[1], y[1])
    man, f = _round((x[0] << x[1] - e) + sign * (y[0] << y[1] - e), 1, prec, mode)
    return man, f + e


def _imul(x, y, prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The product of the intervals x = (lo, hi) and y, rounded outward:
    mpmath's mpi_mul of finite intervals, the least and the greatest of
    the four exact endpoint products."""
    if x[0][0] >= 0 and y[0][0] >= 0:
        return _mul(x[0], y[0], prec, -1), _mul(x[1], y[1], prec, 1)
    ex, ey = min(x[0][1], x[1][1]), min(y[0][1], y[1][1])
    mans = [a << f - ex for a, f in x]
    products = [a * (b << g - ey) for b, g in y for a in mans]
    (lo, f), (hi, g) = _round(min(products), 1, prec, -1), _round(max(products), 1, prec, 1)
    return (lo, f + ex + ey), (hi, g + ex + ey)


def _scaled(x, precision: int, mode: int) -> int:
    """floor (mode < 0) or ceil of 2**precision * x."""
    man, s = x[0], x[1] + precision
    return man << s if s >= 0 else -(-man >> -s) if mode > 0 else man >> -s


def _atanh_inv(q: int, bits: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) of 2**bits * atanh(1/q), for q >= 3.

    atanh(1/q) is the sum of 1/((2k+1) q**(2k+1)).  Term k is summed as
    floor(floor(2**bits / q**(2k+1)) / (2k+1)), the floor of its exact
    value, so each of the K terms taken is low by less than 1.  The sum
    stops at the first k with q**(2k+1) > 2**bits; the terms left out are
    each at most 1/q**2 of the one before, so they sum to less than 9/8.
    """
    p, q2 = (1 << bits) // q, q * q
    s = k = 0
    while p:
        s += p // (2 * k + 1)
        p //= q2
        k += 1
    return s, s + k + 2


# the largest n given to _ln_fixed: the largest base a codomain within
# DEFAULT_TUPLE_CAP can hold, whose edges need ln j for j up to the base
_LN_FIXED_MAX = DEFAULT_TUPLE_CAP + 1


# room for every n up to _LN_FIXED_MAX, so the edges of one such base are
# built with no log twice
@lru_cache(maxsize=_LN_FIXED_MAX)
def _ln_fixed(n: int, bits: int) -> tuple[int, int]:
    """Integer bounds (lo, hi) of 2**bits * ln n, for 1 <= n <= _LN_FIXED_MAX.

    ln 2 = 2 atanh(1/3); a composite n adds the logs of two factors, and a
    prime p >= 3 is ln(p - 1) + 2 atanh(1/(2p - 1)).  The bounds add.  n is
    factored by trial division and the recursion is about 2 log2(n) deep,
    so n must stay small.
    """
    if n == 1:
        return 0, 0
    f = next((f for f in range(2, isqrt(n) + 1) if n % f == 0), None)
    if f is not None:
        (lo1, hi1), (lo2, hi2) = _ln_fixed(f, bits), _ln_fixed(n // f, bits)
        return lo1 + lo2, hi1 + hi2
    lo1, hi1 = _ln_fixed(n - 1, bits)
    lo2, hi2 = _atanh_inv(2 * n - 1, bits)
    return lo1 + 2 * lo2, hi1 + 2 * hi2


# bits of the series past the working precision
_GUARD = 64


def _ln_floats(n: int, precision: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The endpoints of mpmath's ctx.log(ctx.mpf(n)) at the given precision.

    mpmath's mpf_log rounds (down for the low end, up for the high end) a
    fixed-point value of at least precision + 20 bits that lies within a
    few units of its last place of ln n.  Where every value within
    2**-(precision + 10) of the integer enclosure, 1024 such units, rounds
    the same way in both directions, those roundings are mpmath's
    endpoints.  Elsewhere (8 of the n up to 65,537 at 128 bits, the
    first 4717), for an n above _LN_FIXED_MAX and for an n that the
    precision cannot hold, mpmath computes them.
    """
    if n == 1:
        return (0, 0), (0, 0)
    if n <= _LN_FIXED_MAX and n.bit_length() <= precision:
        bits = precision + _GUARD
        lo, hi = _ln_fixed(n, bits)
        slack = 1 << bits - precision - 10
        ends = [_round(v, 1 << bits, precision, mode)
                for mode in (-1, 1) for v in (lo - slack, hi + slack)]
        if ends[0] == ends[1] and ends[2] == ends[3]:
            return ends[0], ends[2]
    ctx = _context(precision)
    (_, m_lo, e_lo, _), (_, m_hi, e_hi, _) = ctx.log(ctx.mpf(n))._mpi_
    return (m_lo, e_lo), (m_hi, e_hi)


def _interval(ends, precision: int):
    """The mpmath interval with the endpoint floats ends = (lo, hi)."""
    from mpmath.libmp import from_man_exp

    return _context(precision).make_mpf(tuple(from_man_exp(*end) for end in ends))


_ONE = (1, 0)


class _LogTable:
    """Log tables of one base b at precision P.

    Each interval is the one mpmath's interval arithmetic gives at P bits,
    held as its endpoint floats (lo, hi) and computed on integers: ln b,
    1/ln b, also with integer bounds at scale 2**P, the edges log_b j for
    j = 1..b and the coordinate measures log_b(1 + 1/j) for j = 1..b-1.
    The O(b) tables are built on first use; the public interval API wraps
    these endpoints.
    """

    def __init__(self, b: int, precision: int):
        _check_precision(precision)
        self.b, self.precision = b, precision
        self.ln_b = lo, hi = _ln_floats(b, precision)
        self.inv_floats = inv_lo, inv_hi = (_div(_ONE, hi, precision, -1),
                                            _div(_ONE, lo, precision, 1))
        self.inv_fixed = _scaled(inv_lo, precision, -1), _scaled(inv_hi, precision, 1)

    def edge(self, j: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """log_b j, for 1 <= j <= b."""
        p, (lb_lo, lb_hi) = self.precision, self.ln_b
        lo, hi = _ln_floats(j, p)
        return _div(lo, lb_hi, p, -1), _div(hi, lb_lo, p, 1)

    @cached_property
    def edge_floats(self) -> tuple[tuple, ...]:
        # all b edges are read only for bisection and measures, so their
        # number keeps to the bound of a one-base codomain
        _check_cap("digit count of one base", self.b - 1, DEFAULT_TUPLE_CAP)
        return tuple(map(self.edge, range(1, self.b + 1)))

    @cached_property
    def edge_fixed(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        p = self.precision
        return (tuple(_scaled(lo, p, -1) for lo, _ in self.edge_floats),
                tuple(_scaled(hi, p, 1) for _, hi in self.edge_floats))

    @cached_property
    def coord_floats(self) -> tuple[tuple, ...]:
        """log_b(j + 1) - log_b(j) for j = 1..b-1.  Its low end is negative
        where two edges overlap, as those of a base of a few thousand do at
        16 bits."""
        edges, p = self.edge_floats, self.precision
        return tuple((_add(e1[0], e0[1], p, -1, -1), _add(e1[1], e0[0], p, 1, -1))
                     for e0, e1 in zip(edges, edges[1:]))

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


def _float(x) -> float:
    """float() of the mpf x: rounded to 53 bits, to nearest, ties to even."""
    man, e = _round(x[0], 1, 53, 0) if abs(x[0]) >> 53 else (x[0], 0)
    return ldexp(man, e + x[1])


_LOG2_10 = log(10, 2)


def _nstr(man: int, exp: int, dps: int) -> str:
    """mpmath.nstr(x, dps) of the float x = man * 2**exp, 0 or of magnitude
    in (2**-3500, 2**3500).

    This is libmpf.to_str with its defaults: 0 prints as 0.0 and a
    negative x as "-" and the string of -x; the digits of x are truncated
    past about dps + 3 places, then rounded half up to dps, and x is
    printed in fixed point when its leading digit has an exponent in
    (min(-(dps // 3), -5), dps), with trailing zeros stripped.  (to_str
    scales an x outside that range by a power of ten first; no measure is.)
    """
    if man <= 0:
        return "-" + _nstr(-man, exp, dps) if man else "0.0"
    bc = man.bit_length()
    fixprec = max(int((dps + 3) * _LOG2_10) + 10 - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    digits = str((man << shift if shift >= 0 else man >> -shift) * 10**fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        digits = str(int(digits[:dps]) + 1)
        if len(digits) > dps:  # 99...9 rounded up to 10...0
            exponent += 1
    digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    return digits if exponent == 0 else f"{digits}e{exponent:+d}"


class FrequencyVector(_Record):
    """Certified enclosures of the orbit frequencies 1/ln(b_i)."""

    bases: tuple[int, ...]
    precision: int
    omega: tuple

    def max_radius(self) -> float:
        """Largest enclosure half-width among the frequencies."""
        rad = 0.0
        for om in self.omega:
            lo, hi = _endpoints(om)
            rad = max(rad, float(hi - lo) / 2)
        return rad


def frequency_vector(
    bases: Iterable[int], precision: int = DEFAULT_PRECISION
) -> FrequencyVector:
    """Compute (1/ln b_1, ..., 1/ln b_n) as certified enclosures."""
    bs = check_bases(bases)
    omega = tuple(_interval(_log_table(b, precision).inv_floats, precision) for b in bs)
    return FrequencyVector(bases=bs, precision=precision, omega=omega)


class Rectangle(_Record):
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
        [0, 1), of any precision.  The exact endpoints of the point and of
        the rectangle are compared, so no enclosure is rounded inward.
        'boundary' means the enclosures cannot certify membership either way.
        """
        if len(point) != len(self.bases):
            raise ValueError("point dimension does not match rectangle")
        certain_in = True
        for t, lo, hi in zip(point, self.lows, self.highs):
            t_lo, t_hi = _endpoints(t)
            lo_lo, lo_hi = _endpoints(lo)
            hi_lo, hi_hi = _endpoints(hi)
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
        lows.append(_interval(table.edge(j), precision))
        highs.append(_interval(table.edge(j + 1), precision))
    return Rectangle(
        bases=bs, digits=tgt, precision=precision, lows=tuple(lows), highs=tuple(highs)
    )


def _codomain(bases: tuple[int, ...], cap: int):
    _check_cap("digit-tuple codomain", prod(b - 1 for b in bases), cap)
    return product(*(range(1, b) for b in bases))


class _MeasureMap(Mapping):
    """Read-only map from each digit tuple of the bases to its rectangle
    measure, keyed in product order.

    ``bounds(tup)`` gives a measure's endpoints as floats (man, exp), from
    the integer log tables: the product of the coordinate measures, rounded
    outward at each step as mpmath rounds it.  A value is the mpmath
    interval with those endpoints, built on each access.  == and repr are
    those of the dict it stands for, and like a dict it is unhashable.
    """

    def __init__(self, bases: tuple[int, ...], precision: int, cap: int):
        _check_precision(precision)
        _codomain(bases, cap)
        self.bases, self.precision = bases, precision
        self._tables = [_log_table(b, precision) for b in bases]

    def __len__(self) -> int:
        return prod(b - 1 for b in self.bases)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return product(*(range(1, b) for b in self.bases))

    def __contains__(self, tup) -> bool:
        return (isinstance(tup, tuple) and len(tup) == len(self.bases)
                and all(j in range(1, b) for j, b in zip(tup, self.bases)))

    def __getitem__(self, tup):
        if tup not in self:
            raise KeyError(tup)
        return _interval(self.bounds(tup), self.precision)

    def __eq__(self, other):
        # the values are fixed by the bases and the precision
        if isinstance(other, _MeasureMap) and (other.bases, other.precision) == (
                self.bases, self.precision):
            return True
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(self))

    def bounds(self, tup: tuple[int, ...]) -> tuple[tuple[int, int], tuple[int, int]]:
        """Endpoint floats (lo, hi) of the measure of a tuple of the codomain."""
        ends, p = self._tables[0].coord_floats[tup[0] - 1], self.precision  # 1 * x rounds to x
        for table, j in zip(self._tables[1:], tup[1:]):
            ends = _imul(ends, table.coord_floats[j - 1], p)
        return ends


def measure_map(
    bases: Iterable[int],
    precision: int = DEFAULT_PRECISION,
    cap: int = DEFAULT_TUPLE_CAP,
) -> Mapping[tuple[int, ...], object]:
    """Rectangle measure enclosure for every digit tuple of the bases.

    The codomain size is checked against ``cap`` at once; each measure is
    built when it is first read.
    """
    return _MeasureMap(check_bases(bases), precision, cap)


def total_measure(
    bases: Iterable[int],
    precision: int = DEFAULT_PRECISION,
    cap: int = DEFAULT_TUPLE_CAP,
):
    """Enclosure of the sum of all rectangle measures (telescopes to 1)."""
    measures = measure_map(bases, precision=precision, cap=cap)
    lo = hi = (0, 0)
    for tup in measures:
        m_lo, m_hi = measures.bounds(tup)
        lo, hi = _add(lo, m_lo, precision, -1), _add(hi, m_hi, precision, 1)
    return _interval((lo, hi), precision)


def torus_digit_tuple(
    x, bases: Iterable[int], precision: int = DEFAULT_PRECISION
) -> tuple[int, ...] | None:
    """Digit tuple of a rational x read off the torus, or None if ambiguous.

    Bounds ln x = ln p - ln q (x = p/q) on the integer log tables and
    log_b(x) by outward-rounded integers at scale 2**precision, certifies
    k = floor(log_b x) when both bounds agree on it, and takes the digit
    as floor(x / b**k) exactly.  Returns None when k cannot be
    certified (x is near a power of b); when it returns a tuple, it
    provably equals leading_digit_tuple(x, bases).

    >>> torus_digit_tuple(56, (4, 8))  # 56 = 3.5 * 4**2 = 7 * 8
    (3, 7)
    """
    xr = as_positive_rational(x)
    bs = check_bases(bases)
    _check_precision(precision)
    (n_lo, n_hi), (d_lo, d_hi) = (_ln_floats(n, precision) for n in (xr.numerator, xr.denominator))
    lo, hi = _add(n_lo, d_hi, precision, -1, -1), _add(n_hi, d_lo, precision, 1, -1)
    ln_x = _scaled(lo, precision, -1), _scaled(hi, precision, 1)
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
    return _classify(t.numerator, t.denominator, [_log_table(b, fv.precision) for b in fv.bases])


def _classify(p: int, q: int, tables: list[_LogTable]) -> tuple[int, ...] | None:
    """classify_parameter of t = p/q, q > 0, on the tables of its bases."""
    digits = []
    for table in tables:
        split = table.split(p, p, q)
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


def _van_der_corput(m: int) -> tuple[int, int]:
    """Base-2 van der Corput value of index m (bit-reversed fraction), as
    an unreduced (numerator, denominator)."""
    num, den = 0, 1
    while m:
        num = num * 2 + (m & 1)
        den *= 2
        m >>= 1
    return num, den


class CoverageReport(_Record):
    """Hit counts of orbit samples against the rectangle partition.

    ``hit_counts`` maps digit tuples to sample counts;
    ``boundary_ambiguous`` counts samples whose rectangle could not be
    certified (always 0 for exact samplers).  ``measures`` holds the
    rectangle measure enclosure for every tuple of the codomain; the
    deviations and the printed measures are read off its endpoint floats
    (a measure map's integer bounds, or the exact endpoints of the values
    of any other mapping), with no mpmath arithmetic.
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
        for tup in self.measures:
            lo, hi = map(_float, self._bounds(tup))
            out[tup] = abs(self.frequency(tup) - (lo + hi) / 2)
        return out

    def max_deviation(self) -> float:
        return max(self.deviations().values())

    def _bounds(self, tup: tuple[int, ...]) -> tuple[tuple[int, int], tuple[int, int]]:
        """Endpoint floats (lo, hi) of a tuple's measure."""
        if isinstance(self.measures, _MeasureMap):
            return self.measures.bounds(tup)
        return tuple((-man if sign else man, e) for sign, man, e, _ in self.measures[tup]._mpi_)

    def _measure_str(self, tup: tuple[int, ...], digits: int = 30) -> str:
        """mpmath.nstr of the midpoint of a tuple's measure, taken at
        precision + 16 bits."""
        lo, hi = self._bounds(tup)
        man, e = _add(lo, hi, self.precision + 16, 0)
        return _nstr(man, e - 1, digits)

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

    @_json_reader
    def from_json_dict(cls, d: dict) -> "CoverageReport":
        """Rebuild a report; measures are recomputed from bases+precision.

        The precision and codomain size are checked against their caps, and
        the number of cells against the codomain, before measures are built.
        """
        bases, sampler, precision = check_bases(d["bases"]), d["sampler"], d["precision"]
        if sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
        _check_precision(precision)
        tuples = list(_codomain(bases, DEFAULT_TUPLE_CAP))
        samples, ambiguous = _check_count("samples", d["samples"]), index(d["boundary_ambiguous"])
        counts = [index(c["count"]) for c in d["cells"]]
        if not 0 <= ambiguous <= (samples if sampler == "low-discrepancy" else 0):
            raise ValueError(f"sampler {sampler!r} cannot have {ambiguous} ambiguous samples")
        if len(counts) != len(tuples) or sum(counts) != samples - ambiguous:
            raise ValueError("need one count per tuple, summing to samples - boundary_ambiguous")
        return cls(
            bases=bases,
            sampler=sampler,
            samples=samples,
            precision=precision,
            hit_counts={tup: n for tup, n in zip(tuples, counts) if n > 0},
            boundary_ambiguous=ambiguous,
            measures=measure_map(bases, precision=precision),
        )

    def iter_csv_rows(self) -> Iterator[list[str]]:
        yield ["tuple", "count", "measure"]
        for tup, count, measure in self._cells():
            yield [" ".join(map(str, tup)), str(count), measure]

    def to_csv_rows(self) -> list[list[str]]:
        return list(self.iter_csv_rows())

    def iter_text(self) -> Iterator[str]:
        """The report as text: the query, then the rectangles hit and the largest deviation."""
        yield f"bases {self.bases}  sampler {self.sampler}  samples {self.samples}\n"
        yield (f"rectangles hit {self.rectangles_hit}/{self.rectangles_total}, "
               f"boundary-ambiguous {self.boundary_ambiguous}, "
               f"max |frequency - measure| = {self.max_deviation():.4f}\n")


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
    _check_cap("n_samples", _check_count("n_samples", n_samples), sample_cap)
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    if sampler == "geometric":
        x = as_positive_rational(x0)
        r = as_positive_rational(ratio)
        if r == 1:
            raise ValueError("geometric sampler needs ratio != 1")
    if sampler == "low-discrepancy":
        _check_count("window", window)
    measures = measure_map(bs, precision=precision, cap=tuple_cap)
    # each sampler is a stream of digit tuples, None for an uncertified point
    if sampler == "integer-scan":
        tuples = iter_digit_tuples(bs, n_samples)
    elif sampler == "geometric":
        cursor = _MantissaCursor(bs, x, r.numerator, r.denominator)
        indices = range(len(bs))
        tuples = (tuple([cursor.digit(i, m) for i in indices]) for m in range(n_samples))
    else:
        tables = [_log_table(b, precision) for b in bs]
        points = map(_van_der_corput, range(n_samples))
        tuples = (_classify(window * num, den, tables) for num, den in points)
    counts = Counter(tuples)
    ambiguous = counts.pop(None, 0)
    return CoverageReport(
        bases=bs,
        sampler=sampler,
        samples=n_samples,
        precision=precision,
        hit_counts=dict(sorted(counts.items())),
        boundary_ambiguous=ambiguous,
        measures=measures,
    )
