"""Exact leading digits of positive rationals in arbitrary integer bases.

The leading digit of x > 0 in base b is the unique j in {1, ..., b-1} such
that j * b**k <= x < (j+1) * b**k for some integer k.  Everything here is
computed with arbitrary-precision integer comparisons (cross-multiplied
inequalities on numerator/denominator), never with floating-point
logarithms, so results at interval boundaries are exact and identical on
every platform.  Every digit computed from scratch goes through ``_split``:
one descent through the repeated squares b**(2**i) gives k and x / b**k.

Bases are restricted to integers >= 3.  Inputs are exact positive
rationals: Python ints or ``fractions.Fraction`` values (floats are
rejected -- binary floats silently misplace values that sit on digit
boundaries).

The digit-set machinery relates digits across powers of a base: the set
``digit_set(b, e, j)`` collects the base-b**e leading digits that refine to
base-b leading digit j, and ``refine_digit`` inverts that map.  For fixed
(b, e) the sets over j = 1..b-1 partition {1, ..., b**e - 1}.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import repeat

from .errors import _Record, _check_cap, _check_power

MIN_BASE = 3

# digit_set materializes {1,...,b**e - 1}; refuse universes past this size
DEFAULT_ENUMERATION_CAP = 1 << 24
# longest integer scan, sample count or witness budget, and the most bits
# of digit_set_ranges endpoints; the CLI reads JOINTDIGITS_SCAN_CAP in its place
DEFAULT_SCAN_CAP = 10**8

_RATIONAL_RE = re.compile(r"(\d+)\s*(?:/\s*(\d+))?")

__all__ = [
    "MIN_BASE",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_SCAN_CAP",
    "check_base",
    "check_bases",
    "check_digit",
    "as_positive_rational",
    "parse_positive_rational",
    "floor_log",
    "leading_digit",
    "leading_digit_tuple",
    "DigitSet",
    "digit_set",
    "digit_set_ranges",
    "digit_set_contains",
    "refine_digit",
    "digit_runs",
    "iter_digit_tuples",
]


def check_base(b: int) -> int:
    """Validate a positional-notation base (an integer >= 3)."""
    if not isinstance(b, int) or isinstance(b, bool):
        raise TypeError(f"base must be an int, got {type(b).__name__}")
    if b < MIN_BASE:
        raise ValueError(f"base must be >= {MIN_BASE}, got {b}")
    return b


def check_bases(bases: Iterable[int]) -> tuple[int, ...]:
    """Validate a tuple of distinct bases, preserving order."""
    bs = tuple(bases)
    if not bs:
        raise ValueError("need at least one base")
    for b in bs:
        check_base(b)
    if len(set(bs)) != len(bs):
        raise ValueError(f"bases must be distinct, got {bs}")
    return bs


def check_digit(j: int, b: int) -> int:
    """Validate a leading digit for base b (1 <= j <= b-1)."""
    check_base(b)
    if not isinstance(j, int) or isinstance(j, bool):
        raise TypeError(f"digit must be an int, got {type(j).__name__}")
    if not 1 <= j <= b - 1:
        raise ValueError(f"digit must be in 1..{b - 1} for base {b}, got {j}")
    return j


def as_positive_rational(x) -> Fraction:
    """Coerce x to an exact positive rational.

    Accepts ints and Fractions.  Floats are rejected: they carry binary
    rounding and would make boundary cases (x exactly j * b**k) ambiguous.
    """
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(
            f"expected an exact rational (int or Fraction), got {type(x).__name__}"
        )
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"expected a positive rational, got {x}")
    return x


def parse_positive_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into a positive rational.

    Decimal points and scientific notation are rejected deliberately: the
    accepted grammar guarantees the value is represented exactly.
    """
    return Fraction(*_parse_terms(text))


def _parse_terms(text: str) -> tuple[int, int]:
    """The integer terms (p, q) of 'p' or 'p/q', both >= 1 and not reduced."""
    return _int_terms(text, *_match_terms(text))


def _match_terms(text: str) -> tuple[str, str | None]:
    """The decimal strings of the terms of 'p' or 'p/q' (None for a missing q)."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"not an integer or p/q rational literal: {text!r}")
    return m.groups()


def _int_terms(text: str, num: str, den: str | None) -> tuple[int, int]:
    """The terms of text, parsed from its matched strings, both >= 1."""
    powers: dict[int, int] = {}
    p = _parse_decimal(num, powers)
    q = _parse_decimal(den, powers) if den else 1
    if q == 0:
        raise ValueError(f"zero denominator: {text!r}")
    if p == 0:
        raise ValueError(f"expected a positive value: {text!r}")
    return p, q


# _literal_digit reads a long term from its first _PREFIX_DIGITS digits
_PREFIX_DIGITS = 40


def _literal_digit(text: str, b: int) -> int:
    """The leading digit in base b of the literal 'p' or 'p/q', with the
    errors of ``leading_digit(parse_positive_rational(text), b)``, the
    literal's before the base's.

    When a term runs past T = _PREFIX_DIGITS digits and the two differ in
    length by at most T, each is read from its first T digits: with pt their
    value and ep = len(p) - T > 0, pt * 10**ep <= p < (pt + 1) * 10**ep, and
    likewise q, so x lies in [L, U], U / L = (pt + [ep > 0])(qt + [eq > 0]) / (pt * qt).
    The digit j of L, on [j * b**k, (j + 1) * b**k), is that of x iff
    U < (j + 1) * b**k.  Any other literal (a zero prefix, a wider gap, or x
    within about 10**(1 - T) of a digit edge, relative to x) is parsed in
    full.  The prefix route does not meet int()'s digit limit; the CLI lifts it.
    """
    num, den = _match_terms(text)
    ep, eq = max(len(num) - _PREFIX_DIGITS, 0), max(len(den or "") - _PREFIX_DIGITS, 0)
    if ep + eq and abs(ep - eq) <= _PREFIX_DIGITS:
        pt, qt = int(num[:_PREFIX_DIGITS]), int(den[:_PREFIX_DIGITS]) if den else 1
        if pt and qt:
            pu, qu = pt + (ep > 0), qt + (eq > 0)
            # L = pt * 10**(ep - eq) / qu, split unreduced
            _, n, d = _split(pt * 10 ** max(ep - eq, 0), qu * 10 ** max(eq - ep, 0),
                             check_base(b))
            j = n // d
            # x <= U = L * pu * qu / (pt * qt), and x = U when p has no more
            # than T digits and q is qt * 10**eq, so U must stay below the edge
            if n * pu * qu < (j + 1) * d * pt * qt:
                return j
    _, n, d = _split(*_int_terms(text, num, den), check_base(b))
    return n // d


# int() is quadratic in the digits of a decimal string; past this length
# _parse_decimal splits the string instead
_PARSE_CUTOFF = 3000


def _parse_decimal(digits: str, powers: dict[int, int]) -> int:
    """int(digits) for a string of decimal digits, in subquadratic time.

    A string past _PARSE_CUTOFF digits is split so that its low part has
    k digits, k the largest power of two below its length, and parsed as
    int(high) * 10**k + int(low), each part in the same way, with 10**k
    kept in ``powers`` for the other parts.  That costs O(M(n) log n) for
    n digits, with M the cost of a multiplication.  A string longer than
    sys.get_int_max_str_digits(), when that limit is set, goes to int()
    whole, so it is refused just as int() refuses it.
    """
    n = len(digits)
    if n <= _PARSE_CUTOFF or 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < n:
        return int(digits)
    k = 1 << (n - 1).bit_length() - 1
    power = powers.get(k) or powers.setdefault(k, 10**k)
    return _parse_decimal(digits[:-k], powers) * power + _parse_decimal(digits[-k:], powers)


def _format_decimal(n: int) -> str:
    """str(n) for an int n >= 0, calling str() only on parts of at most
    min(_PARSE_CUTOFF, sys.get_int_max_str_digits()) digits (a limit of 0 is none).

    The inverse of _parse_decimal: n has at most d = bit_length(n) * 1234 // 4096 + 1
    digits (1234 / 4096 > log10(2)); past the cutoff it is printed as divmod(n, 10**k),
    k the largest power of two at most d / 2, the low part padded to k digits.  So
    no part meets the process's int-to-string limit, however low it is set; like
    str(), it is quadratic where division is schoolbook (CPython 3.11).
    """
    powers: dict[int, int] = {}
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    cutoff = min(_PARSE_CUTOFF, limit or _PARSE_CUTOFF)

    def fmt(n: int) -> str:
        d = (n.bit_length() * 1234 >> 12) + 1
        if d <= cutoff:
            return str(n)
        k = 1 << (d // 2).bit_length() - 1
        power = powers.get(k) or powers.setdefault(k, 10**k)
        high, low = divmod(n, power)
        return fmt(high) + fmt(low).zfill(k)

    return fmt(n)


def _split(p: int, q: int, b: int) -> tuple[int, int, int]:
    """(k, n, d) with b**k <= p/q < b**(k+1) and n/d = (p/q) / b**k in [1, b), unreduced.

    Walks down one table of repeated squares b**(2**i), multiplying in each
    that still fits under r = floor(max(x, 1/x)): every power is built once,
    in O(log |k|) multiplications.  x < 1 goes through 1/x: k = -m if 1/x is
    exactly b**m, and -m - 1 otherwise.
    """
    r = p // q if p >= q else q // p  # b**m <= y iff b**m <= floor(y)
    squares = [b]
    while squares[-1] <= r:
        squares.append(squares[-1] * squares[-1])
    m, power = 0, 1
    for i in reversed(range(len(squares) - 1)):
        step = power * squares[i]
        if step <= r:
            m, power = m + (1 << i), step
    if p >= q:
        return m, p, q * power
    n = p * power
    return (-m, n, q) if n == q else (-m - 1, n * b, q)


def floor_log(x, b: int) -> int:
    """Largest integer k with b**k <= x, for positive rational x.

    A descent through the repeated squares b**(2**i) on the integer floor of
    x or 1/x; every comparison is exact.  Cost is logarithmic in |k|, so
    inputs like 10**-300 or 7**100000 are fine.

    >>> floor_log(56, 4)
    2
    >>> floor_log(Fraction(1, 3), 10)
    -1
    >>> floor_log(1, 7)
    0
    """
    x = as_positive_rational(x)
    return _split(x.numerator, x.denominator, check_base(b))[0]


def leading_digit(x, b: int) -> int:
    """Leading digit of x in base b.

    Returns the j with j * b**k <= x < (j+1) * b**k for some integer k: the
    floor of the mantissa x / b**floor_log(x, b), on exact integers.

    >>> leading_digit(56, 4)
    3
    >>> leading_digit(Fraction(1, 3), 10)
    3
    >>> leading_digit(7, 7)
    1
    """
    x = as_positive_rational(x)
    _, n, d = _split(x.numerator, x.denominator, check_base(b))
    return n // d


def leading_digit_tuple(x, bases: Iterable[int]) -> tuple[int, ...]:
    """Leading digits of x in each base, component-wise.

    Bases must be distinct integers >= 3.

    >>> leading_digit_tuple(9, (4, 8))
    (2, 1)
    >>> leading_digit_tuple(56, (4, 8))
    (3, 7)
    """
    bs = check_bases(bases)
    x = as_positive_rational(x)
    p, q = x.numerator, x.denominator
    return tuple(n // d for _, n, d in (_split(p, q, b) for b in bs))


class DigitSet(_Record):
    """The set of base-(base**exponent) leading digits refining to ``digit``.

    ``members`` is the union over l = 0..exponent-1 of the integer ranges
    [digit * base**l, (digit+1) * base**l), sorted ascending.  For fixed
    (base, exponent) these sets over digit = 1..base-1 partition
    {1, ..., base**exponent - 1}.
    """

    base: int
    exponent: int
    digit: int
    members: tuple[int, ...]

    def __contains__(self, value: object) -> bool:
        return isinstance(value, int) and digit_set_contains(
            value, self.base, self.exponent, self.digit
        )

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """The defining half-open ranges [j * b**l, (j+1) * b**l)."""
        return digit_set_ranges(self.base, self.exponent, self.digit)


def _check_count(name: str, n) -> int:
    """Validate a count: an int >= 1, and not a bool."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{name} must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    return n


def _check_exponent(e: int) -> int:
    if not isinstance(e, int) or isinstance(e, bool):
        raise TypeError(f"exponent must be an int, got {type(e).__name__}")
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    return e


def digit_set_ranges(b: int, e: int, j: int) -> tuple[tuple[int, int], ...]:
    """The half-open ranges whose union is digit_set(b, e, j).

    Returned ascending; consecutive ranges never touch (for b >= 3 the gap
    (j+1) * b**l .. j * b**(l+1) is nonempty), so this is also the minimal
    run-length representation of the set.  The endpoints hold about
    e**2 * log2(b) bits in all; past DEFAULT_SCAN_CAP bits (counted as
    e * e * bit_length(b)) ResourceLimitError is raised before any range
    is built, and digit_set_contains is the route that scales.
    """
    check_digit(j, b)
    _check_exponent(e)
    _check_cap("digit_set_ranges endpoint bits", e * e * b.bit_length(), DEFAULT_SCAN_CAP)
    return tuple((j * b**l, (j + 1) * b**l) for l in range(e))


def digit_set_contains(value: int, b: int, e: int, j: int) -> bool:
    """Membership predicate for digit_set(b, e, j), with no enumeration.

    value is a member iff it has at most e base-b digits and leading base-b
    digit j; usable when b**e is far beyond any enumeration cap.
    """
    check_digit(j, b)
    _check_exponent(e)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        return False
    k, n, d = _split(value, 1, b)
    return k < e and n // d == j


def digit_set(b: int, e: int, j: int, cap: int = DEFAULT_ENUMERATION_CAP) -> DigitSet:
    """Materialize the digit set S of base-b**e digits refining to j.

    Cardinality is (b**e - 1) // (b - 1).  Raises ResourceLimitError when
    the universe b**e exceeds ``cap``; use digit_set_contains or
    digit_set_ranges beyond that.

    >>> digit_set(8, 2, 2).members
    (2, 16, 17, 18, 19, 20, 21, 22, 23)
    >>> len(digit_set(4, 3, 1))
    21
    """
    check_digit(j, b)
    _check_exponent(e)
    _check_power("digit_set universe (else use digit_set_contains/digit_set_ranges)", b, e, cap)
    members = []
    for lo, hi in digit_set_ranges(b, e, j):
        members.extend(range(lo, hi))
    return DigitSet(base=b, exponent=e, digit=j, members=tuple(members))


def refine_digit(D: int, b: int, e: int) -> int:
    """The base-b digit j whose digit set contains the base-b**e digit D.

    Total on 1 <= D <= b**e - 1 because the digit sets partition that
    range.  Such a D has at most e base-b digits, and j is its leading
    one: one split of D reads both, so b**e is never built.

    >>> refine_digit(25, 4, 3)
    1
    >>> refine_digit(63, 8, 2)
    7
    """
    check_base(b)
    _check_exponent(e)
    if not isinstance(D, int) or isinstance(D, bool):
        raise TypeError(f"digit must be an int, got {type(D).__name__}")
    if D >= 1:
        k, n, d = _split(D, 1, b)
        if k < e:
            return n // d
    raise ValueError(f"digit must be in 1..{b}**{e} - 1, got {D}")


# Bits of the fixed-point mantissa bounds of _MantissaCursor.  Each rounding
# widens the bounds by under one unit on a mantissa of at least 2**96 / q
# units, so even a walk of 10**8 steps keeps them far narrower than a digit;
# wider bounds would only make the exact fallback run more often.
_MANTISSA_BITS = 96


class _MantissaCursor:
    """Exact leading digits of x_n = x0 * (p/q)**n in several bases.

    Per base it keeps integer bounds lo <= 2**P * x_n / b**m <= hi of the
    mantissa of x_n (P = _MANTISSA_BITS, m unstored).  Advancing a base by d
    steps multiplies both bounds by p**d and divides them by q**d, lo
    rounded down and hi rounded up, then divides (or multiplies) both by b
    while they show that the mantissa has left [1, b).  A jump of d > 1
    steps first divides by one cached power b**e, with e read off the bit
    lengths so that it never passes the loop's stopping point; as
    floor(floor(x / b) / b) = floor(x / b**2), and likewise for ceilings,
    the bounds are those of e single divisions, bit for bit.  The digit is
    lo >> P when hi >> P agrees with it, since then both bounds lie in one
    unit interval [j, j + 1) inside [1, b).  Bounds that straddle a power
    of b or a digit edge are rebuilt from the exact mantissa (_rebuild),
    the only exact arithmetic on the walk.  So a step, or a jump of d steps
    up, costs O(1) operations on integers of about P + d * log2(p) bits
    however large x_n has grown, and every digit is exact: a fast
    approximate path with an exact fallback (Ziv, ACM TOMS 17(3), 1991).

    Bases advance independently and lazily, so a caller may stop reading
    bases early or skip steps; n must not decrease for any one base.
    """

    def __init__(self, bases: Iterable[int], x0, p: int, q: int = 1):
        self.p, self.q = p, q
        self.bits = _MANTISSA_BITS
        self.bases = tuple(bases)
        # per base: the bit length of b**64, above 64 * log2(b) by at most
        # one (0 until its first jump), and the powers b**e of its jumps so far
        self.log64 = [0] * len(self.bases)
        self.powers = [{} for _ in self.bases]
        # per base: (n, x_n / b**m) at its last rebuild, and [n, lo, hi]
        self.exact = [(0, Fraction(x0))] * len(self.bases)
        self.state = [[0, *self._rebuild(i, 0)] for i in range(len(self.bases))]

    def _rebuild(self, i: int, n: int) -> tuple[int, int]:
        """Floor and ceiling of 2**P * x_n / b**m, with b**m <= x_n < b**(m+1).

        The exact mantissa is carried on from the last rebuild of the base,
        so a rebuild multiplies in only the steps since then.  On a walk
        that stays on digit edges, such as 10**-n in base 10, the reduced
        mantissa stays small and a rebuild at every step costs O(1).
        """
        n_exact, mantissa = self.exact[i]
        steps = n - n_exact
        _, num, den = _split(mantissa.numerator * self.p**steps,
                             mantissa.denominator * self.q**steps, self.bases[i])
        mantissa = Fraction(num, den)
        self.exact[i] = n, mantissa
        num, den = mantissa.numerator << self.bits, mantissa.denominator
        return num // den, -(-num // den)

    def digit(self, i: int, n: int) -> int:
        """Leading digit of x_n in bases[i]."""
        state, b, bits = self.state[i], self.bases[i], self.bits
        lo, hi = state[1], state[2]
        d = n - state[0]
        if d:
            step = self.p**d
            lo, hi = lo * step, hi * step
            if self.q != 1:
                step = self.q**d
                lo, hi = lo // step, -(-hi // step)
            one, top = 1 << bits, b << bits
            if d > 1:
                log64 = self.log64[i] = self.log64[i] or (b**64).bit_length()
                # top * b**(e-1) < 2**(top.bit_length() + (e-1) * log64 / 64)
                # <= 2**(lo.bit_length() - 1) <= lo: the loop below would
                # divide at least e times
                e = 64 * (lo.bit_length() - 1 - top.bit_length()) // log64 + 1
                if e > 0:
                    powers = self.powers[i]
                    step = powers.get(e) or powers.setdefault(e, b**e)
                    lo, hi = lo // step, -(-hi // step)
            while lo >= top:
                lo, hi = lo // b, -(-hi // b)
            while hi < one:
                lo, hi = lo * b, hi * b
        j = lo >> bits
        if j != hi >> bits:
            lo, hi = self._rebuild(i, n)
            j = lo >> bits
        state[:] = n, lo, hi
        return j


def digit_runs(
    bases: Iterable[int], x_max: int
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Maximal runs (start, stop, digits) of constant digit tuple over 1..x_max.

    leading_digit_tuple(x, bases) == digits for start <= x < stop.  An
    odometer: base b's digit j over b**m changes at (j+1) * b**m, where it
    steps to j+1, or from b-1 to 1 over b**(m+1); a run stops at the least
    such bound.  A run costs O(n) multiplications and comparisons on n
    bases and no division, and there are O(sum of b_i * log x_max) runs.

    >>> list(digit_runs((4, 8), 9))[-3:]
    [(6, 7, (1, 6)), (7, 8, (1, 7)), (8, 10, (2, 1))]
    """
    bs = check_bases(bases)
    _check_count("x_max", x_max)
    digits, powers, bounds = [1] * len(bs), [1] * len(bs), [2] * len(bs)
    stop = 1
    while stop <= x_max:
        start, stop = stop, min(bounds)
        yield start, min(stop, x_max + 1), tuple(digits)
        for i, b in enumerate(bs):
            if bounds[i] == stop:
                digits[i] += 1
                if digits[i] == b:
                    digits[i], powers[i] = 1, powers[i] * b
                bounds[i] = (digits[i] + 1) * powers[i]


def iter_digit_tuples(bases: Iterable[int], x_max: int) -> Iterator[tuple[int, ...]]:
    """Yield leading_digit_tuple(x, bases) for x = 1, 2, ..., x_max.

    Expands digit_runs, so only the yields grow with x_max.
    """
    for start, stop, digits in digit_runs(bases, x_max):
        yield from repeat(digits, stop - start)
