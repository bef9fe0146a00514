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
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator

from .errors import ResourceLimitError

MIN_BASE = 3

# digit_set materializes {1,...,b**e - 1}; refuse universes past this size
DEFAULT_ENUMERATION_CAP = 1 << 24
# longest integer scan, sample count or witness budget; the CLI reads
# JOINTDIGITS_SCAN_CAP in its place
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
    m = _RATIONAL_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"not an integer or p/q rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    if num == 0:
        raise ValueError(f"expected a positive value: {text!r}")
    return num, den


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


@dataclass(frozen=True)
class DigitSet:
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
    run-length representation of the set.
    """
    check_digit(j, b)
    _check_exponent(e)
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
    if b**e > cap:
        raise ResourceLimitError(
            f"digit_set universe {b}**{e} exceeds enumeration cap {cap}; "
            "use digit_set_contains/digit_set_ranges instead"
        )
    members = []
    for lo, hi in digit_set_ranges(b, e, j):
        members.extend(range(lo, hi))
    return DigitSet(base=b, exponent=e, digit=j, members=tuple(members))


def refine_digit(D: int, b: int, e: int) -> int:
    """The base-b digit j whose digit set contains the base-b**e digit D.

    Total on 1 <= D <= b**e - 1 because the digit sets partition that
    range.  D < b**e is itself a base-b**e digit, so j is simply the
    leading base-b digit of the integer D.

    >>> refine_digit(25, 4, 3)
    1
    >>> refine_digit(63, 8, 2)
    7
    """
    check_base(b)
    _check_exponent(e)
    if not isinstance(D, int) or isinstance(D, bool):
        raise TypeError(f"digit must be an int, got {type(D).__name__}")
    if not 1 <= D <= b**e - 1:
        raise ValueError(f"digit must be in 1..{b**e - 1} for base {b}**{e}, got {D}")
    return leading_digit(D, b)


class _Bracket:
    """The power bracket lo = b**m <= x < hi = b**(m+1) of one base, for ints x >= 1.

    ``digit`` moves the bracket up a power at a time until it encloses x, so
    a nondecreasing walk such as digit_runs costs O(1) exact operations per
    power of b it passes.  floor_log is the independent from-scratch route.
    """

    def __init__(self, b: int):
        self.b, self.lo, self.hi = b, 1, b

    def digit(self, x: int) -> int:
        """Leading digit x // lo of the int x, no smaller than the last one."""
        while x >= self.hi:
            self.lo, self.hi = self.hi, self.hi * self.b
        return x // self.lo


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
    while they show that the mantissa has left [1, b).  The digit is
    lo >> P when hi >> P agrees with it, since then both bounds lie in one
    unit interval [j, j + 1) inside [1, b).  Bounds that straddle a power
    of b or a digit edge are rebuilt from the exact mantissa (_rebuild),
    the only exact arithmetic on the walk.  So a step costs O(1)
    operations on integers of about P bits however large x_n has grown,
    and every digit is exact: a fast approximate path with an exact
    fallback (Ziv, ACM TOMS 17(3), 1991).

    Bases advance independently and lazily, so a caller may stop reading
    bases early; n must not decrease for any one base.
    """

    def __init__(self, bases: Iterable[int], x0, p: int, q: int = 1):
        self.p, self.q = p, q
        self.bits = _MANTISSA_BITS
        self.bases = tuple(bases)
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

    leading_digit_tuple(x, bases) == digits for start <= x < stop.  Base
    b's digit j changes exactly at (j+1) * b**m, so a run stops at the
    least such bound over the bases: O(sum of b_i * log x_max) runs,
    however large x_max is.

    >>> list(digit_runs((4, 8), 9))[-3:]
    [(6, 7, (1, 6)), (7, 8, (1, 7)), (8, 10, (2, 1))]
    """
    bs = check_bases(bases)
    _check_count("x_max", x_max)
    brackets = [_Bracket(b) for b in bs]
    start = 1
    while start <= x_max:
        digits = tuple([br.digit(start) for br in brackets])
        stop = min((j + 1) * br.lo for j, br in zip(digits, brackets))
        yield start, min(stop, x_max + 1), digits
        start = stop


def iter_digit_tuples(bases: Iterable[int], x_max: int) -> Iterator[tuple[int, ...]]:
    """Yield leading_digit_tuple(x, bases) for x = 1, 2, ..., x_max.

    Expands digit_runs, so only the yields grow with x_max.
    """
    for start, stop, digits in digit_runs(bases, x_max):
        yield from repeat(digits, stop - start)
