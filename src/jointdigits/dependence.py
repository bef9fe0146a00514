"""Multiplicative dependence of integer bases.

Two bases b1, b2 >= 3 have rationally dependent logarithms exactly when
both are powers of a common integer: b1 = a**e1 and b2 = a**e2 with a >= 2
and gcd(e1, e2) = 1.  That makes dependence a finite integer computation
(numerical log-ratio tests can suggest dependence but can never certify
independence): write each base in the canonical form root**exponent with
the root not itself a perfect power, and compare roots.

Everything here is exact; perfect powers are detected with integer k-th
roots, no factorization engine needed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt
from typing import Iterable

from .digits import check_base, check_bases
from .errors import ResourceLimitError

__all__ = [
    "MAX_BASE_BITS",
    "PrimitiveRoot",
    "DependencePair",
    "DependenceReport",
    "integer_nth_root",
    "primitive_root",
    "pair_dependence",
    "pairwise_report",
]

# primitive_root tries every prime root order below the bit length of b; a
# 2048-bit non-power takes about 12 ms on a shared 2-core machine (CPython
# 3.11), well under any interactive bound.
MAX_BASE_BITS = 2048


def integer_nth_root(y: int, n: int) -> tuple[int, bool]:
    """Floor n-th root of y >= 1, plus whether y is an exact n-th power.

    Newton iteration seeded from the bit length; exact for arbitrary
    precision.

    >>> integer_nth_root(64, 3)
    (4, True)
    >>> integer_nth_root(65, 3)
    (4, False)
    """
    if n < 1:
        raise ValueError(f"root order must be >= 1, got {n}")
    if y < 1:
        raise ValueError(f"argument must be >= 1, got {y}")
    if n == 1 or y == 1:
        return y, True
    # initial x >= y**(1/n): 2**ceil(bits/n)
    x = 1 << -(-y.bit_length() // n)
    # from above, Newton never drops below the floor root (AM-GM) and falls
    # strictly until it reaches it
    while True:
        t = ((n - 1) * x + y // x ** (n - 1)) // n
        if t >= x:
            break
        x = t
    return x, x**n == y


@dataclass(frozen=True)
class PrimitiveRoot:
    """Canonical form b = root**exponent with root not a perfect power.

    Unique by unique factorization: the exponent is the gcd of the prime
    exponents of b.  (Unrelated to primitive roots modulo a prime.)
    """

    root: int
    exponent: int

    def __post_init__(self):
        if self.root < 2:
            raise ValueError(f"root must be >= 2, got {self.root}")
        if self.exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {self.exponent}")

    @property
    def value(self) -> int:
        return self.root**self.exponent


def _primes_below(n: int) -> list[int]:
    """The primes p < n, for n >= 2, by a sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), sieve))


def primitive_root(b: int) -> PrimitiveRoot:
    """Decompose b >= 3 as root**exponent with maximal exponent.

    Takes exact p-th roots for prime orders p only, in ascending order,
    repeating each p while the root is still an exact p-th power: a k-th
    power is a p-th power for every prime p | k, and a root that is no q-th
    power stays none after further roots are taken, so the final root is no
    perfect power.  A base of more than MAX_BASE_BITS bits is refused with
    ResourceLimitError before any root is taken.

    >>> primitive_root(8)
    PrimitiveRoot(root=2, exponent=3)
    >>> primitive_root(12)
    PrimitiveRoot(root=12, exponent=1)
    """
    check_base(b)
    if b.bit_length() > MAX_BASE_BITS:
        raise ResourceLimitError(
            f"base of {b.bit_length()} bits exceeds the {MAX_BASE_BITS}-bit cap on root extraction"
        )
    root, exponent = b, 1
    for p in _primes_below(b.bit_length()):
        if p >= root.bit_length():  # a p-th root >= 2 needs root >= 2**p
            break
        while True:
            r, exact = integer_nth_root(root, p)
            if not exact:
                break
            root, exponent = r, exponent * p
    return PrimitiveRoot(root=root, exponent=exponent)


@dataclass(frozen=True)
class DependencePair:
    """Certificate that base1 = a**e1 and base2 = a**e2 with gcd(e1,e2)=1.

    The combined base a**(e1*e2) = base1**e2 = base2**e1 is the least
    common power through which joint digit tables are computed.
    """

    a: int
    e1: int
    e2: int

    def __post_init__(self):
        if not all(type(v) is int for v in (self.a, self.e1, self.e2)):
            raise ValueError("a, e1 and e2 must be ints")
        if self.a < 2:
            raise ValueError(f"common root must be >= 2, got {self.a}")
        if self.e1 < 1 or self.e2 < 1:
            raise ValueError(f"exponents must be >= 1, got {self.e1}, {self.e2}")
        if gcd(self.e1, self.e2) != 1:
            raise ValueError(f"exponents must be coprime, got {self.e1}, {self.e2}")

    @property
    def base1(self) -> int:
        return self.a**self.e1

    @property
    def base2(self) -> int:
        return self.a**self.e2

    @property
    def combined_base(self) -> int:
        return self.a ** (self.e1 * self.e2)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "e1": self.e1, "e2": self.e2,
                "combined_base": self.combined_base}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DependencePair":
        """Parse a certificate, raising ValueError on any field of the wrong shape.

        All four fields are ints, not bools.  a**(e1*e2) has at least
        e1*e2*(bit_length(a) - 1) + 1 bits, so combined_base is compared with
        it only once that bound is below its own bit length: the power built
        then has fewer than twice the bits of the payload's number.
        """
        dep, b = cls(a=d["a"], e1=d["e1"], e2=d["e2"]), d["combined_base"]
        if (type(b) is not int or dep.e1 * dep.e2 * (dep.a.bit_length() - 1) >= b.bit_length()
                or dep.combined_base != b):
            raise ValueError("combined_base is not a**(e1*e2)")
        return dep


def pair_dependence(b1: int, b2: int) -> DependencePair | None:
    """Dependence certificate for (b1, b2), or None if independent.

    None is a proof of independence, not a failed search: the canonical
    root of a base is unique, so distinct roots rule out any common power.

    >>> pair_dependence(4, 8)
    DependencePair(a=2, e1=2, e2=3)
    >>> pair_dependence(3, 10) is None
    True
    """
    check_bases((b1, b2))
    r1 = primitive_root(b1)
    r2 = primitive_root(b2)
    if r1.root != r2.root:
        return None
    return _common_power(r1, r2)


def _common_power(r1: PrimitiveRoot, r2: PrimitiveRoot) -> DependencePair:
    """Certificate of two distinct bases with the same canonical root."""
    g = gcd(r1.exponent, r2.exponent)
    return DependencePair(a=r1.root**g, e1=r1.exponent // g, e2=r2.exponent // g)


@dataclass(frozen=True)
class DependenceReport:
    """All dependent pairs among a tuple of bases.

    ``dependent_pairs`` holds (i, j, certificate) for every i < j whose
    bases are multiplicatively dependent.  An empty list certifies that no
    two of the logarithms ln(b_i) are rationally dependent -- the
    hypothesis under which the joint digit map is expected (for n = 2:
    known) to be surjective.
    """

    bases: tuple[int, ...]
    dependent_pairs: tuple[tuple[int, int, DependencePair], ...]

    @property
    def all_pairwise_independent(self) -> bool:
        return not self.dependent_pairs

    def to_json_dict(self) -> dict:
        return {
            "bases": list(self.bases),
            "dependent_pairs": [
                {"i": i, "j": j, "certificate": dep.to_json_dict()}
                for i, j, dep in self.dependent_pairs
            ],
            "all_pairwise_independent": self.all_pairwise_independent,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DependenceReport":
        """Rebuild the report of ``bases``; d must equal its JSON exactly."""
        report = pairwise_report(d["bases"])
        if d != report.to_json_dict():
            raise ValueError("payload is not the dependence report of its bases")
        return report


def pairwise_report(bases: Iterable[int]) -> DependenceReport:
    """The dependent pairs among distinct bases, in (i, j) order.

    Two bases are dependent iff their canonical roots agree, so one
    primitive_root per base and a grouping by root replace the C(n,2)
    pair_dependence calls: the work is linear in n plus the number of
    dependent pairs.

    >>> pairwise_report((4, 8, 10)).dependent_pairs
    ((0, 1, DependencePair(a=2, e1=2, e2=3)),)
    """
    bs = check_bases(bases)
    if len(bs) < 2:
        raise ValueError("need at least two bases")
    roots = [primitive_root(b) for b in bs]
    by_root = defaultdict(list)
    for i, r in enumerate(roots):
        by_root[r.root].append(i)
    found = tuple(
        (i, j, _common_power(roots[i], roots[j]))
        for i, r in enumerate(roots)
        for j in by_root[r.root]
        if j > i
    )
    return DependenceReport(bases=bs, dependent_pairs=found)
