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

from collections.abc import Iterable, Iterator
from itertools import compress
from math import gcd, isqrt
from operator import index

from .digits import _split, check_base, check_bases
from .errors import _Record, _check_cap, _check_power, _json_reader

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

# a combined base is written out in full: at most 10**4299, it has at most
# 4300 decimal digits, as many as int() and json.loads read by default
_COMBINED_BASE_CAP = 10**4299


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
    if n >= y.bit_length():  # 1 < y < 2**n: the floor root is 1
        return 1, False
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


class PrimitiveRoot(_Record):
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
    _check_cap("bit length of a base", b.bit_length(), MAX_BASE_BITS)
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


class DependencePair(_Record):
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
        """a**(e1*e2); ResourceLimitError past _COMBINED_BASE_CAP, before it is built."""
        return _check_power("combined base", self.a, self.e1 * self.e2, _COMBINED_BASE_CAP)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "e1": self.e1, "e2": self.e2,
                "combined_base": self.combined_base}

    @_json_reader
    def from_json_dict(cls, d: dict) -> "DependencePair":
        """Rebuild a certificate from a, e1 and e2."""
        return cls._bounded(d)

    @classmethod
    def _bounded(cls, d: dict) -> "DependencePair":
        """The certificate (a, e1, e2) of d, unless combined_base is too short.

        a**(e1*e2) has over e1*e2*(bit_length(a) - 1) bits, so a power built
        after this check has fewer than twice the bits of the payload's number.
        """
        dep = cls(a=d["a"], e1=d["e1"], e2=d["e2"])
        if dep.e1 * dep.e2 * (dep.a.bit_length() - 1) >= index(d["combined_base"]).bit_length():
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
    found = pairwise_report((b1, b2)).dependent_pairs
    return found[0][2] if found else None


class DependenceReport(_Record):
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

    def iter_text(self) -> Iterator[str]:
        """The report as text: a line per dependent pair, then whether all are
        independent.  Every line is formatted before the text is yielded, so a
        combined base past its cap refuses before any output."""
        lines = [
            f"{self.bases[i]} ~ {self.bases[j]}: dependent, "
            f"a={dep.a} e1={dep.e1} e2={dep.e2} combined_base={dep.combined_base}"
            for i, j, dep in self.dependent_pairs
        ]
        independent = "yes" if self.all_pairwise_independent else "no"
        yield "\n".join([*lines, f"all pairwise independent: {independent}\n"])

    @_json_reader
    def from_json_dict(cls, d: dict) -> "DependenceReport":
        """Rebuild the report of ``bases``.

        The listed (i, j, a, e1, e2) must be the rebuilt ones, in order, each
        under DependencePair's bit bound, before any combined base is built.
        """
        report = pairwise_report(d["bases"])
        listed = [(e["i"], e["j"], DependencePair._bounded(e["certificate"]))
                  for e in d["dependent_pairs"]]
        if listed != list(report.dependent_pairs):
            raise ValueError("dependent_pairs are not those of the bases")
        return report


def _groups(bases: tuple[int, ...]) -> list[tuple[int, list[tuple[int, int]]]]:
    """The root groups (a, [(i, e_i), ...]), bases[i] = a**e_i, from one primitive_root pass.

    Two bases are dependent iff they share a group.  Groups come in the
    order of their first member, members in index order; singletons count.

    >>> _groups((4, 8, 10))
    [(2, [(0, 2), (1, 3)]), (10, [(2, 1)])]
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, b in enumerate(bases):
        r = primitive_root(b)
        groups.setdefault(r.root, []).append((i, r.exponent))
    return list(groups.items())


def _group_class(
    a: int, members: list[tuple[int, int]], target: tuple[int, ...]
) -> tuple[int, int, tuple[int, int]] | None:
    """The one condition (R, M, L) on x under which each member base a**e_i of a
    root group has leading digit target[i], or None if no x has them all.

    With m_i = floor(log_a t_i), x has digit t_i in a**e_i iff floor(log_a x)
    = m_i (mod e_i) and the mantissa x / a**floor(log_a x) lies in
    [t_i, t_i + 1) / a**m_i.  Congruences are jointly solvable iff every two
    are (CRT) and intervals meet iff every two do (Helly), so one pass merges
    them: floor(log_a x) = R (mod M), M the lcm of the e_i, and the mantissa
    in [L, U), U the least (t_i + 1) / a**m_i and L = (p, q), the greatest
    t_i / a**m_i, as two ints p / q.  Every comparison cross-multiplies ints.

    >>> _group_class(2, [(0, 2), (1, 3)], (3, 7))  # 4 = 2**2 and 8 = 2**3: x = 56
    (5, 6, (7, 4))
    >>> _group_class(2, [(0, 2), (1, 3)], (2, 3)) is None
    True
    """
    # floor(log_a x) = 0 (mod 1) and a mantissa in [1, a) hold for every x
    r, modulus, (lp, lq), (up, uq) = 0, 1, (1, 1), (a, 1)
    for i, e in members:
        m, t, power = _split(target[i], 1, a)
        if t * lq > lp * power:
            lp, lq = t, power
        if (t + 1) * uq < up * power:
            up, uq = t + 1, power
        g = gcd(modulus, e)
        if (m - r) % g or lp * uq >= up * lq:
            return None
        # r + modulus * s = m (mod e): s = (m - r) / g * (modulus / g)**-1 (mod e / g)
        r += modulus * ((m - r) // g * pow(modulus // g, -1, e // g) % (e // g))
        modulus = modulus // g * e
    return r, modulus, (lp, lq)


def _pairs(groups: list) -> Iterator[tuple[int, int, DependencePair]]:
    """(i, j, certificate), lazily and in (i, j) order, for every i < j in one
    of the _groups: a**e_i and a**e_j give a**g, e_i/g, e_j/g, g = gcd(e_i, e_j)."""
    firsts = sorted((i, pos, a, members) for a, members in groups if len(members) > 1
                    for pos, (i, _) in enumerate(members))
    for i, pos, a, members in firsts:
        e1 = members[pos][1]
        for j, e2 in members[pos + 1:]:
            g = gcd(e1, e2)
            yield i, j, DependencePair(a=a**g, e1=e1 // g, e2=e2 // g)


def pairwise_report(bases: Iterable[int]) -> DependenceReport:
    """The dependent pairs among distinct bases, in (i, j) order.

    The same-group pairs of _groups, so the work is linear in n plus the
    number of dependent pairs, not C(n,2) pair_dependence calls.

    >>> pairwise_report((4, 8, 10)).dependent_pairs
    ((0, 1, DependencePair(a=2, e1=2, e2=3)),)
    """
    bs = check_bases(bases)
    if len(bs) < 2:
        raise ValueError("need at least two bases")
    return DependenceReport(bases=bs, dependent_pairs=tuple(_pairs(_groups(bs))))
