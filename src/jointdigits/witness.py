"""Explicit witnesses for joint leading-digit targets.

A witness for (bases, target) is a number x whose leading digit in
bases[i] is target[i] for every i.  The bases fall into root groups, the
powers a**e_i of one root a, and inside a group the target is one exact
condition on x (dependence._group_class): floor(log_a x) in one residue
class and the base-a mantissa of x in one interval.  A target that some
group's condition rejects is rejected up front, with the first dependent
pair whose power-interval criterion excludes it as the certificate: it
is provably not attainable at any budget.

The search pins one coordinate exactly: the candidates
x_k = target[i] * bases[i]**k all have leading digit target[i] in
bases[i] (digit string target[i] followed by k zeros).  Their base-a
mantissa is fixed, so the anchor's group holds at no k or on one residue
class of k, and the scan steps through that class, reading only the
bases outside the group, each check an exact integer comparison.  The
other bases are read in one order fixed before the scan, rarest first;
only the candidates at which the first has its target digit can hit, and
the gaps between those take at most three values (the three-gap theorem
on return times), so the scan jumps from one to the next rather than
stepping through every candidate.  For two independent bases the
fractional parts of log_{b_j}(x_k) form an irrational rotation, so a hit
is guaranteed and the budget bounds time only; for three or more
pairwise-independent bases termination is conjectural (Schanuel), so
running out of budget is an explicit, labeled outcome rather than a claim
of non-attainability.  With a dependent pair among the bases the note
says only that the target passes every dependent pair's criterion:
exhaustion is inconclusive.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import index

from .dependence import _group_class, _groups, _pairs
from .digits import (
    DEFAULT_SCAN_CAP,
    _MantissaCursor,
    _check_count,
    _format_decimal,
    _split,
    check_bases,
    check_digit,
    digit_runs,
    leading_digit_tuple,
)
from .errors import _Record, _check_cap, _json_reader
from .image import AttainabilityVerdict, attainable_by_power_criterion

__all__ = [
    "DEFAULT_BUDGET",
    "WitnessQuery",
    "WitnessResult",
    "find_witness",
    "verify_witness",
    "image_observed",
]

DEFAULT_BUDGET = 5000

FOUND = "found"
NOT_ATTAINABLE = "not_attainable"
EXHAUSTED = "exhausted"


class WitnessQuery(_Record):
    """A witness request: distinct bases, a target digit per base, a budget.

    ``anchor`` selects which coordinate the scan pins first; with
    ``retry_other_anchors`` every other coordinate is tried after the
    first anchor exhausts its budget.
    """

    bases: tuple[int, ...]
    target: tuple[int, ...]
    budget: int = DEFAULT_BUDGET
    anchor: int = 0
    retry_other_anchors: bool = True

    def __post_init__(self):
        bs = check_bases(self.bases)
        object.__setattr__(self, "bases", bs)
        object.__setattr__(self, "target", tuple(self.target))
        if len(bs) < 2:
            raise ValueError("need at least two bases")
        if len(self.target) != len(bs):
            raise ValueError(
                f"target length {len(self.target)} != number of bases {len(bs)}"
            )
        for j, b in zip(self.target, bs):
            check_digit(j, b)
        _check_count("budget", self.budget)
        if type(self.anchor) is not int or not 0 <= self.anchor < len(bs):
            raise ValueError(f"anchor must be an int in 0..{len(bs) - 1}, got {self.anchor!r}")


class WitnessResult(_Record):
    """Found(x, anchor, k) | NotAttainable(certificate) | Exhausted(k, note).

    Found results always re-verify: leading_digit_tuple(x, bases) equals
    the target by exact recomputation before the result is returned.
    """

    outcome: str
    bases: tuple[int, ...] = ()
    target: tuple[int, ...] = ()
    x: int | None = None
    anchor_index: int | None = None
    k: int | None = None
    certificate: AttainabilityVerdict | None = None
    obstruction: tuple[int, int] | None = None
    k_reached: int | None = None
    assumption_note: str | None = None

    _uncompared = ("assumption_note",)

    @property
    def found(self) -> bool:
        return self.outcome == FOUND

    def to_json_dict(self) -> dict:
        d: dict = {
            "outcome": self.outcome,
            "bases": list(self.bases),
            "target": list(self.target),
        }
        if self.outcome == FOUND:
            d.update(
                x=_format_decimal(self.x),
                anchor=self.anchor_index,
                k=self.k,
                verified=verify_witness(self.x, self.bases, self.target),
            )
        elif self.outcome == NOT_ATTAINABLE:
            d.update(certificate=self.certificate.to_json_dict(),
                     obstruction=list(self.obstruction))
        else:
            d.update(k_reached=self.k_reached, assumption_note=self.assumption_note)
        return d

    def iter_text(self) -> Iterator[str]:
        """The result as one line of text: the witness, the obstruction or the exhaustion."""
        if self.outcome == FOUND:
            yield f"found x={_format_decimal(self.x)} (anchor {self.anchor_index}, k={self.k})\n"
        elif self.outcome == NOT_ATTAINABLE:
            i, j = self.obstruction
            yield (f"not attainable: bases {self.bases[i]},{self.bases[j]} exclude "
                   f"digit pair {self.certificate.pair} "
                   f"(no power certificate in c range {self.certificate.scan_range})\n")
        else:
            yield f"exhausted at k={self.k_reached}: {self.assumption_note}\n"

    @_json_reader
    def from_json_dict(cls, d: dict) -> "WitnessResult":
        """Rebuild a result from its bases and target, checking it against them.

        A found x is rebuilt as target[anchor] * bases[anchor]**k, k bounded
        by the length of the payload's x before the power is taken, and must
        be a witness (``verified`` is recomputed, so it cannot vouch for x);
        the payload's x must then be its canonical text.  The obstruction and
        its verdict are recomputed as find_witness finds them: the first
        dependent pair of the bases whose power criterion excludes the target.
        """
        q = WitnessQuery(bases=d["bases"], target=d["target"])
        common = dict(outcome=d["outcome"], bases=q.bases, target=q.target)
        if d["outcome"] == FOUND:
            anchor, k = index(d["anchor"]), index(d["k"])
            # 2**(k * (bit_length(b) - 1)) <= b**k <= x < 10**len(x) < 2**(4 * len(x))
            if not (anchor in range(len(q.bases))
                    and 0 <= k * (q.bases[anchor].bit_length() - 1) < 4 * len(d["x"])):
                raise ValueError(f"anchor {anchor} and k = {k} cannot give the payload's x")
            x = q.target[anchor] * q.bases[anchor] ** k
            if not verify_witness(x, q.bases, q.target):
                raise ValueError(f"the x of anchor {anchor} and k = {k} is not a witness")
            return cls(**common, x=x, anchor_index=anchor, k=k)
        if d["outcome"] == NOT_ATTAINABLE:
            found = _obstruction(_classed_groups(q.bases, q.target), q.target)
            if found is None:
                raise ValueError("no dependent pair of the bases excludes the target")
            return cls(**common, obstruction=found[0], certificate=found[1])
        if d["outcome"] == EXHAUSTED:
            return cls(**common, k_reached=_check_count("k_reached", d["k_reached"]),
                       assumption_note=_exhaustion_note(_groups(q.bases)))
        raise ValueError(f"unknown outcome {d['outcome']!r}")


def _classed_groups(bases: tuple[int, ...], target: tuple[int, ...]) -> list:
    """The _groups of the bases as (a, members, class), the class of the
    target from _group_class, None where no x has the members' digits."""
    return [(a, members, _group_class(a, members, target)) for a, members in _groups(bases)]


def _obstruction(
    groups: list, target: tuple[int, ...]
) -> tuple[tuple[int, int], AttainabilityVerdict] | None:
    """((i, j), verdict) of the first pair, in (i, j) order, of the
    _classed_groups whose power criterion excludes (target[i], target[j]),
    or None.

    A pair's criterion is its group's condition on two members, and a group
    without a class holds an excluding pair (CRT and Helly), so only those
    groups are walked; one that holds none raises RuntimeError.
    """
    failing = [(a, members) for a, members, c in groups if c is None]
    for i, j, dep in _pairs(failing):
        verdict = attainable_by_power_criterion(dep, target[i], target[j])
        if not verdict.attainable:
            return (i, j), verdict
    if failing:
        raise RuntimeError(f"the root groups of {[a for a, _ in failing]} reject the "
                           "target, but no pair of them excludes it")
    return None


def _exhaustion_note(groups: list) -> str:
    """What an exhausted scan over the bases of the root groups does and does not show."""
    n = sum(len(group[1]) for group in groups)
    if len(groups) < n:  # some group has two or more members
        note = (
            "budget exhausted; the target passes the power criterion of every "
            "dependent pair of the bases, so exhaustion is inconclusive, not a "
            "certificate of non-attainability"
        )
        if n == 2:
            note += (
                "; the anchored scan of a dependent pair is periodic, so retry "
                "from the other anchor"
            )
        return note
    if n == 2:
        return (
            "budget exhausted; for two multiplicatively independent bases a "
            "witness is guaranteed to exist (the joint digit map is surjective), "
            "so retry with a larger budget"
        )
    return (
        "budget exhausted; for three or more pairwise-independent bases, "
        "surjectivity of the joint digit map is conditional on the conjectured "
        "rational independence of the reciprocal logarithms 1/ln(b_i), which "
        "follows from Schanuel's conjecture -- exhaustion is inconclusive, not "
        "a certificate of non-attainability"
    )


def _return_gaps(anchor_base: int, b: int, j: int, limit: int) -> tuple[int, ...]:
    """The possible gaps between consecutive k at which x_k = x0 * anchor_base**k has digit j in b.

    On the circle, k rotates log_b(x_k) by alpha = log_b(anchor_base), and
    digit j is an arc of length l = log_b(1 + 1/j).  With
    r1 = min{r >= 1 : {r alpha} < l} and r2 = min{r >= 1 : {r alpha} > 1 - l},
    the next hit after a hit is r1, r2 or r1 + r2 steps on, for any x0 and
    irrational alpha (the three-gap theorem on return times; Slater 1967).
    Both are exact digit tests: {r alpha} < l iff j * anchor_base**r has
    leading digit j in b, and {r alpha} > 1 - l iff {-r alpha} < l, iff
    j / anchor_base**r does.  Returns sorted({r1, r2, r1 + r2}), or (1,),
    the gap of the linear scan, when r1 or r2 exceeds limit.
    """
    returns = []
    for p, q in ((anchor_base, 1), (1, anchor_base)):
        cursor = _MantissaCursor((b,), j, p, q)
        r = next((r for r in range(1, limit + 1) if cursor.digit(0, r) == j), None)
        if r is None:
            return (1,)
        returns.append(r)
    r1, r2 = returns
    return tuple(sorted({r1, r2, r1 + r2}))


def _scan_anchor(bases: tuple[int, ...], group: tuple, rank: list[int],
                 target: tuple[int, ...], anchor: int, budget: int) -> tuple[int, int] | None:
    """Scan x_k = target[anchor] * bases[anchor]**k for k = 0..budget.

    group is the anchor's (a, members, (R, M, L)) from _classed_groups: its
    members have their digits at x iff floor(log_a x) = R (mod M) and the
    base-a mantissa of x is in [L, U).  With bases[anchor] = a**e and
    t = target[anchor], every x_k has the mantissa t / a**m, m =
    floor(log_a t), at least L as the anchor is a member: unless it is L no
    k hits, and otherwise the group holds exactly at the candidates
    k = k0 (mod M / e), m + e * k0 = R (mod M).  Only those are scanned, and
    only the bases outside the group are read.

    Returns (x, k) for the first candidate that matches every other digit.
    A mantissa cursor reads each base's digit of x_k from fixed-point
    bounds, so a read costs O(1) operations on small integers however many
    bits x_k has; x_k itself is built only for the hit.  Each candidate
    stops at the first base whose digit misses.

    The read order is fixed before the first candidate, rarest first by
    rank, the integer (2j + 1) * bit_length(b**16), about 46 mean gaps 1/l,
    where l = log_b(1 + 1/j) and 1/l = ln(b) / ln(1 + 1/j) ~ (j + 1/2) * ln(b).
    The scan steps to the next candidate while the first base misses.  The
    first time it hits, another base misses and a candidate is left, its
    _return_gaps under the rotation by bases[anchor]**(M / e) are searched
    up to a quarter of its rank, or the candidates left if fewer: near a
    rational rotation a return time can run far past the mean gap, and the
    search is cut short, leaving the scan linear.  From then on the scan
    jumps from each hit of the first base to its next, the first of n + g
    for g in the gaps that hits: the candidates between are misses of that
    base, so the hit it returns is the linear scan's, after about
    3 * budget * l reads instead of budget + 1.  A jump that lands on a miss
    of the first base contradicts the theorem and raises RuntimeError.
    """
    a, members, (r, modulus, (lp, lq)) = group
    exponents, t = dict(members), target[anchor]
    m, _, power = _split(t, 1, a)
    stride = modulus // exponents[anchor]
    k0 = (r - m) // exponents[anchor] % stride
    if t * lq != lp * power or k0 > budget:
        return None
    last = (budget - k0) // stride  # the candidates are k0 + n * stride, n = 0..last
    others = sorted((i for i in range(len(bases)) if i not in exponents), key=lambda i: -rank[i])
    cursor = _MantissaCursor([bases[i] for i in others], t, bases[anchor])
    wanted = list(enumerate(target[i] for i in others))
    n, gaps = 0, None
    while n <= last:
        k = k0 + n * stride
        for i, j in wanted:
            if cursor.digit(i, k) != j:
                break
        else:
            return t * bases[anchor] ** k, k
        if i == 0:  # the first base misses
            if gaps is not None and len(gaps) > 1:
                raise RuntimeError(f"base {cursor.bases[0]} misses at k = {k}, one of the "
                                   f"return times {gaps} after one of its hits")
            n += 1
            continue
        if n == last:
            break
        if gaps is None:  # it hits and base i misses: find its return times, once
            gaps = _return_gaps(bases[anchor] ** stride, cursor.bases[0], wanted[0][1],
                                min(last - n, rank[others[0]] // 4))
        # the next candidate is the first return of the first base that hits;
        # the last return is taken unread, as that base is read first there
        g = gaps[-1]
        for gap in gaps[:-1]:
            if n + gap > last or cursor.digit(0, k + gap * stride) == wanted[0][1]:
                g = gap
                break
        n += g
    return None


def find_witness(query: WitnessQuery, *, budget_cap: int = DEFAULT_SCAN_CAP) -> WitnessResult:
    """Find x with the requested joint digits, or certify why not / give up.

    A budget above ``budget_cap`` is refused before any work: the scan reads
    up to budget + 1 candidates per anchor (fewer once it jumps between the
    hits of the first base it reads, the rarest b outside the anchor's root
    group, with target digit j: about 3 * budget * log_b(1 + 1/j)), and the
    x it returns (like the exact mantissa of a rare fallback) has up to
    budget * log2(b) bits.  Stage 1 takes each root group's one condition,
    _group_class, once per query like the read ranks, and walks the pairs
    of a group only when it has none, to reject the target with the first
    dependent pair in (i, j) order whose power criterion excludes it
    (provable, budget-independent).  Stage 2 runs the anchored scan from
    query.anchor; stage 3 retries the remaining anchors.  Among anchors
    tried, the first (anchor order, then k) hit wins, deterministically.

    >>> find_witness(WitnessQuery(bases=(3, 10), target=(2, 9))).x
    9565938
    >>> find_witness(WitnessQuery(bases=(4, 8), target=(2, 3))).outcome
    'not_attainable'
    """
    _check_cap("budget", query.budget, budget_cap)
    bases, target = query.bases, query.target
    groups = _classed_groups(bases, target)
    found = _obstruction(groups, target)
    if found is not None:
        return WitnessResult(outcome=NOT_ATTAINABLE, bases=bases, target=target,
                             obstruction=found[0], certificate=found[1])
    anchors = [query.anchor]
    if query.retry_other_anchors:
        anchors += [i for i in range(len(bases)) if i != query.anchor]
    rank = [(2 * j + 1) * (b**16).bit_length() for b, j in zip(bases, target)]
    group_of = {i: group for group in groups for i, _ in group[1]}
    for anchor in anchors:
        found = _scan_anchor(bases, group_of[anchor], rank, target, anchor, query.budget)
        if found is not None:
            x, k = found
            # independent re-check by the from-scratch route; survives python -O
            if leading_digit_tuple(x, bases) != target:
                raise RuntimeError(f"anchored scan returned a non-witness x = {x}")
            return WitnessResult(outcome=FOUND, bases=bases, target=target,
                                 x=x, anchor_index=anchor, k=k)
    return WitnessResult(outcome=EXHAUSTED, bases=bases, target=target,
                         k_reached=query.budget, assumption_note=_exhaustion_note(groups))


def verify_witness(x, bases: Iterable[int], target: Iterable[int]) -> bool:
    """True iff the joint digits of x equal the target; pure recomputation."""
    bs, tgt = check_bases(bases), tuple(target)
    return len(tgt) == len(bs) and leading_digit_tuple(x, bs) == tgt


def image_observed(
    bases: Iterable[int], x_max: int, cap: int = DEFAULT_SCAN_CAP
) -> frozenset[tuple[int, ...]]:
    """Digit tuples of the integers 1..x_max: a brute-force image lower bound.

    Monotone nondecreasing in x_max and always a subset of the exact
    image; for a dependent pair with combined base b, the scan to b-1
    already realizes every attainable pair.

    >>> len(image_observed((4, 8), 63))
    15
    """
    _check_cap("x_max", _check_count("x_max", x_max), cap)
    return frozenset(digits for _, _, digits in digit_runs(bases, x_max))
