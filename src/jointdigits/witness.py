"""Explicit witnesses for joint leading-digit targets.

A witness for (bases, target) is a number x whose leading digit in
bases[i] is target[i] for every i.  The search strategy pins one
coordinate exactly: the candidates x_k = target[i] * bases[i]**k all have
leading digit target[i] in bases[i] (digit string target[i] followed by k
zeros), so only the other coordinates need checking, and each check is an
exact integer comparison.  For two independent bases the fractional parts
of log_{b_j}(x_k) form an irrational rotation, so a hit is guaranteed and
the budget bounds time only; for three or more pairwise-independent bases
termination is conjectural (Schanuel), so running out of budget is an
explicit, labeled outcome rather than a claim of non-attainability.  With
a dependent pair among the bases the note says only that the target
passes every dependent pair's criterion: exhaustion is inconclusive.

Targets whose projection to some multiplicatively dependent pair of the
bases fails the power-interval criterion are rejected up front with that
certificate: those are provably not attainable at any budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .dependence import DependenceReport, pair_dependence, pairwise_report
from .digits import (
    DEFAULT_SCAN_CAP,
    _MantissaCursor,
    _check_count,
    check_bases,
    check_digit,
    digit_runs,
    leading_digit_tuple,
)
from .errors import ResourceLimitError
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


@dataclass(frozen=True)
class WitnessQuery:
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
        if not 0 <= self.anchor < len(bs):
            raise ValueError(f"anchor index out of range: {self.anchor}")


@dataclass(frozen=True)
class WitnessResult:
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
    assumption_note: str | None = field(default=None, compare=False)

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
                x=str(self.x),
                anchor=self.anchor_index,
                k=self.k,
                verified=verify_witness(self.x, self.bases, self.target),
            )
        elif self.outcome == NOT_ATTAINABLE:
            d.update(
                certificate=self.certificate.to_json_dict(),
                obstruction=list(self.obstruction),
            )
        else:
            d.update(k_reached=self.k_reached, assumption_note=self.assumption_note)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "WitnessResult":
        """Parse a payload, checking every field against its bases and target.

        A found x must be target[anchor] * bases[anchor]**k and a witness, with
        k bounded by the bit length of x before the power is taken; a
        certificate must be the recomputed verdict of a dependent pair.
        """
        q = WitnessQuery(bases=d["bases"], target=d["target"])
        common = dict(outcome=d["outcome"], bases=q.bases, target=q.target)
        if d["outcome"] == FOUND:
            x, anchor, k = int(d["x"]), d["anchor"], d["k"]
            if not (
                type(anchor) is type(k) is int
                and anchor in range(len(q.bases))
                and k in range(x.bit_length())
                and x == q.target[anchor] * q.bases[anchor] ** k
                and verify_witness(x, q.bases, q.target)
            ):
                raise ValueError(f"x = {x} is not the anchored witness the payload claims")
            return cls(**common, x=x, anchor_index=anchor, k=k)
        if d["outcome"] == NOT_ATTAINABLE:
            i, j = d["obstruction"]
            n = len(q.bases)
            dep = pair_dependence(q.bases[i], q.bases[j]) if 0 <= i < j < n else None
            if dep is None:
                raise ValueError(f"obstruction {(i, j)} is not a dependent pair of the bases")
            verdict = attainable_by_power_criterion(dep, q.target[i], q.target[j])
            if verdict.attainable or d["certificate"] != verdict.to_json_dict():
                raise ValueError("certificate is not the recomputed verdict of its pair")
            return cls(**common, certificate=verdict, obstruction=(i, j))
        if d["outcome"] == EXHAUSTED:
            k_reached, note = d["k_reached"], _exhaustion_note(pairwise_report(q.bases))
            if not (type(k_reached) is int and k_reached >= 1
                    and d["assumption_note"] == note):
                raise ValueError("exhausted needs k_reached >= 1 and its standard note")
            return cls(**common, k_reached=k_reached, assumption_note=note)
        raise ValueError(f"unknown outcome {d['outcome']!r}")


def _exhaustion_note(report: DependenceReport) -> str:
    """What an exhausted scan over the report's bases does and does not show."""
    if report.dependent_pairs:
        note = (
            "budget exhausted; the target passes the power criterion of every "
            "dependent pair of the bases, so exhaustion is inconclusive, not a "
            "certificate of non-attainability"
        )
        if len(report.bases) == 2:
            note += (
                "; the anchored scan of a dependent pair is periodic, so retry "
                "from the other anchor"
            )
        return note
    if len(report.bases) == 2:
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


def _scan_anchor(
    bases: tuple[int, ...], target: tuple[int, ...], anchor: int, budget: int
) -> tuple[int, int] | None:
    """Scan x_k = target[anchor] * bases[anchor]**k for k = 0..budget.

    Returns (x, k) for the first k whose candidate matches every
    non-anchor digit.  A mantissa cursor reads each other base's digit of
    x_k from fixed-point bounds, so a step costs O(1) operations on small
    integers however many bits x_k has; x_k itself is built only for the
    hit.  Each candidate stops at the first base whose digit misses.
    """
    others = [i for i in range(len(bases)) if i != anchor]
    cursor = _MantissaCursor([bases[i] for i in others], target[anchor], bases[anchor])
    wanted = list(enumerate(target[i] for i in others))
    for k in range(budget + 1):
        for i, j in wanted:
            if cursor.digit(i, k) != j:
                break
        else:
            return target[anchor] * bases[anchor] ** k, k
    return None


def find_witness(query: WitnessQuery, *, budget_cap: int = DEFAULT_SCAN_CAP) -> WitnessResult:
    """Find x with the requested joint digits, or certify why not / give up.

    A budget above ``budget_cap`` is refused before any work: the scan takes
    up to budget + 1 steps per anchor, and the x it returns (like the exact
    mantissa of a rare fallback) has up to budget * log2(b) bits.  Stage 1
    rejects targets excluded by any dependent pair of the bases (provable,
    budget-independent).  Stage 2 runs the anchored scan from
    query.anchor; stage 3 retries the remaining anchors.  Among anchors
    tried, the first (anchor order, then k) hit wins, deterministically.

    >>> find_witness(WitnessQuery(bases=(3, 10), target=(2, 9))).x
    9565938
    >>> find_witness(WitnessQuery(bases=(4, 8), target=(2, 3))).outcome
    'not_attainable'
    """
    if query.budget > budget_cap:
        raise ResourceLimitError(f"budget {query.budget} exceeds cap {budget_cap}")
    bases, target = query.bases, query.target
    report = pairwise_report(bases)
    for i, j, dep in report.dependent_pairs:
        verdict = attainable_by_power_criterion(dep, target[i], target[j])
        if not verdict.attainable:
            return WitnessResult(
                outcome=NOT_ATTAINABLE,
                bases=bases,
                target=target,
                certificate=verdict,
                obstruction=(i, j),
            )
    anchors = [query.anchor]
    if query.retry_other_anchors:
        anchors += [i for i in range(len(bases)) if i != query.anchor]
    for anchor in anchors:
        found = _scan_anchor(bases, target, anchor, query.budget)
        if found is not None:
            x, k = found
            # independent re-check by the from-scratch route; survives python -O
            if leading_digit_tuple(x, bases) != target:
                raise RuntimeError(f"anchored scan returned a non-witness x = {x}")
            return WitnessResult(
                outcome=FOUND,
                bases=bases,
                target=target,
                x=x,
                anchor_index=anchor,
                k=k,
            )
    return WitnessResult(
        outcome=EXHAUSTED,
        bases=bases,
        target=target,
        k_reached=query.budget,
        assumption_note=_exhaustion_note(report),
    )


def verify_witness(x, bases: Iterable[int], target: Iterable[int]) -> bool:
    """True iff the joint digits of x equal the target; pure recomputation."""
    bs = check_bases(bases)
    tgt = tuple(target)
    if len(tgt) != len(bs):
        return False
    return leading_digit_tuple(x, bs) == tgt


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
    if _check_count("x_max", x_max) > cap:
        raise ResourceLimitError(f"x_max {x_max} exceeds scan cap {cap}")
    return frozenset(digits for _, _, digits in digit_runs(bases, x_max))
