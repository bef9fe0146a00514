"""Exact image of the joint leading-digit map for a dependent base pair.

For dependent bases b1 = a**e1, b2 = a**e2 (gcd(e1,e2) = 1) a digit pair
(j1, j2) is attainable by some x > 0 exactly when an integer c exists with

    j1 / (j2 + 1)  <  a**c  <  (j1 + 1) / j2.

a**c rises with c, so the criterion holds for some c iff it holds for the
least c with a**c > j1/(j2+1), and that c is the smallest certificate.
Along a row j1 that c falls as j2 rises and certifies a prefix of its j2
range, so ``image_exact`` cuts each row into a few intervals by integer
divisions, O(b1 * window), and its JSON is written with one join per
interval.
The module independently tabulates the whole image through the combined
base b = b1**e2 = b2**e1: the joint digit pair of x is a function of the
single base-b leading digit of x.  The two routes must agree cell for
cell; tests hold them to that.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator

from .dependence import DependencePair, pair_dependence
from .digits import (
    DEFAULT_ENUMERATION_CAP,
    check_base,
    check_digit,
    digit_runs,
)
from .errors import IndependentBasesError, ResourceLimitError

__all__ = [
    "AttainabilityVerdict",
    "JointTable",
    "ImageReport",
    "power_criterion_holds",
    "scan_window",
    "attainable_by_power_criterion",
    "joint_table",
    "image_via_table",
    "image_exact",
]


def power_criterion_holds(a: int, c: int, j1: int, j2: int) -> bool:
    """Exact test of j1/(j2+1) < a**c < (j1+1)/j2.

    a**c is P/Q with (P, Q) = (a**c, 1) for c >= 0 and (1, a**-c)
    otherwise; both strict inequalities become integer cross
    multiplications.
    """
    if c >= 0:
        P, Q = a**c, 1
    else:
        P, Q = 1, a**-c
    return j1 * Q < P * (j2 + 1) and P * j2 < (j1 + 1) * Q


def scan_window(dep: DependencePair) -> tuple[int, int]:
    """Inclusive c-window that holds every least power, with one unit of slack.

    1/b2 <= j1/(j2+1) and j1/(j2+1) < b1, so the least c with
    a**c > j1/(j2+1) lies in [1 - e2, e1]; the endpoints -(e2 + 1) and
    e1 + 1 themselves provably fail the criterion, which the tests re-verify.
    """
    return -(dep.e2 + 1), dep.e1 + 1


@dataclass(frozen=True)
class AttainabilityVerdict:
    """Outcome of the power-interval criterion for one digit pair.

    If attainable, ``certificate`` is the smallest integer c satisfying the
    criterion: the least c with a**c > j1/(j2+1).  Otherwise certificate is
    None and no integer satisfies it; ``scan_range`` (inclusive) is a window
    whose endpoints provably fail, so a scan of it re-checks the verdict.
    """

    pair: tuple[int, int]
    attainable: bool
    certificate: int | None
    scan_range: tuple[int, int] | None

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "attainable": self.attainable,
            "certificate_c": self.certificate,
            "scan_range": list(self.scan_range) if self.scan_range else None,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AttainabilityVerdict":
        """Parse a verdict, raising ValueError on any field of the wrong shape.

        The pair is two ints >= 1; scan_range is None or two ints lo < hi; the
        certificate is an int inside scan_range exactly when the pair is
        attainable.  No scan_range means an attainable density verdict, which
        carries no certificate.
        """
        pair, attainable, c = d["pair"], d["attainable"], d["certificate_c"]
        sr = d.get("scan_range")
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(j) is int and j >= 1 for j in pair)):
            raise ValueError(f"pair must be two ints >= 1, got {pair!r}")
        if type(attainable) is not bool:
            raise ValueError(f"attainable must be a bool, got {attainable!r}")
        if sr is not None and not (isinstance(sr, (list, tuple)) and len(sr) == 2
                                   and all(type(e) is int for e in sr) and sr[0] < sr[1]):
            raise ValueError(f"scan_range must be None or two ints lo < hi, got {sr!r}")
        if sr is None:
            consistent = attainable and c is None
        elif attainable:
            consistent = type(c) is int and sr[0] <= c <= sr[1]
        else:
            consistent = c is None
        if not consistent:
            raise ValueError(
                f"certificate {c!r} does not fit attainable={attainable} and scan_range {sr!r}"
            )
        return cls(pair=tuple(pair), attainable=attainable, certificate=c,
                   scan_range=tuple(sr) if sr else None)


def _row_intervals(dep: DependencePair, j1: int, end: int) -> tuple[tuple, ...]:
    """Row j1 as intervals (j2_start, j2_stop, c or None) tiling j2 = 1..end-1.

    a**c = P/Q, the least power above j1/(j2+1), does not rise with j2 and
    stays least while a**(c-1) <= j1/(j2+1), i.e. j2 < a*j1*Q // P.  Inside
    one c the pair is attainable iff P*j2 < (j1+1)*Q, i.e. j2 <
    ((j1+1)*Q - 1)//P + 1.  From the top of scan_window the walk passes each
    c once: O(window) divisions, at most 2 * (window + 1) intervals.
    """
    a, j2 = dep.a, 1
    c = scan_window(dep)[1]
    P, Q, row = a**c, 1, []
    while j2 < end:
        stop = min(a * j1 * Q // P, end)  # c is not least at j2 if stop <= j2
        cut = max(j2, min(((j1 + 1) * Q - 1) // P + 1, stop))
        if cut > j2:
            row.append((j2, cut, c))
        if stop > cut:
            row.append((cut, stop, None))
        j2 = max(j2, stop)
        P, Q, c = (P // a, Q, c - 1) if c > 0 else (P, Q * a, c - 1)
    return tuple(row)


def attainable_by_power_criterion(
    dep: DependencePair, j1: int, j2: int
) -> AttainabilityVerdict:
    """Decide whether (j1, j2) is attainable for the dependent pair.

    The pair is attainable iff the least power a**c above j1/(j2+1) is also
    below (j1+1)/j2; the last interval of row j1 up to j2 carries that c.

    >>> dep = pair_dependence(4, 8)
    >>> attainable_by_power_criterion(dep, 2, 3).attainable
    False
    >>> attainable_by_power_criterion(dep, 2, 1).certificate
    1
    """
    check_digit(j1, dep.base1)
    check_digit(j2, dep.base2)
    c = _row_intervals(dep, j1, j2 + 1)[-1][2]
    return AttainabilityVerdict(
        pair=(j1, j2), attainable=c is not None, certificate=c, scan_range=scan_window(dep)
    )


def _joined(prefix: str, items: list[str], suffix: str) -> str:
    """prefix + item + suffix for every item, joined by ", ", in one C-level join."""
    return prefix + (suffix + ", " + prefix).join(items) + suffix


def _spans(keys: list[tuple[int, int]], n_major: int, n_minor: int):
    """Walk (major, minor) over 1..n_major-1 x 1..n_minor-1 in sorted order.

    ``keys`` are the present pairs, sorted.  Yields (major, lo, hi, True)
    for each present pair (hi = lo + 1) and (major, lo, hi, False) for each
    maximal span of absent minors lo..hi-1 between them.
    """
    keys = iter(keys)
    key = next(keys, None)
    for major in range(1, n_major):
        lo = 1
        while key is not None and key[0] == major:
            if key[1] > lo:
                yield major, lo, key[1], False
            yield major, key[1], key[1] + 1, True
            lo = key[1] + 1
            key = next(keys, None)
        if lo < n_minor:
            yield major, lo, n_minor, False


@dataclass(frozen=True)
class JointTable:
    """Joint digit pair as a function of the combined-base leading digit.

    Every x whose leading digit in the combined base b = base1**e2 =
    base2**e1 is D has the digit pair (j1, j2) of the integer D itself.
    ``runs`` holds the maximal runs (start, stop, (j1, j2)) of that pair
    over D = 1..b-1, ascending and tiling the range.  Digit pairs in no run
    are exactly the pairs outside the image of the joint digit map.
    """

    dep: DependencePair
    combined_base: int
    runs: tuple[tuple[int, int, tuple[int, int]], ...]

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        """The digit pair of every D = 1..b-1 in order (O(b); expands runs)."""
        return tuple(chain.from_iterable(repeat(p, t - s) for s, t, p in self.runs))

    def cell(self, D: int) -> tuple[int, int]:
        if not 1 <= D <= self.combined_base - 1:
            raise ValueError(
                f"combined-base digit must be in 1..{self.combined_base - 1}, got {D}"
            )
        return self.runs[bisect_right(self.runs, D, key=lambda run: run[0]) - 1][2]

    def image(self) -> frozenset[tuple[int, int]]:
        return frozenset(p for _, _, p in self.runs)

    def runs_by_pair(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Runs [start, stop) of every digit pair, j2-major; [] if excluded."""
        b1, b2 = self.dep.base1, self.dep.base2
        out = {(j1, j2): [] for j2 in range(1, b2) for j1 in range(1, b1)}
        for start, stop, pair in self.runs:
            out[pair].append((start, stop))
        return out

    def excluded(self) -> list[tuple[int, int]]:
        """The digit pairs outside the image, sorted."""
        image, b1, b2 = self.image(), self.dep.base1, self.dep.base2
        return [(j1, j2) for j1 in range(1, b1) for j2 in range(1, b2) if (j1, j2) not in image]

    def member_runs(self, j1: int, j2: int) -> list[tuple[int, int]]:
        """The maximal runs [start, stop) of digits mapping to (j1, j2)."""
        check_digit(j1, self.dep.base1)
        check_digit(j2, self.dep.base2)
        return [(start, stop) for start, stop, pair in self.runs if pair == (j1, j2)]

    def to_json_text(self) -> str:
        """The table's JSON: ``bases``, ``combined_base``, ``dependence``, the
        ``cells`` {j1, j2, runs} j2-major (runs [] if excluded) and the sorted
        ``excluded`` pairs, as one sorted-key line of ``json.dumps``.

        Written straight from the runs: each cell with runs is one string,
        each span of empty cells along a j2 row one join.
        """
        b1, b2 = self.dep.base1, self.dep.base2
        runs_of: dict[tuple[int, int], list[str]] = {}
        for start, stop, (j1, j2) in self.runs:
            runs_of.setdefault((j2, j1), []).append(f"[{start}, {stop}]")
        j1s, j2s = list(map(str, range(b1))), list(map(str, range(b2)))  # str(j) at index j
        cells = []
        for j2, lo, hi, hit in _spans(sorted(runs_of), b2, b1):
            if hit:
                cells.append(f'{{"j1": {lo}, "j2": {j2}, "runs": [{", ".join(runs_of[j2, lo])}]}}')
            else:
                cells.append(_joined('{"j1": ', j1s[lo:hi], f', "j2": {j2}, "runs": []}}'))
        excluded = [_joined(f"[{j1}, ", j2s[lo:hi], "]")
                    for j1, lo, hi, hit in _spans(sorted((j1, j2) for j2, j1 in runs_of), b1, b2)
                    if not hit]
        return (f'{{"bases": [{b1}, {b2}], "cells": [{", ".join(cells)}], '
                f'"combined_base": {self.combined_base}, '
                f'"dependence": {json.dumps(self.dep.to_json_dict(), sort_keys=True)}, '
                f'"excluded": [{", ".join(excluded)}]}}')

    def to_json_dict(self) -> dict:
        """The parsed form of ``to_json_text``."""
        return json.loads(self.to_json_text())

    @classmethod
    def from_json_dict(cls, d: dict) -> "JointTable":
        """Rebuild a table from ``dependence``; d must equal its JSON exactly.

        Sizes are checked first, the combined base against the cap before it
        is computed, so allocation stays bounded by the payload's length.
        """
        fields = d["dependence"]
        # the cap refuses a huge power before the certificate's own check builds it
        b = _combined_base(DependencePair(fields["a"], fields["e1"], fields["e2"]),
                           DEFAULT_ENUMERATION_CAP)
        dep = DependencePair.from_json_dict(fields)
        if d["combined_base"] != b or len(d["cells"]) != (dep.base1 - 1) * (dep.base2 - 1):
            raise ValueError("payload sizes do not match its dependence pair")
        table = joint_table(dep)
        if d != table.to_json_dict():
            raise ValueError("payload is not the joint table of its dependence pair")
        return table


def _combined_base(dep: DependencePair, cap: int) -> int:
    """a**(e1*e2), refused past cap before it is computed.

    a**e >= 2**(e * (bit_length(a) - 1)) bounds its size from e alone.
    """
    e = dep.e1 * dep.e2
    if e * (dep.a.bit_length() - 1) >= cap.bit_length() or dep.a**e > cap:
        raise ResourceLimitError(f"combined base {dep.a}**{e} exceeds enumeration cap {cap}")
    return dep.a**e


def joint_table(
    dep: DependencePair, cap: int = DEFAULT_ENUMERATION_CAP
) -> JointTable:
    """Tabulate the joint digit pair over all combined-base digits, as runs.

    D < b = base1**e2 = base2**e1, so the digit pair of D is the leading
    digit pair of the integer D, and the table is digit_runs over 1..b-1.

    >>> t = joint_table(pair_dependence(4, 8))
    >>> t.cell(9), t.cell(1), t.cell(48)
    ((2, 1), (1, 1), (3, 6))
    """
    b = _combined_base(dep, cap)
    runs = tuple(digit_runs((dep.base1, dep.base2), b - 1))
    return JointTable(dep=dep, combined_base=b, runs=runs)


def image_via_table(
    dep: DependencePair, cap: int = DEFAULT_ENUMERATION_CAP
) -> frozenset[tuple[int, int]]:
    """Attainable digit pairs read off the combined-base table.

    Independent of the power-interval route; used as its cross-check.
    """
    return joint_table(dep, cap=cap).image()


@dataclass(frozen=True)
class ImageReport:
    """Classification of every digit pair of (base1, base2), row by row.

    ``rows[j1 - 1]`` tiles j2 = 1..base2-1 with intervals (j2_start,
    j2_stop, c): c certifies every pair of the interval, or is None if they
    are excluded.  ``dependence`` is None for independent bases, whose joint
    digit map is surjective (density of the log orbit on the torus): each
    row is then one interval certified by the string "density".
    """

    bases: tuple[int, int]
    dependence: DependencePair | None
    rows: tuple[tuple[tuple[int, int, int | str | None], ...], ...]

    def _intervals(self):
        """(j1, j2_start, j2_stop, c) of every interval, j1-major, j2 ascending."""
        return ((j1, *interval) for j1, row in enumerate(self.rows, 1) for interval in row)

    @property
    def verdicts(self) -> tuple[AttainabilityVerdict, ...]:
        """One verdict per pair, j1-major.

        Built from the rows at every read, which costs O(b1 * b2): read it
        once and keep the tuple rather than indexing ``report.verdicts[i]``
        in a loop.
        """
        window = scan_window(self.dependence) if self.dependence else None
        return tuple(
            AttainabilityVerdict((j1, j2), c is not None, c if window else None, window)
            for j1, start, stop, c in self._intervals() for j2 in range(start, stop)
        )

    def _pairs(self, attainable: bool) -> Iterator[tuple[int, int]]:
        """The pairs with that verdict, j1-major with j2 ascending, i.e. sorted."""
        return ((j1, j2) for j1, start, stop, c in self._intervals()
                if (c is not None) is attainable for j2 in range(start, stop))

    @property
    def attainable(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._pairs(True))

    @property
    def excluded(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._pairs(False))

    @property
    def counts(self) -> tuple[int, int]:
        exc = sum(stop - start for _, start, stop, c in self._intervals() if c is None)
        return (self.bases[0] - 1) * (self.bases[1] - 1) - exc, exc

    def certificate_for(self, j1: int, j2: int) -> int | None:
        if not (1 <= j1 < self.bases[0] and 1 <= j2 < self.bases[1]):
            raise ValueError(f"no verdict for pair {(j1, j2)}")
        row = self.rows[j1 - 1]
        return row[bisect_right(row, j2, key=lambda iv: iv[0]) - 1][2] if self.dependence else None

    def to_json_text(self) -> str:
        """The report's JSON: ``bases``, ``dependence``, the two counts, one
        {pair, attainable, certificate_c} per pair j1-major and the sorted
        ``excluded`` pairs, as one sorted-key line of ``json.dumps``.

        Written straight from the rows: the pairs of one interval differ
        only in j2, so each interval is one join, O(b1 * window) Python
        steps plus the bytes.
        """
        b1, b2 = self.bases
        j2s = list(map(str, range(b2)))  # str(j2) at index j2
        lead = {c: f'{{"attainable": {json.dumps(c is not None)}, '
                   f'"certificate_c": {json.dumps(c)}, "pair": ['
                for c in {c for row in self.rows for _, _, c in row}}
        pairs, excluded, n_excluded = [], [], 0
        for j1, start, stop, c in self._intervals():
            pairs.append(_joined(f"{lead[c]}{j1}, ", j2s[start:stop], "]}"))
            if c is None:
                excluded.append(_joined(f"[{j1}, ", j2s[start:stop], "]"))
                n_excluded += stop - start
        dependence = self.dependence.to_json_dict() if self.dependence else None
        return (f'{{"attainable_count": {(b1 - 1) * (b2 - 1) - n_excluded}, '
                f'"bases": [{b1}, {b2}], '
                f'"dependence": {json.dumps(dependence, sort_keys=True)}, '
                f'"excluded": [{", ".join(excluded)}], "excluded_count": {n_excluded}, '
                f'"pairs": [{", ".join(pairs)}]}}')

    def to_json_dict(self) -> dict:
        """The parsed form of ``to_json_text``."""
        return json.loads(self.to_json_text())

    @classmethod
    def from_json_dict(cls, d: dict) -> "ImageReport":
        """Rebuild the report of ``bases`` (pair count capped first); d must equal its JSON."""
        b1, b2 = d["bases"]
        _check_pair_count(check_base(b1), check_base(b2))
        report = image_exact(b1, b2, allow_independent=d["dependence"] is None)
        if d != report.to_json_dict():
            raise ValueError("payload is not the image report of its bases")
        return report


def _check_pair_count(b1: int, b2: int) -> None:
    n, cap = (b1 - 1) * (b2 - 1), DEFAULT_ENUMERATION_CAP
    if n > cap:
        raise ResourceLimitError(f"{n} digit pairs exceed enumeration cap {cap}")


def image_exact(
    b1: int, b2: int, allow_independent: bool = False
) -> ImageReport:
    """Classify every (j1, j2) for the pair (b1, b2) via the power criterion.

    For independent bases the image is the whole codomain; that case is an
    IndependentBasesError unless allow_independent is set, in which case
    the report marks every pair attainable "by density" (no integer
    certificate exists or is needed).  Past DEFAULT_ENUMERATION_CAP pairs it
    refuses before any row is built.  The rows cost O(b1 * window) integer
    divisions whatever base2 is, and so does the Python work of writing
    them out as JSON; only the bytes of that output grow as b1 * b2.

    >>> sorted(image_exact(4, 8).excluded)
    [(2, 3), (2, 6), (2, 7), (3, 2), (3, 4), (3, 5)]
    """
    check_base(b1)
    check_base(b2)
    dep = pair_dependence(b1, b2)
    if dep is None and not allow_independent:
        raise IndependentBasesError(
            f"bases {b1} and {b2} are multiplicatively independent; the joint "
            "digit map is surjective, so the exact image is trivially the whole "
            "codomain (pass allow_independent=True for the explicit report)"
        )
    _check_pair_count(b1, b2)
    if dep is None:
        rows = (((1, b2, "density"),),) * (b1 - 1)
    else:
        rows = tuple(_row_intervals(dep, j1, b2) for j1 in range(1, b1))
    return ImageReport(bases=(b1, b2), dependence=dep, rows=rows)
