"""Exact image of the joint leading-digit map for a dependent base pair.

For dependent bases b1 = a**e1, b2 = a**e2 (gcd(e1,e2) = 1) a digit pair
(j1, j2) is attainable by some x > 0 exactly when an integer c exists with

    j1 / (j2 + 1)  <  a**c  <  (j1 + 1) / j2.

a**c rises with c, so the criterion holds for some c iff it holds for the
least c with a**c > j1/(j2+1), and that c is the smallest certificate.
Along a row j1 that c falls as j2 rises and certifies a prefix of its j2
range, so ``image_exact`` cuts each row into a few intervals by integer
divisions from the row's least power, O(b1 * e2), and its JSON is written
with one join per interval.
The module independently tabulates the whole image through the combined
base b = b1**e2 = b2**e1: the joint digit pair of x is a function of the
single base-b leading digit of x.  The two routes must agree cell for
cell; tests hold them to that.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from itertools import chain, groupby, repeat
from operator import index, itemgetter

from .dependence import DependencePair, pair_dependence
from .digits import (
    DEFAULT_ENUMERATION_CAP,
    _split,
    check_base,
    check_digit,
    digit_runs,
    digit_set_ranges,
)
from .errors import IndependentBasesError, _Record, _check_cap, _check_power, _json_reader

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

    1/b2 <= j1/(j2+1) and j1/(j2+1) < b1, so the least c with a**c >
    j1/(j2+1) lies in [1 - e2, e1], and the endpoints provably fail the
    criterion.  Only a verdict's reported ``scan_range``; nothing scans it.
    """
    return -(dep.e2 + 1), dep.e1 + 1


class AttainabilityVerdict(_Record):
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

    @_json_reader
    def from_json_dict(cls, d: dict) -> "AttainabilityVerdict":
        """Rebuild a verdict whose fields fit together.

        The pair is two ints >= 1; scan_range is None or two ints lo < hi; the
        certificate is an int inside scan_range exactly when the pair is
        attainable.  No scan_range means an attainable density verdict, which
        carries no certificate.
        """
        pair, attainable = tuple(map(index, d["pair"])), bool(d["attainable"])
        c = None if d["certificate_c"] is None else index(d["certificate_c"])
        sr = None if d["scan_range"] is None else tuple(map(index, d["scan_range"]))
        if not (len(pair) == 2 and min(pair) >= 1):
            raise ValueError(f"pair must be two ints >= 1, got {pair!r}")
        if sr is not None and not (len(sr) == 2 and sr[0] < sr[1]):
            raise ValueError(f"scan_range must be None or two ints lo < hi, got {sr!r}")
        if sr is None:
            consistent = attainable and c is None
        elif attainable:
            consistent = c is not None and sr[0] <= c <= sr[1]
        else:
            consistent = c is None
        if not consistent:
            raise ValueError(
                f"certificate {c!r} does not fit attainable={attainable} and scan_range {sr!r}"
            )
        return cls(pair=pair, attainable=attainable, certificate=c, scan_range=sr)


def _row_intervals(dep: DependencePair, j1: int, start: int, end: int) -> tuple[tuple, ...]:
    """Row j1 as intervals (j2_start, j2_stop, c or None) tiling j2 = start..end-1.

    a**c = P/Q, the least power above j1/(j2+1), does not rise with j2 and
    stays least while a**(c-1) <= j1/(j2+1), i.e. j2 < a*j1*Q // P; in one c
    the pair is attainable iff P*j2 < (j1+1)*Q, i.e. j2 < ((j1+1)*Q - 1)//P + 1.
    One _split gives the least c at start, and each pass takes one c, then
    c - 1: from start = 1, at most e2 + 1 passes of two divisions, 2 * (e2 + 1) intervals.
    """
    a, j2, row = dep.a, start, []
    c = _split(j1, start + 1, a)[0] + 1  # the least c with a**c > j1/(start+1)
    P, Q = (a**c, 1) if c >= 0 else (1, a**-c)
    while j2 < end:
        stop = min(a * j1 * Q // P, end)
        cut = max(j2, min(((j1 + 1) * Q - 1) // P + 1, stop))
        if cut > j2:
            row.append((j2, cut, c))
        if stop > cut:
            row.append((cut, stop, None))
        j2 = stop
        P, Q, c = (P // a, Q, c - 1) if c > 0 else (P, Q * a, c - 1)
    return tuple(row)


def attainable_by_power_criterion(
    dep: DependencePair, j1: int, j2: int
) -> AttainabilityVerdict:
    """Decide whether (j1, j2) is attainable for the dependent pair.

    The pair is attainable iff the least power a**c above j1/(j2+1) is also
    below (j1+1)/j2: one _split and the one interval of row j1 at j2, O(log |c|).

    >>> dep = pair_dependence(4, 8)
    >>> attainable_by_power_criterion(dep, 2, 3).attainable
    False
    >>> attainable_by_power_criterion(dep, 2, 1).certificate
    1
    """
    check_digit(j1, dep.base1)
    check_digit(j2, dep.base2)
    c = _row_intervals(dep, j1, j2, j2 + 1)[0][2]
    return AttainabilityVerdict(
        pair=(j1, j2), attainable=c is not None, certificate=c, scan_range=scan_window(dep)
    )


def _joined(prefix: str, items: Iterable[str], suffix: str, sep: str = ", ") -> str:
    """prefix + item + suffix for every item, joined by sep, in one C-level join."""
    return prefix + (suffix + sep + prefix).join(items) + suffix


def _chunks(items: Iterable[str], sep: str = ", ") -> Iterator[str]:
    """The items joined by sep, in parts of 64 kB or more (the last may be
    shorter): a list written out without ever being held whole."""
    part, size = [], 0
    for item in items:
        part.append(item)
        size += len(item)
        if size >= 1 << 16:
            yield sep.join(part)
            part, size = [""], 0  # the next part starts with sep
    if size:
        yield sep.join(part)


def _spans(keys, n_major: int, n_minor: int):
    """Walk (major, minor) over 1..n_major-1 x 1..n_minor-1 in sorted order.

    ``keys`` are the present pairs, sorted, each (major, minor, ...).  Yields
    (major, lo, hi, key) for each present key (hi = lo + 1) and (major, lo,
    hi, None) for each maximal span of absent minors lo..hi-1 between them.
    """
    keys = iter(keys)
    key = next(keys, None)
    for major in range(1, n_major):
        lo = 1
        while key is not None and key[0] == major:
            if key[1] > lo:
                yield major, lo, key[1], None
            yield major, key[1], key[1] + 1, key
            lo = key[1] + 1
            key = next(keys, None)
        if lo < n_minor:
            yield major, lo, n_minor, None


def _gaps(pairs, dep: DependencePair) -> Iterator[tuple[int, int, int]]:
    """(j1, lo, hi) of each maximal span of excluded pairs (j1, lo..hi-1), sorted,
    from the image's ``pairs`` in O(len(pairs) + base1) steps."""
    return ((j1, lo, hi) for j1, lo, hi, hit in _spans(sorted(pairs), dep.base1, dep.base2)
            if not hit)


class JointTable(_Record):
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
        check_digit(D, self.combined_base)
        return self.runs[bisect_right(self.runs, D, key=lambda run: run[0]) - 1][2]

    def image(self) -> frozenset[tuple[int, int]]:
        return frozenset(p for _, _, p in self.runs)

    def _walk(self, fmt) -> Iterator[tuple]:
        """(j2, j1, fmt(runs)) for each pair (j1, j2) in the image, j2-major, where
        runs iterates its (start, stop, pair) ascending: one stable sort of ``runs``."""
        by_cell = groupby(sorted(self.runs, key=lambda run: run[2][::-1]), itemgetter(2))
        return ((j2, j1, fmt(runs)) for (j1, j2), runs in by_cell)

    def runs_by_pair(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """The runs [start, stop) of each pair in the image, ascending, keyed
        j2-major: an excluded pair has no key, so the dict is O(runs)."""
        return {(j1, j2): runs
                for j2, j1, runs in self._walk(lambda runs: [(s, t) for s, t, _ in runs])}

    def excluded(self) -> list[tuple[int, int]]:
        """The digit pairs outside the image, sorted."""
        return [(j1, j2) for j1, lo, hi in _gaps(self.image(), self.dep)
                for j2 in range(lo, hi)]

    def member_runs(self, j1: int, j2: int) -> list[tuple[int, int]]:
        """The maximal runs [start, stop) of digits mapping to (j1, j2), ascending, [] for a
        pair outside the image, in O(e1 * e2): the nonempty intersections of the digit
        sets digit_set_ranges(base1, e2, j1) and (base2, e1, j2), whose ranges never touch."""
        dep = self.dep
        return [(max(s1, s2), min(t1, t2)) for s1, t1 in digit_set_ranges(dep.base1, dep.e2, j1)
                for s2, t2 in digit_set_ranges(dep.base2, dep.e1, j2) if max(s1, s2) < min(t1, t2)]

    def iter_json_text(self) -> Iterator[str]:
        """The table's JSON: ``bases``, ``combined_base``, ``dependence``, the
        ``cells`` {j1, j2, runs} j2-major (runs [] if excluded) and the sorted
        ``excluded`` pairs, as one sorted-key line of ``json.dumps``.

        Written in parts from the cells' walk and the excluded gaps, one join
        per span: O(runs + b1 + b2) Python steps plus the bytes.
        """
        b1, b2 = self.dep.base1, self.dep.base2
        dependence = self.dep.to_json_text()  # the part that may refuse, before any chunk
        keys = self._walk(lambda runs: ", ".join([f"[{s}, {t}]" for s, t, _ in runs]))
        j1s, j2s = list(map(str, range(b1))), list(map(str, range(b2)))  # str(j) at index j
        yield f'{{"bases": [{b1}, {b2}], "cells": ['
        yield from _chunks(f'{{"j1": {lo}, "j2": {j2}, "runs": [{key[2]}]}}' if key
                           else _joined('{"j1": ', j1s[lo:hi], f', "j2": {j2}, "runs": []}}')
                           for j2, lo, hi, key in _spans(keys, b2, b1))
        yield (f'], "combined_base": {self.combined_base}, '
               f'"dependence": {dependence}, "excluded": [')
        yield from _chunks(_joined(f"[{j1}, ", j2s[lo:hi], "]")
                           for j1, lo, hi in _gaps(self.image(), self.dep))
        yield "]}"

    def iter_text(self) -> Iterator[str]:
        """The table as text: a header line, a grid with a column per j1 and a
        row per j2 whose cells list each pair's runs of combined-base digits
        ("." for none), and the excluded pairs, written row by row and in parts.

        The grid holds one segment per pair in the image, never a cell per digit pair.
        """
        b1, b2, b = self.dep.base1, self.dep.base2, self.combined_base
        yield (f"bases ({b1},{b2})  combined base {b}"
               f"  [cells hold leading base-{b} digits; . = empty]\n")
        cells = list(self._walk(
            lambda runs: ",".join([str(s) if t == s + 1 else f"{s}-{t - 1}" for s, t, _ in runs])))
        # "." never outgrows a "j1=N" header, so the headers and the present
        # pairs' segments fix every width, and each row is written as it is built
        header = ["", *[f"j1={j1}" for j1 in range(1, b1)]]
        widths = [len(f"j2={b2 - 1}"), *map(len, header[1:])]
        for _, j1, segment in cells:
            widths[j1] = max(widths[j1], len(segment))
        yield "  ".join(cell.ljust(w) for cell, w in zip(header, widths)).rstrip() + "\n"
        dots = [".".ljust(w) for w in widths]  # a span of absent pairs is one slice
        for j2, spans in groupby(_spans(cells, b2, b1), lambda span: span[0]):
            row = chain.from_iterable([key[2].ljust(widths[lo])] if key else dots[lo:hi]
                                      for _, lo, hi, key in spans)
            yield "  ".join([f"j2={j2}".ljust(widths[0]), *row]).rstrip() + "\n"
        # one join per span of excluded pairs along a j1 row, written in parts
        gaps = _chunks((_joined(f"({j1},", map(str, range(lo, hi)), ")", sep=" ")
                        for j1, lo, hi in _gaps(self.image(), self.dep)), sep=" ")
        yield from chain(["excluded pairs: ", next(gaps, "none")], gaps, "\n")

    def to_json_dict(self) -> dict:
        """The parsed form of ``iter_json_text``."""
        return json.loads(self.to_json_text())

    @_json_reader
    def from_json_dict(cls, d: dict) -> "JointTable":
        """Rebuild a table from ``dependence``.

        Sizes are checked first, the combined base against the cap before it
        is computed, so allocation stays bounded by the payload's length.
        """
        fields = d["dependence"]
        dep = DependencePair(fields["a"], fields["e1"], fields["e2"])
        _check_power("combined base", dep.a, dep.e1 * dep.e2, DEFAULT_ENUMERATION_CAP)
        if len(d["cells"]) != (dep.base1 - 1) * (dep.base2 - 1):
            raise ValueError("payload sizes do not match its dependence pair")
        return joint_table(dep)


def joint_table(
    dep: DependencePair, cap: int = DEFAULT_ENUMERATION_CAP
) -> JointTable:
    """Tabulate the joint digit pair over all combined-base digits, as runs.

    D < b = base1**e2 = base2**e1, so the digit pair of D is the leading
    digit pair of the integer D, and the table is digit_runs over 1..b-1.
    A combined base past ``cap`` is refused, and so, as in image_exact, are
    more than DEFAULT_ENUMERATION_CAP digit pairs (base1 - 1) * (base2 - 1),
    whatever ``cap`` is: the table's cells are the digit pairs.

    >>> t = joint_table(pair_dependence(4, 8))
    >>> t.cell(9), t.cell(1), t.cell(48)
    ((2, 1), (1, 1), (3, 6))
    """
    b = _check_power("combined base", dep.a, dep.e1 * dep.e2, cap)
    _check_cap("digit pairs", (dep.base1 - 1) * (dep.base2 - 1), DEFAULT_ENUMERATION_CAP)
    runs = tuple(digit_runs((dep.base1, dep.base2), b - 1))
    return JointTable(dep=dep, combined_base=b, runs=runs)


def image_via_table(
    dep: DependencePair, cap: int = DEFAULT_ENUMERATION_CAP
) -> frozenset[tuple[int, int]]:
    """Attainable digit pairs read off the combined-base table.

    Independent of the power-interval route; used as its cross-check.
    """
    return joint_table(dep, cap=cap).image()


class ImageReport(_Record):
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
        exc = sum(stop - start for row in self.rows for start, stop, c in row if c is None)
        return (self.bases[0] - 1) * (self.bases[1] - 1) - exc, exc

    def certificate_for(self, j1: int, j2: int) -> int | None:
        check_digit(j1, self.bases[0])
        check_digit(j2, self.bases[1])
        row = self.rows[j1 - 1]
        return row[bisect_right(row, j2, key=lambda iv: iv[0]) - 1][2] if self.dependence else None

    def iter_json_text(self) -> Iterator[str]:
        """The report's JSON: ``bases``, ``dependence``, the two counts, one
        {pair, attainable, certificate_c} per pair j1-major and the sorted
        ``excluded`` pairs, as one sorted-key line of ``json.dumps``.

        Written in parts straight from the rows, one join per interval:
        O(b1 * e2) Python steps plus the bytes.
        """
        b1, b2 = self.bases
        j2s = list(map(str, range(b2)))  # str(j2) at index j2
        lead = {c: f'{{"attainable": {json.dumps(c is not None)}, '
                   f'"certificate_c": {json.dumps(c)}, "pair": ['
                for c in {c for row in self.rows for _, _, c in row}}
        att, exc = self.counts
        yield (f'{{"attainable_count": {att}, "bases": [{b1}, {b2}], "dependence": '
               f'{self.dependence.to_json_text() if self.dependence else "null"}, "excluded": [')
        yield from _chunks(_joined(f"[{j1}, ", j2s[start:stop], "]")
                           for j1, start, stop, c in self._intervals() if c is None)
        yield f'], "excluded_count": {exc}, "pairs": ['
        yield from _chunks(_joined(f"{lead[c]}{j1}, ", j2s[start:stop], "]}")
                           for j1, start, stop, c in self._intervals())
        yield "]}"

    def iter_text(self) -> Iterator[str]:
        """The report as text: the two counts, then a line per excluded pair,
        written in parts with one join per excluded interval."""
        b1, b2 = self.bases
        att, exc = self.counts
        yield f"bases {b1},{b2}: {att} attainable, {exc} excluded\n"
        j2s = list(map(str, range(b2)))  # str(j2) at index j2
        yield from _chunks((_joined(f"excluded: ({j1},", j2s[start:stop], ")\n", sep="")
                            for j1, row in enumerate(self.rows, 1)
                            for start, stop, c in row if c is None), sep="")

    def to_json_dict(self) -> dict:
        """The parsed form of ``iter_json_text``."""
        return json.loads(self.to_json_text())

    @_json_reader
    def from_json_dict(cls, d: dict) -> "ImageReport":
        """Rebuild the report of ``bases`` once its pair count passes the cap and ``pairs``."""
        b1, b2 = d["bases"]
        _check_cap("digit pairs", (check_base(b1) - 1) * (check_base(b2) - 1),
                   DEFAULT_ENUMERATION_CAP)
        if len(d["pairs"]) != (b1 - 1) * (b2 - 1):
            raise ValueError("payload sizes do not match its bases")
        return image_exact(b1, b2, allow_independent=d["dependence"] is None)


def image_exact(
    b1: int, b2: int, allow_independent: bool = False
) -> ImageReport:
    """Classify every (j1, j2) for the pair (b1, b2) via the power criterion.

    For independent bases the image is the whole codomain; that case is an
    IndependentBasesError unless allow_independent is set, in which case
    the report marks every pair attainable "by density" (no integer
    certificate exists or is needed).  Past DEFAULT_ENUMERATION_CAP pairs it
    refuses before any row is built.  Each row starts at its least power from
    one _split, so the rows cost O(b1 * e2) integer divisions, and so does the
    Python work of writing them out as JSON; only the bytes grow as b1 * b2.

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
    _check_cap("digit pairs", (b1 - 1) * (b2 - 1), DEFAULT_ENUMERATION_CAP)
    if dep is None:
        rows = (((1, b2, "density"),),) * (b1 - 1)
    else:
        rows = tuple(_row_intervals(dep, j1, 1, b2) for j1 in range(1, b1))
    return ImageReport(bases=(b1, b2), dependence=dep, rows=rows)
