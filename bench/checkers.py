"""Answer checkers that do not trust the timed route.

Every check here recomputes the answer with integer arithmetic written in
this file: leading digits, perfect-power roots, the power criterion, the
anchored witness walk and the integer-scan hit counts.  The only library
code used is ``from_json_dict``, because a JSON payload that does not
round-trip through it is itself a wrong answer.

``Checker.check(argv, out)`` returns None for an accepted answer and a
one-line reason otherwise.  It memoises the expensive recomputations (the
exact image of a pair, the witness walk of an anchor), so a query list that
repeats inputs is checked at the cost of its distinct inputs.
"""

from __future__ import annotations

import json
import math
import re
from itertools import product

# Above this combined base the excluded set is recomputed through the power
# criterion instead of an exhaustive scan of the combined-base digits.
EXHAUSTIVE_CAP = 1 << 18


class Rejected(Exception):
    """The answer under check is wrong; the message says why."""


def require(cond: bool, why: str) -> None:
    if not cond:
        raise Rejected(why)


# ---------------------------------------------------------------- arithmetic


def parse_rational(text: str) -> tuple[int, int]:
    num, _, den = text.strip().partition("/")
    return int(num), int(den) if den else 1


def _at_least_pow(p: int, q: int, b: int, k: int) -> bool:
    """p/q >= b**k, by cross multiplication."""
    return p >= q * b**k if k >= 0 else p * b**-k >= q


def order_of_magnitude(p: int, q: int, b: int) -> int:
    """The k with b**k <= p/q < b**(k+1)."""
    k = math.floor((p.bit_length() - q.bit_length()) / math.log2(b))
    while not _at_least_pow(p, q, b, k):
        k -= 1
    while _at_least_pow(p, q, b, k + 1):
        k += 1
    return k


def digit_holds(p: int, q: int, b: int, j: int) -> bool:
    """j * b**k <= p/q < (j+1) * b**k for the k that brackets p/q."""
    k = order_of_magnitude(p, q, b)
    if k >= 0:
        lo, hi = j * q * b**k, (j + 1) * q * b**k
        return lo <= p < hi
    return j * q <= p * b**-k < (j + 1) * q


def lead(x: int, b: int) -> int:
    """Leading digit of a positive integer."""
    pw = b ** order_of_magnitude(x, 1, b)
    return x // pw


def root_power(b: int) -> tuple[int, int]:
    """(r, f) with r**f == b and f maximal."""
    for f in range(b.bit_length(), 1, -1):
        r = round(b ** (1.0 / f))
        for cand in (r - 1, r, r + 1):
            if cand >= 2 and cand**f == b:
                return cand, f
    return b, 1


def dependence(b1: int, b2: int) -> tuple[int, int, int] | None:
    """(a, e1, e2) with b1 = a**e1, b2 = a**e2, gcd(e1, e2) = 1; or None."""
    r1, f1 = root_power(b1)
    r2, f2 = root_power(b2)
    if r1 != r2:
        return None
    g = math.gcd(f1, f2)
    return r1**g, f1 // g, f2 // g


def criterion(a: int, c: int, j1: int, j2: int) -> bool:
    """j1/(j2+1) < a**c < (j1+1)/j2."""
    P, Q = (a**c, 1) if c >= 0 else (1, a**-c)
    return j1 * Q < P * (j2 + 1) and P * j2 < (j1 + 1) * Q


def window_is_sufficient(a: int, b1: int, b2: int, lo: int, hi: int) -> bool:
    """Every c outside [lo, hi] fails the criterion for every digit pair.

    A power satisfying it lies strictly between 1/b2 and b1, so it suffices
    that a**-lo >= b2 and a**hi >= b1.
    """
    return lo <= 0 <= hi and a**-lo >= b2 and a**hi >= b1


def smallest_c(a: int, lo: int, hi: int, j1: int, j2: int) -> int | None:
    for c in range(lo, hi + 1):
        if criterion(a, c, j1, j2):
            return c
    return None


def codomain_size(bases) -> int:
    return math.prod(b - 1 for b in bases)


def scan_hits(bases: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """Digit-tuple counts of the integers 1..n, by merging digit runs.

    The digit of base b is constant on each [j * b**m, (j+1) * b**m), so
    the tuple is constant between consecutive breakpoints of all bases.
    """
    cuts = {1, n + 1}
    for b in bases:
        pw = 1
        while pw <= n:
            cuts.update(j * pw for j in range(1, b + 1) if j * pw <= n)
            pw *= b
    cuts = sorted(cuts)
    hits: dict[tuple[int, ...], int] = {}
    for start, stop in zip(cuts, cuts[1:]):
        tup = tuple(lead(start, b) for b in bases)
        hits[tup] = hits.get(tup, 0) + stop - start
    return hits


class WalkScan:
    """The anchored walk x_k = t * b**k, resumable to larger budgets."""

    def __init__(self, bases, target, anchor):
        self.bases, self.target, self.anchor = bases, target, anchor
        self.others = [i for i in range(len(bases)) if i != anchor]
        self.x = target[anchor]
        self.k = 0
        self.hit: int | None = None
        self.brackets = {}
        for i in self.others:
            b = bases[i]
            m = order_of_magnitude(self.x, 1, b)
            self.brackets[i] = [b**m, b ** (m + 1)]

    def first_hit(self, limit: int) -> int | None:
        """Smallest k <= limit whose x_k has the target digits, or None."""
        ba = self.bases[self.anchor]
        while self.hit is None and self.k <= limit:
            ok = True
            for i in self.others:
                br = self.brackets[i]
                while self.x >= br[1]:
                    br[0] = br[1]
                    br[1] *= self.bases[i]
                if self.x // br[0] != self.target[i]:
                    ok = False
                    break
            if ok:
                self.hit = self.k
            else:
                self.x *= ba
                self.k += 1
        return self.hit if self.hit is not None and self.hit <= limit else None


# --------------------------------------------------------------- the checker


def _options(argv: list[str]) -> tuple[str, dict[str, str]]:
    opts: dict[str, str] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if key in ("allow-trivial", "no-retry-anchors"):
            opts[key] = ""
            i += 1
        else:
            opts[key] = argv[i + 1]
            i += 2
    return argv[0], opts


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


DEFAULT_OUTPUT = {"digit": "text", "deps": "text", "table": "text",
                  "image": "json", "witness": "json", "coverage": "json"}


class Checker:
    def __init__(self):
        self._excluded: dict[tuple[int, int], frozenset] = {}
        self._cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._walks: dict[tuple, WalkScan] = {}

    def check(self, argv: list[str], out: str) -> str | None:
        command, opts = _options(argv)
        fmt = opts.get("output", DEFAULT_OUTPUT[command])
        try:
            if fmt == "json":
                payload = json.loads(out)
                require(out == json.dumps(payload, sort_keys=True) + "\n",
                        "JSON is not one sorted-key line")
                getattr(self, f"_{command}_json")(opts, payload)
                self._round_trip(command, payload)
            else:
                getattr(self, f"_{command}_{fmt}")(opts, out)
        except Rejected as exc:
            return f"{' '.join(argv)[:120]}: {exc}"
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"{' '.join(argv)[:120]}: malformed output ({exc!r})"
        return None

    # -- JSON round trip through the library's own parsers

    def _round_trip(self, command: str, payload: dict) -> None:
        import jointdigits

        if command == "table":
            # to_json_dict is O(cells * combined_base); compare the parsed
            # cells with the recomputed ones instead
            table = jointdigits.JointTable.from_json_dict(payload)
            b1, b2 = payload["bases"]
            require(table.dep.to_json_dict() == payload["dependence"]
                    and list(table.cells) == self.combined_cells(b1, b2),
                    "JointTable JSON does not round-trip")
            return
        kind = {"deps": jointdigits.DependenceReport, "image": jointdigits.ImageReport,
                "witness": jointdigits.WitnessResult,
                "coverage": jointdigits.CoverageReport}.get(command)
        if kind is not None:
            again = kind.from_json_dict(payload).to_json_dict()
            require(json.dumps(again, sort_keys=True) == json.dumps(payload, sort_keys=True),
                    f"{kind.__name__} JSON does not round-trip")

    # -- digit

    def _digit_value(self, opts, digit: int) -> None:
        p, q = parse_rational(opts["x"])
        b = int(opts["base"])
        require(1 <= digit < b and digit_holds(p, q, b, digit),
                f"digit {digit} fails j*b^k <= x < (j+1)*b^k")

    def _digit_text(self, opts, out: str) -> None:
        self._digit_value(opts, int(out))
        require(out == f"{int(out)}\n", "digit text is not one integer line")

    def _digit_json(self, opts, d: dict) -> None:
        require(set(d) == {"base", "x", "digit"}, "digit JSON keys")
        require(d["base"] == int(opts["base"]) and d["x"] == opts["x"].strip(), "echo")
        self._digit_value(opts, d["digit"])

    # -- deps

    @staticmethod
    def _dependent_pairs(bases):
        found = []
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                dep = dependence(bases[i], bases[j])
                if dep is not None:
                    found.append((i, j, dep))
        return found

    def _deps_text(self, opts, out: str) -> None:
        bases = _ints(opts["bases"])
        pairs = self._dependent_pairs(bases)
        lines = [f"{bases[i]} ~ {bases[j]}: dependent, a={a} e1={e1} e2={e2} "
                 f"combined_base={a ** (e1 * e2)}" for i, j, (a, e1, e2) in pairs]
        lines.append("all pairwise independent: " + ("no" if pairs else "yes"))
        require(out == "\n".join(lines) + "\n", "deps text differs from recomputation")

    def _deps_json(self, opts, d: dict) -> None:
        bases = _ints(opts["bases"])
        pairs = self._dependent_pairs(bases)
        want = [{"i": i, "j": j, "certificate": {"a": a, "e1": e1, "e2": e2,
                                                 "combined_base": a ** (e1 * e2)}}
                for i, j, (a, e1, e2) in pairs]
        require(d["bases"] == list(bases), "deps bases echo")
        require(d["dependent_pairs"] == want, "dependent pairs differ from recomputation")
        require(d["all_pairwise_independent"] is (not pairs), "independence flag")

    # -- image and table

    def combined_cells(self, b1: int, b2: int) -> list[tuple[int, int]]:
        """Digit pair of each combined-base digit D = 1..B-1, by direct scan."""
        key = (b1, b2)
        if key not in self._cells:
            a, e1, e2 = dependence(b1, b2)
            B = a ** (e1 * e2)
            require(B <= EXHAUSTIVE_CAP, f"combined base {B} too large to scan")
            self._cells[key] = [(lead(D, b1), lead(D, b2)) for D in range(1, B)]
        return self._cells[key]

    def excluded_pairs(self, b1: int, b2: int) -> frozenset:
        """The excluded digit pairs of a dependent pair, recomputed."""
        key = (b1, b2)
        if key not in self._excluded:
            a, e1, e2 = dependence(b1, b2)
            everything = set(product(range(1, b1), range(1, b2)))
            if a ** (e1 * e2) <= EXHAUSTIVE_CAP:
                # digits of x depend only on its base-B digit D in 1..B-1
                seen = set(self.combined_cells(b1, b2))
            else:
                lo, hi = -(e2 + 1), e1 + 1
                require(window_is_sufficient(a, b1, b2, lo, hi), "own window")
                seen = {(j1, j2) for j1, j2 in everything
                        if smallest_c(a, lo, hi, j1, j2) is not None}
            self._excluded[key] = frozenset(everything - seen)
        return self._excluded[key]

    def _dep_json(self, b1, b2, dep_json) -> tuple[int, int, int] | None:
        dep = dependence(b1, b2)
        if dep is None:
            require(dep_json is None, "dependence reported for independent bases")
            return None
        a, e1, e2 = dep
        require(dep_json == {"a": a, "e1": e1, "e2": e2, "combined_base": a ** (e1 * e2)},
                "dependence certificate differs from recomputation")
        return dep

    def _image_json(self, opts, d: dict) -> None:
        b1, b2 = _ints(opts["bases"])
        require(d["bases"] == [b1, b2], "image bases echo")
        dep = self._dep_json(b1, b2, d["dependence"])
        require(dep is not None or "allow-trivial" in opts, "independent without opt-in")
        excluded = self.excluded_pairs(b1, b2) if dep else frozenset()
        pairs = d["pairs"]
        require([tuple(p["pair"]) for p in pairs]
                == list(product(range(1, b1), range(1, b2))), "pair grid order")
        if dep:
            a, e1, e2 = dep
            lo = -(e2 + 1)
        for p in pairs:
            pair = tuple(p["pair"])
            require(p["attainable"] is (pair not in excluded), f"verdict for {pair}")
            if dep is None:
                require(p["certificate_c"] == "density", f"certificate for {pair}")
            elif p["attainable"]:
                c = p["certificate_c"]
                require(isinstance(c, int) and c == smallest_c(a, lo, c, *pair),
                        f"certificate c for {pair} is not the smallest power")
            else:
                require(p["certificate_c"] is None, f"certificate for excluded {pair}")
        require(d["excluded"] == sorted(list(p) for p in excluded), "excluded list")
        require(d["excluded_count"] == len(excluded)
                and d["attainable_count"] == len(pairs) - len(excluded), "counts")

    def _image_text(self, opts, out: str) -> None:
        b1, b2 = _ints(opts["bases"])
        dep = dependence(b1, b2)
        require(dep is not None or "allow-trivial" in opts, "independent without opt-in")
        excluded = sorted(self.excluded_pairs(b1, b2)) if dep else []
        total = (b1 - 1) * (b2 - 1)
        lines = [f"bases {b1},{b2}: {total - len(excluded)} attainable, "
                 f"{len(excluded)} excluded"]
        lines += [f"excluded: ({j1},{j2})" for j1, j2 in excluded]
        require(out == "\n".join(lines) + "\n", "image text differs from recomputation")

    def _check_cells(self, b1, b2, B, cells: dict) -> None:
        """Runs partition 1..B-1 and every member has the cell's digits."""
        own = self.combined_cells(b1, b2)
        covered = 0
        for pair, runs in cells.items():
            for start, stop in runs:
                require(1 <= start < stop <= B, f"run {start}-{stop} out of range")
                covered += stop - start
                require(all(own[D - 1] == pair for D in range(start, stop)),
                        f"run {start}-{stop} is not all in cell {pair}")
        require(covered == B - 1, "cell runs do not partition 1..B-1")
        excluded = {pair for pair, runs in cells.items() if not runs}
        require(excluded == self.excluded_pairs(b1, b2), "table excluded set")

    def _table_json(self, opts, d: dict) -> None:
        b1, b2 = _ints(opts["bases"])
        require(d["bases"] == [b1, b2], "table bases echo")
        a, e1, e2 = self._dep_json(b1, b2, d["dependence"])
        B = a ** (e1 * e2)
        require(d["combined_base"] == B, "combined base")
        require([(c["j1"], c["j2"]) for c in d["cells"]]
                == [(j1, j2) for j2 in range(1, b2) for j1 in range(1, b1)], "cell order")
        cells = {(c["j1"], c["j2"]): [tuple(r) for r in c["runs"]] for c in d["cells"]}
        self._check_cells(b1, b2, B, cells)
        require(d["excluded"] == sorted(list(p) for p, r in cells.items() if not r),
                "excluded list")

    def _table_text(self, opts, out: str) -> None:
        b1, b2 = _ints(opts["bases"])
        a, e1, e2 = dependence(b1, b2)
        B = a ** (e1 * e2)
        lines = out.splitlines()
        require(lines[0] == f"bases ({b1},{b2})  combined base {B}  "
                f"[cells hold leading base-{B} digits; . = empty]", "table header")
        require(lines[1].split() == [f"j1={j1}" for j1 in range(1, b1)], "column labels")
        require(len(lines) == b2 + 2, "row count")
        cells = {}
        for j2, line in enumerate(lines[2:-1], start=1):
            fields = line.split()
            require(fields[0] == f"j2={j2}" and len(fields) == b1, f"row {j2}")
            for j1, text in enumerate(fields[1:], start=1):
                runs = []
                if text != ".":
                    for seg in text.split(","):
                        first, _, last = seg.partition("-")
                        runs.append((int(first), int(last or first) + 1))
                cells[(j1, j2)] = runs
        self._check_cells(b1, b2, B, cells)
        excluded = sorted(p for p, r in cells.items() if not r)
        require(lines[-1] == "excluded pairs: " + (
            " ".join(f"({x},{y})" for x, y in excluded) if excluded else "none"),
            "excluded line")

    # -- witness

    def _witness_found(self, opts, bases, target, x, anchor, k) -> None:
        require(x > 0 and all(digit_holds(x, 1, b, j) for b, j in zip(bases, target)),
                "witness x does not have the target digits")
        require(0 <= k <= int(opts.get("budget", 5000)), "k beyond budget")
        require(x == target[anchor] * bases[anchor] ** k, "x is not t*b^k of its anchor")

    def _witness_excluded(self, bases, target, pair, lo, hi, i, j) -> None:
        dep = dependence(bases[i], bases[j])
        require(dep is not None, "obstruction pair is independent")
        a = dep[0]
        require(pair == (target[i], target[j]), "certificate pair is not the projection")
        require(window_is_sufficient(a, bases[i], bases[j], lo, hi), "c window too small")
        require(smallest_c(a, lo, hi, *pair) is None,
                f"c window contains a power certificate for {pair}")

    def _witness_exhausted(self, opts, bases, target, k_reached) -> None:
        budget = int(opts.get("budget", 5000))
        require(k_reached == budget, "k_reached is not the budget")
        for i, j, (a, e1, e2) in self._dependent_pairs(bases):
            require(smallest_c(a, -(e2 + 1), e1 + 1, target[i], target[j]) is not None,
                    "exhausted although a dependent pair excludes the target")
        first = int(opts.get("anchor", 0))
        anchors = [first]
        if "no-retry-anchors" not in opts:
            anchors += [i for i in range(len(bases)) if i != first]
        for anchor in anchors:
            key = (bases, target, anchor)
            walk = self._walks.setdefault(key, WalkScan(bases, target, anchor))
            require(walk.first_hit(budget) is None,
                    f"anchor {anchor} has a witness at k={walk.hit} within budget")

    def _witness_json(self, opts, d: dict) -> None:
        bases, target = _ints(opts["bases"]), _ints(opts["target"])
        require(d["bases"] == list(bases) and d["target"] == list(target), "echo")
        if d["outcome"] == "found":
            require(d["verified"] is True, "found witness not verified")
            self._witness_found(opts, bases, target, int(d["x"]), d["anchor"], d["k"])
        elif d["outcome"] == "not_attainable":
            cert = d["certificate"]
            require(cert["attainable"] is False and cert["certificate_c"] is None, "cert")
            self._witness_excluded(bases, target, tuple(cert["pair"]),
                                   *cert["scan_range"], *d["obstruction"])
        else:
            require(d["outcome"] == "exhausted" and d["assumption_note"], "outcome")
            self._witness_exhausted(opts, bases, target, d["k_reached"])

    _FOUND = re.compile(r"found x=(\d+) \(anchor (\d+), k=(\d+)\)")
    _EXCLUDED = re.compile(r"not attainable: bases (\d+),(\d+) exclude digit pair "
                           r"\((\d+), (\d+)\) \(no power certificate in c range "
                           r"\((-?\d+), (-?\d+)\)\)")
    _EXHAUSTED = re.compile(r"exhausted at k=(\d+): .+")

    def _witness_text(self, opts, out: str) -> None:
        bases, target = _ints(opts["bases"]), _ints(opts["target"])
        line = out.rstrip("\n")
        require(out == line + "\n", "witness text is not one line")
        if m := self._FOUND.fullmatch(line):
            x, anchor, k = map(int, m.groups())
            self._witness_found(opts, bases, target, x, anchor, k)
        elif m := self._EXCLUDED.fullmatch(line):
            bi, bj, j1, j2, lo, hi = map(int, m.groups())
            i, j = bases.index(bi), bases.index(bj)
            self._witness_excluded(bases, target, (j1, j2), lo, hi, i, j)
        elif m := self._EXHAUSTED.fullmatch(line):
            self._witness_exhausted(opts, bases, target, int(m.group(1)))
        else:
            raise Rejected("unrecognised witness text")

    # -- coverage

    @staticmethod
    def _expected_hits(opts, bases):
        if opts.get("sampler", "integer-scan") == "integer-scan":
            return scan_hits(bases, int(opts["samples"]))
        return None

    def _coverage_json(self, opts, d: dict) -> None:
        bases = _ints(opts["bases"])
        samples = int(opts["samples"])
        sampler = opts.get("sampler", "integer-scan")
        require(d["bases"] == list(bases) and d["samples"] == samples
                and d["sampler"] == sampler, "coverage echo")
        tuples = [tuple(c["tuple"]) for c in d["cells"]]
        require(tuples == list(product(*(range(1, b) for b in bases))), "cell grid")
        require(d["rectangles_total"] == codomain_size(bases), "rectangles_total")
        counts = {t: c["count"] for t, c in zip(tuples, d["cells"])}
        ambiguous = d["boundary_ambiguous"]
        classified = samples - ambiguous
        require(ambiguous >= 0 and sum(counts.values()) == classified,
                "counts do not sum to samples - ambiguous")
        require(sampler == "low-discrepancy" or ambiguous == 0, "exact sampler ambiguous")
        require(d["rectangles_hit"] == sum(1 for c in counts.values() if c), "rectangles_hit")
        for c in d["cells"]:
            require(c["frequency"] == (c["count"] / classified if classified else 0.0),
                    "frequency")
        require(abs(sum(float(c["measure"]) for c in d["cells"]) - 1.0) < 1e-9,
                "measures do not sum to 1")
        expected = self._expected_hits(opts, bases)
        if expected is not None:
            require({t: n for t, n in counts.items() if n} == expected,
                    "integer-scan counts differ from the run sweep")

    def _coverage_csv(self, opts, out: str) -> None:
        bases = _ints(opts["bases"])
        samples = int(opts["samples"])
        rows = [line.split(",") for line in out.splitlines()]
        require(rows[0] == ["tuple", "count", "measure"], "csv header")
        require(out.endswith("\r\n"), "csv line endings")
        tuples = [tuple(int(j) for j in r[0].split()) for r in rows[1:]]
        require(tuples == list(product(*(range(1, b) for b in bases))), "csv grid")
        counts = {t: int(r[1]) for t, r in zip(tuples, rows[1:])}
        total = sum(counts.values())
        if opts.get("sampler", "integer-scan") == "low-discrepancy":
            require(0 <= total <= samples, "csv counts exceed samples")
        else:
            require(total == samples, "csv counts do not sum to samples")
        require(abs(sum(float(r[2]) for r in rows[1:]) - 1.0) < 1e-9, "csv measures")
        expected = self._expected_hits(opts, bases)
        if expected is not None:
            require({t: n for t, n in counts.items() if n} == expected,
                    "integer-scan counts differ from the run sweep")

    _COVERAGE_TEXT = re.compile(
        r"bases \(([\d, ]+)\)  sampler (\S+)  samples (\d+)\n"
        r"rectangles hit (\d+)/(\d+), boundary-ambiguous (\d+), "
        r"max \|frequency - measure\| = \d\.\d{4}\n")

    def _coverage_text(self, opts, out: str) -> None:
        bases = _ints(opts["bases"])
        m = self._COVERAGE_TEXT.fullmatch(out)
        require(m is not None, "coverage text layout")
        echo, sampler, samples, hit, total, ambiguous = m.groups()
        require(_ints(echo.replace(" ", "")) == bases and int(samples) == int(opts["samples"])
                and sampler == opts.get("sampler", "integer-scan"), "coverage echo")
        require(int(total) == codomain_size(bases) and 0 < int(hit) <= int(total), "hits")
        require(sampler == "low-discrepancy" or ambiguous == "0", "exact sampler ambiguous")
        expected = self._expected_hits(opts, bases)
        if expected is not None:
            require(int(hit) == len(expected), "integer-scan rectangles hit")
