"""Seeded query lists for the three benchmark workloads.

A query is the argv of one ``jointdigits`` invocation.  A workload's query
list is a sequence of rounds.  Every round holds one query per slot, and each
slot fixes a subcommand, an output format and a cost class; the seed picks the
concrete inputs inside the class and the order of the slots in the round.
So every seed replays the same mix of work, while a fresh seed gives inputs
that no code was tuned on.  The benchmark runs whole rounds, so each run sees
the mix exactly.

Cost classes are bounded from the inputs: ``image`` work grows with the
number of digit pairs P = (b1-1)(b2-1), ``table`` work with P times the
combined base, coverage with the sample count, and witness search with the
budget.  The bounds below keep every query of the code they were written
against to about a second.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from checkers import dependence, smallest_c

WORKLOADS = ("exact-image", "orbit-coverage", "witness-digits")
ROUNDS = 32

# One small query per subcommand: the untimed warm-up of every run.
WARMUP = (
    ("digit", "--base", "10", "--x", "1/3"),
    ("deps", "--bases", "4,8,10"),
    ("image", "--bases", "4,8"),
    ("table", "--bases", "4,8", "--output", "json"),
    ("witness", "--bases", "3,10", "--target", "2,9"),
    ("coverage", "--bases", "3,10", "--samples", "100"),
)
# The fixed trivial query whose wall time is the cold start.
PROBE = ("digit", "--base", "10", "--x", "1")

ROOTS = (2, 3, 5, 6, 7, 10, 11, 12, 13, 14, 15)  # not perfect powers
MAX_BASE = 5000


def _dependent_pairs() -> list[tuple[int, int, int, int]]:
    """(b1, b2, P, T) for b1 = r**f1, b2 = r**f2, both orientations."""
    out = []
    for r in ROOTS:
        powers = [f for f in range(1, 14) if 3 <= r**f <= MAX_BASE]
        for f1 in powers:
            for f2 in powers:
                if f1 != f2:
                    b1, b2 = r**f1, r**f2
                    pairs = (b1 - 1) * (b2 - 1)
                    combined = r ** (f1 * f2 // math.gcd(f1, f2))
                    out.append((b1, b2, pairs, pairs * combined))
    return out


def _bucket(key: int, lo: float, hi: float) -> list[tuple[int, int]]:
    return [(p[0], p[1]) for p in _dependent_pairs() if lo <= p[key] <= hi]


# The heavier slots draw from pairs whose cost, when written, was within about
# 10% of each other, so that the median and the tail of a run fall inside one
# cost class whatever the seed.  The three ~200 ms classes (image JSON, image
# text, table text) form one cluster, in which the tail of a run falls.
# The JSON one is always the largest image, so the peak memory of a run is
# the same whatever the seed.
IMAGE_STRESS_JSON = ((81, 243), (243, 81))
IMAGE_STRESS_TEXT = ((12, 1728), (1728, 12), (512, 32), (27, 729), (729, 27))
TABLE_MEDIUM = ((512, 8), (625, 5), (5, 625))
IMAGE_MEDIUM = ((1296, 6), (6, 1296), (36, 216), (216, 36))
TABLE_HEAVY = ((16, 64), (64, 16), (4, 1024), (1024, 4), (9, 729))
IMAGE_SMALL = _bucket(2, 15, 600)
TABLE_SMALL = _bucket(3, 1e3, 2.5e5)
SMALL_DEPENDENT = _bucket(2, 1, 4_000)


def _excluded_pairs(b1: int, b2: int) -> list[tuple[int, int]]:
    a, e1, e2 = dependence(b1, b2)
    return [(j1, j2) for j1 in range(1, b1) for j2 in range(1, b2)
            if smallest_c(a, -(e2 + 1), e1 + 1, j1, j2) is None]


# small dependent pairs that exclude at least one digit pair
EXCLUDING = [p for p in SMALL_DEPENDENT if max(p) <= 64 and _excluded_pairs(*p)]

# Witness targets with no hit within 30000 anchor steps, found by scanning
# with checkers.WalkScan: (bases, target, anchor).
HARD_TARGETS = (
    ((7, 11, 13, 17), (6, 10, 12, 16), 0),
    ((6, 11, 13, 19), (5, 10, 12, 18), 0),
    ((5, 12, 17, 19), (4, 11, 16, 18), 0),
    ((5, 12, 17, 19), (3, 10, 15, 17), 0),
    ((7, 10, 13, 19), (6, 9, 12, 18), 2),
    ((5, 7, 11, 13), (4, 6, 10, 12), 1),
    ((6, 7, 17, 19), (5, 6, 16, 18), 0),
    ((6, 7, 17, 19), (4, 5, 15, 17), 0),
)
HARD_STEPS = 30_000


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _pair(rng, bucket) -> str:
    return _csv(rng.choice(bucket))


def _independent(rng, n: int, lo: int, hi: int, max_codomain: int = 1 << 30):
    """n pairwise-independent distinct bases in [lo, hi]."""
    while True:
        bases = rng.sample(range(lo, hi + 1), n)
        if math.prod(b - 1 for b in bases) > max_codomain:
            continue
        if all(dependence(bases[i], bases[j]) is None
               for i in range(n) for j in range(i + 1, n)):
            return bases


def _digits(rng, bases) -> str:
    return _csv(rng.randrange(1, b) for b in bases)


_DIGIT_BYTES = bytes(ord("0") + i % 10 for i in range(256))


def _decimal(rng, n: int) -> str:
    body = rng.randbytes(n - 1).translate(_DIGIT_BYTES).decode()
    return str(rng.randrange(1, 10)) + body


def _deps(rng) -> tuple[str, ...]:
    bases = _independent(rng, rng.randrange(0, 3), 3, 300)
    r = rng.choice(ROOTS[:5])
    f1, f2 = rng.sample(range(2, 6), 2)
    bases += [b for b in (r**f1, r**f2) if b not in bases]
    rng.shuffle(bases)
    return ("deps", "--bases", _csv(bases), "--output", rng.choice(("text", "json")))


# ------------------------------------------------------------------ workloads


def _exact_image(rng) -> list[tuple[str, ...]]:
    def trivial():
        while True:
            b1, b2 = _independent(rng, 2, 20, 110)
            if 4_000 <= (b1 - 1) * (b2 - 1) <= 6_000:
                return ("image", "--bases", f"{b1},{b2}", "--allow-trivial")

    return [
        ("image", "--bases", _pair(rng, IMAGE_STRESS_JSON), "--output", "json"),
        ("image", "--bases", _pair(rng, IMAGE_STRESS_TEXT), "--output", "text"),
        # two slots of one class hold the median of a run
        ("image", "--bases", _pair(rng, IMAGE_MEDIUM), "--output", "json"),
        ("image", "--bases", _pair(rng, IMAGE_MEDIUM), "--output", "json"),
        ("image", "--bases", _pair(rng, IMAGE_SMALL), "--output", rng.choice(("json", "text"))),
        ("table", "--bases", _pair(rng, TABLE_HEAVY), "--output", "json"),
        ("table", "--bases", _pair(rng, TABLE_MEDIUM), "--output", "text"),
        ("table", "--bases", _pair(rng, TABLE_SMALL), "--output", rng.choice(("json", "text"))),
        trivial(),
        _deps(rng),
    ]


def _orbit_coverage(rng) -> list[tuple[str, ...]]:
    def bases(n, lo, hi):
        """n bases with lo <= codomain size <= hi; half hold a dependent pair."""
        while True:
            if rng.random() < 0.5:
                tup = _independent(rng, n, 3, 13)
            else:
                tup = list(rng.choice([p for p in SMALL_DEPENDENT if max(p) <= 27]))
                while len(tup) < n:
                    b = rng.randrange(3, 14)
                    if b not in tup:
                        tup.append(b)
            if lo <= math.prod(b - 1 for b in tup) <= hi:
                rng.shuffle(tup)
                return _csv(tup)

    def coverage(n_bases, samples, sampler, output):
        lo, hi = (60, 120) if n_bases == 2 else (144, 200)
        q = ("coverage", "--bases", bases(n_bases, lo, hi), "--samples", str(samples),
             "--sampler", sampler, "--output", output)
        if sampler == "geometric":
            q += ("--ratio", rng.choice(("3/2", "2/3")))
        return q

    return [
        coverage(2, 1_000_000, "integer-scan", "json"),
        coverage(3, 200_000, "integer-scan", "csv"),
        coverage(2, 20_000, "integer-scan", "text"),
        # the three heaviest slots cost about the same, so the tail of a run
        # falls inside them
        coverage(2, 3_600, "geometric", "json"),
        coverage(3, 1_000, "geometric", "text"),
        coverage(2, 2_000, "low-discrepancy", "json"),
        # two slots of one class hold the median of a run
        coverage(3, 600, "low-discrepancy", "csv"),
        coverage(3, 600, "low-discrepancy", "csv"),
    ]


def _witness_digits(rng) -> list[tuple[str, ...]]:
    def found(n, output, *extra):
        bases = _independent(rng, n, 3, 20)
        return ("witness", "--bases", _csv(bases), "--target", _digits(rng, bases),
                "--output", output, *extra)

    def excluded(n_bases, output):
        b1, b2 = rng.choice(EXCLUDING)
        j1, j2 = rng.choice(_excluded_pairs(b1, b2))
        bases, target = [b1, b2], [j1, j2]
        while len(bases) < n_bases:
            b3 = rng.randrange(3, 31)
            if b3 not in bases:
                at = rng.randrange(len(bases) + 1)
                bases.insert(at, b3)
                target.insert(at, rng.randrange(1, b3))
        return ("witness", "--bases", _csv(bases), "--target", _csv(target),
                "--output", output)

    def exhausted():
        bases, target, anchor = rng.choice(HARD_TARGETS)
        # equal cost per query: the walk costs about budget**2 * log(b)
        budget = round(HARD_STEPS * math.sqrt(math.log2(5) / math.log2(bases[anchor])))
        return ("witness", "--bases", _csv(bases), "--target", _csv(target),
                "--anchor", str(anchor), "--budget", str(budget), "--no-retry-anchors",
                "--output", "json")

    def digit(n_digits, output):
        # parsing is quadratic in each term, so an even split keeps the cost fixed
        half = n_digits // 2
        x = f"{_decimal(rng, half)}/{_decimal(rng, n_digits - half)}"
        return ("digit", "--base", str(rng.randrange(3, 40)), "--x", x, "--output", output)

    # nine start-up-dominated queries, three of a few milliseconds, two heavy
    return [
        _deps(rng),
        _deps(rng),
        excluded(2, "json"),
        excluded(3, "text"),
        excluded(rng.choice((2, 3)), "json"),
        found(2, "json"),
        found(2, "text"),
        found(2, "json", "--anchor", "1"),
        digit(2_000, "text"),
        found(3, "text"),
        found(4, "json", "--budget", "5000"),
        digit(20_000, "text"),
        digit(100_000, rng.choice(("json", "text"))),
        exhausted(),
    ]


_BUILDERS = {
    "exact-image": _exact_image,
    "orbit-coverage": _orbit_coverage,
    "witness-digits": _witness_digits,
}


def generate(workload: str, seed: int, rounds: int = ROUNDS) -> list[list[tuple[str, ...]]]:
    """The query list of a workload: ``rounds`` rounds, each shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(rounds):
        round_ = _BUILDERS[workload](rng)
        rng.shuffle(round_)
        out.append(round_)
    return out


def digest(rounds) -> str:
    """Short hash of a query list; equal digests mean identical inputs."""
    blob = json.dumps(rounds, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
