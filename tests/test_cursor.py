"""The mantissa cursor and the digit odometer against the exact walks they replaced.

The anchored witness scan and the geometric sampler used to carry the
exact x from step to step and move a power bracket along with it.  Those
walks are kept here as oracles: the cursor must give the same hit (x and
k) and the same hit counts, at the default scale and at a scale so small
that the exact fallback runs often.  The run sweep moved the same bracket
up to each run start; that sweep is kept as the oracle of the digit
odometer in digit_runs.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jointdigits.digits
from jointdigits import WitnessQuery, digit_runs, find_witness, orbit_sample
from jointdigits.digits import _MantissaCursor
from jointdigits.witness import _scan_anchor


def _exact(v):
    return v.numerator if v.denominator == 1 else v


class ExactBracket:
    """The power bracket lo = b**m <= x < hi = b**(m+1) on exact rationals.

    lo and hi are ints while m >= 0, Fractions below; the bracket moves a
    power at a time, so it follows a walk of bounded ratio in O(1) exact
    operations per step.
    """

    def __init__(self, b: int):
        self.b, self.lo, self.hi = b, 1, b

    def digit(self, x) -> int:
        while x >= self.hi:
            self.lo, self.hi = self.hi, _exact(self.hi * self.b)
        while x < self.lo:
            self.lo, self.hi = _exact(Fraction(self.lo, self.b)), self.lo
        return x // self.lo


def exact_scan_anchor(bases, target, anchor, budget):
    """The anchored scan on the exact x_k = target[anchor] * bases[anchor]**k."""
    ba = bases[anchor]
    x = target[anchor]
    others = [(ExactBracket(bases[i]), target[i]) for i in range(len(bases)) if i != anchor]
    for k in range(budget + 1):
        for bracket, j in others:
            if bracket.digit(x) != j:
                break
        else:
            return x, k
        x *= ba
    return None


def exact_bracket_runs(bases, x_max):
    """Runs (start, stop, digits) over 1..x_max, a bracket per base moved up to each start."""
    brackets = [ExactBracket(b) for b in bases]
    start = 1
    while start <= x_max:
        digits = tuple([br.digit(start) for br in brackets])
        stop = min((j + 1) * br.lo for j, br in zip(digits, brackets))
        yield start, min(stop, x_max + 1), digits
        start = stop


def exact_geometric_counts(bases, n_samples, x0, ratio):
    """Hit counts of x = x0 * ratio**m, m < n_samples, walked exactly."""
    brackets = [ExactBracket(b) for b in bases]
    counts = Counter()
    x = Fraction(x0)
    for _ in range(n_samples):
        counts[tuple([br.digit(x) for br in brackets])] += 1
        x *= ratio
    return dict(sorted(counts.items()))


# powers of 2, 3, 5 and 6 next to random bases, so that dependent pairs
# (and the targets they exclude) come up often
POWERS = [4, 8, 16, 32, 9, 27, 81, 25, 125, 36, 216]
_base = st.one_of(st.integers(3, 40), st.sampled_from(POWERS))


@st.composite
def scan_queries(draw):
    n = draw(st.integers(2, 4))
    bases = tuple(draw(st.lists(_base, min_size=n, max_size=n, unique=True)))
    target = tuple(draw(st.integers(1, b - 1)) for b in bases)
    return bases, target, draw(st.integers(0, n - 1)), draw(st.integers(1, 500))


rational_ratios = st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4)).filter(
    lambda r: r != 1
)


class TestWitnessScan:
    @given(query=scan_queries())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_scan(self, query):
        assert _scan_anchor(*query) == exact_scan_anchor(*query)

    @pytest.mark.parametrize("bases", [(3, 10), (6, 10), (3, 5, 7), (4, 8, 10)])
    def test_every_target_of_small_bases(self, bases):
        # every tuple, found or not, in every anchor: the hits must agree in x and k
        targets = [()]
        for b in bases:
            targets = [t + (j,) for t in targets for j in range(1, b)]
        found = 0
        for target in targets:
            for anchor in range(len(bases)):
                hit = _scan_anchor(bases, target, anchor, 300)
                assert hit == exact_scan_anchor(bases, target, anchor, 300)
                found += hit is not None
        assert found > len(targets)


class TestRunSweep:
    @given(
        bases=st.lists(
            st.one_of(st.integers(3, 40), st.sampled_from([4, 8, 16, 9, 27])),
            min_size=1, max_size=4, unique=True,
        ),
        x_max=st.one_of(st.integers(1, 10**4), st.integers(1, 10**40)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_bracket_sweep(self, bases, x_max):
        runs = list(digit_runs(bases, x_max))
        assert runs == list(exact_bracket_runs(bases, x_max))
        assert all(type(start) is int and type(stop) is int for start, stop, _ in runs)


class TestGeometricSampler:
    @pytest.mark.parametrize(
        "ratio", [Fraction(3, 2), Fraction(2, 3), Fraction(1001, 1000), Fraction(97, 2)]
    )
    @pytest.mark.parametrize("x0", [1, 7, Fraction(1, 7), Fraction(22, 7), Fraction(1, 10**30)])
    def test_matches_exact_walk(self, ratio, x0):
        for bases in ((3, 10), (4, 8, 6)):
            rep = orbit_sample(bases, 600, "geometric", x0=x0, ratio=ratio)
            assert rep.hit_counts == exact_geometric_counts(bases, 600, x0, ratio)

    @given(
        bases=st.lists(st.integers(3, 12), min_size=1, max_size=3, unique=True),
        x0=st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9)),
        ratio=rational_ratios,
        n=st.integers(1, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_ratios_match_exact_walk(self, bases, x0, ratio, n):
        rep = orbit_sample(bases, n, "geometric", x0=x0, ratio=ratio)
        assert rep.hit_counts == exact_geometric_counts(bases, n, x0, ratio)

    def test_exact_powers_stay_exact(self):
        # 10**-m sits on a power of 10 at every step; below one, 1/10 is not
        # a fixed-point number, so each of these digits comes from a rebuild,
        # and the exact mantissa it carries stays 1 rather than growing
        cursor = _MantissaCursor((10, 3), 1, 1, 10)
        assert [cursor.digit(0, n) for n in range(50)] == [1] * 50
        assert cursor.exact[0] == (49, 1)
        rep = orbit_sample((10, 3), 200, "geometric", ratio=Fraction(1, 10))
        assert rep.hit_counts == exact_geometric_counts((10, 3), 200, 1, Fraction(1, 10))


def test_tiny_scale_takes_the_exact_fallback(monkeypatch):
    # at 8 bits the bounds often straddle a digit edge, so many digits are
    # read after a rebuild from the exact mantissa; step 0 always builds
    monkeypatch.setattr(jointdigits.digits, "_MANTISSA_BITS", 8)
    rebuild = _MantissaCursor._rebuild
    fallbacks = Counter()

    def counted(self, i, n):
        fallbacks[n > 0] += 1
        return rebuild(self, i, n)

    monkeypatch.setattr(_MantissaCursor, "_rebuild", counted)
    for query in [((3, 10), (2, 9), 0, 400), ((7, 11, 13), (6, 10, 12), 1, 400),
                  ((4, 8, 10), (1, 4, 7), 2, 400), ((5, 12, 17), (4, 11, 16), 0, 300)]:
        assert _scan_anchor(*query) == exact_scan_anchor(*query)
    rng, pool = random.Random(8), sorted(set(range(3, 41)) | set(POWERS))
    for _ in range(40):
        n = rng.randint(2, 4)
        bases = rng.sample(pool, n)
        target = tuple(rng.randrange(1, b) for b in bases)
        query = tuple(bases), target, rng.randrange(n), rng.randint(1, 300)
        assert _scan_anchor(*query) == exact_scan_anchor(*query)
    assert find_witness(WitnessQuery(bases=(3, 10), target=(2, 9))).x == 9565938
    assert fallbacks[True] >= 20
    fallbacks.clear()
    for ratio in (Fraction(3, 2), Fraction(2, 3), Fraction(1001, 1000)):
        for x0 in (1, Fraction(22, 7), Fraction(1, 10**6)):
            rep = orbit_sample((3, 10, 7), 300, "geometric", x0=x0, ratio=ratio)
            assert rep.hit_counts == exact_geometric_counts((3, 10, 7), 300, x0, ratio)
    assert fallbacks[True] >= 200
