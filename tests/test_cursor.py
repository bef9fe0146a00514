"""The mantissa cursor and the digit odometer against the exact walks they replaced.

The anchored witness scan and the geometric sampler used to carry the
exact x from step to step and move a power bracket along with it.  Those
walks are kept here as oracles: the cursor must give the same hit (x and
k) and the same hit counts, at the default scale and at a scale so small
that the exact fallback runs often.  The scan's jumps between the hits
of one base, and the cursor's jumps of many steps at once, are held to
the same oracle and to the one-step normalisation they replace.  The run
sweep moved the same bracket up to each run start; that sweep is kept as
the oracle of the digit odometer in digit_runs.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import jointdigits.digits
import jointdigits.witness
from jointdigits import (
    WitnessQuery,
    attainable_by_power_criterion,
    digit_runs,
    find_witness,
    leading_digit,
    orbit_sample,
    pair_dependence,
    pairwise_report,
    primitive_root,
)
from jointdigits.dependence import _group_class, _groups
from jointdigits.digits import _MantissaCursor
from jointdigits.witness import _return_gaps
from jointdigits.witness import _scan_anchor as _scan_group_anchor


def _scan_anchor(bases, target, anchor, budget):
    """The anchored scan of the bases, fed the anchor's root group with its
    class and the read ranks, as find_witness computes them once per query.
    A group that no x meets is rejected before any scan: no hit."""
    a, members = next(g for g in _groups(bases) if anchor in dict(g[1]))
    group_class = _group_class(a, members, target)
    if group_class is None:
        return None
    rank = [(2 * j + 1) * (b**16).bit_length() for b, j in zip(bases, target)]
    return _scan_group_anchor(bases, (a, members, group_class), rank, target, anchor, budget)


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
POWER_GROUPS = [(4, 8, 16, 32), (9, 27, 81), (25, 125), (36, 216)]
POWERS = [b for group in POWER_GROUPS for b in group]
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


@st.composite
def mixed_group_queries(draw):
    # one to three of the roots 2, 3, 5, 6 and 7, each to one to three
    # exponents up to 12, so that root groups of two or more members come
    # up side by side, and 0-2 bases of other roots
    bases = []
    for a in draw(st.lists(st.sampled_from((2, 3, 5, 6, 7)), min_size=1, max_size=3, unique=True)):
        exponents = st.integers(2 if a == 2 else 1, 12)
        bases += [a**e for e in draw(st.lists(exponents, min_size=1, max_size=3, unique=True))]
    other = st.integers(3, 200).filter(lambda b: primitive_root(b).root > 7)
    bases += draw(st.lists(other, max_size=2, unique=True))
    assume(len(bases) >= 2)
    bases = tuple(draw(st.permutations(bases)))
    # small digits have the widest arcs, so that some targets are hit; the
    # budgets reach past a few strides lcm(e_i) / e of the anchor's group
    target = tuple(draw(st.integers(1, min(3, b - 1)) | st.integers(1, b - 1)) for b in bases)
    return bases, target, draw(st.integers(1, 300) | st.integers(300, 1500))


class TestWitnessScan:
    @given(query=scan_queries())
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_scan(self, query):
        assert _scan_anchor(*query) == exact_scan_anchor(*query)

    @given(query=mixed_group_queries())
    # the group of root 2 comes first, but its first excluding pair (3, 4)
    # comes after the pair (1, 2) of root 3 in (i, j) order
    @example(query=((4, 9, 27, 8, 32), (1, 4, 25, 4, 31), 300))
    # from the anchor 4 the candidates are k = 0 (mod 3), and base 3 jumps
    # between its hits by its return times under the rotation by 4**3
    @example(query=((4, 8, 10, 3), (1, 2, 6, 2), 600))
    @settings(max_examples=40, deadline=None)
    def test_mixed_groups_match_exact_scan_and_pairwise_obstruction(self, query):
        # the scan, fed the anchor's group and its class, against the exact
        # walk from every anchor; the obstruction against the first
        # excluding pair of all C(n,2) pairs, each decided on its own
        bases, target, budget = query
        for anchor in range(len(bases)):
            assert _scan_anchor(bases, target, anchor, budget) == \
                exact_scan_anchor(bases, target, anchor, budget)
        deps = ((i, j, pair_dependence(bases[i], bases[j]))
                for i, j in combinations(range(len(bases)), 2))
        excluding = ((i, j, attainable_by_power_criterion(dep, target[i], target[j]))
                     for i, j, dep in deps if dep is not None)
        first = next((((i, j), v) for i, j, v in excluding if not v.attainable), None)
        r = find_witness(WitnessQuery(bases, target, budget=1))
        if first is None:
            assert r.outcome != "not_attainable"
        else:
            assert (r.outcome, r.obstruction, r.certificate) == ("not_attainable", *first)

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


# independent bases that share primes: their digit edges meet exactly, as
# 2 * 6**3 = 3 * 12**2 does
SHARED_PRIMES = [(6, 12), (10, 20), (18, 24), (12, 18), (15, 45)]


@st.composite
def long_scan_queries(draw):
    pair = list(draw(st.sampled_from(SHARED_PRIMES)))
    extra = draw(st.lists(st.integers(3, 40).filter(lambda b: b not in pair),
                          min_size=1, max_size=2, unique=True))
    bases = tuple(draw(st.permutations(pair + extra)))
    # the top digits have the shortest arcs, so their targets often exhaust
    target = tuple(draw(st.integers(1, b - 1) | st.sampled_from((b - 2, b - 1)))
                   for b in bases)
    budget = draw(st.integers(1, 3000) | st.integers(3000, 30_000))
    return bases, target, draw(st.integers(0, len(bases) - 1)), budget


@st.composite
def dependent_pair_queries(draw):
    # one dependent pair of powers among independent bases: the scan reads
    # the independent bases first, whichever the anchor is
    pair = draw(st.sampled_from(POWER_GROUPS).flatmap(st.permutations))[:2]
    extra = draw(st.lists(st.integers(3, 40), min_size=1, max_size=2, unique=True))
    bases = tuple(draw(st.permutations(pair + extra)))
    assume(len(bases) == len(set(bases)) and len(pairwise_report(bases).dependent_pairs) == 1)
    target = tuple(draw(st.integers(1, b - 1) | st.sampled_from((b - 2, b - 1)))
                   for b in bases)
    budget = draw(st.integers(1, 3000) | st.integers(3000, 30_000))
    return bases, target, draw(st.integers(0, len(bases) - 1)), budget


@st.composite
def one_root_queries(draw):
    # two or more powers of one root and nothing else: every candidate
    # digit is periodic in k, so the scan stops at the period
    group = draw(st.sampled_from(POWER_GROUPS).flatmap(st.permutations))
    bases = tuple(group[:draw(st.integers(2, len(group)))])
    target = tuple(draw(st.integers(1, b - 1) | st.sampled_from((b - 2, b - 1)))
                   for b in bases)
    budget = draw(st.integers(1, 3000) | st.integers(3000, 30_000))
    return bases, target, draw(st.integers(0, len(bases) - 1)), budget


@pytest.fixture
def cursor_work(monkeypatch):
    """Counts of the cursor's digit reads (in all and by base) and exact
    rebuilds while a test runs."""
    work = Counter()
    digit, rebuild = _MantissaCursor.digit, _MantissaCursor._rebuild

    def counted_digit(self, i, n):
        work["reads"] += 1
        work[self.bases[i]] += 1
        return digit(self, i, n)

    def counted_rebuild(self, i, n):
        work["rebuilds"] += 1
        return rebuild(self, i, n)

    monkeypatch.setattr(_MantissaCursor, "digit", counted_digit)
    monkeypatch.setattr(_MantissaCursor, "_rebuild", counted_rebuild)
    return work


def exact_hits(anchor_base, b, j, x0, n):
    """The k < n at which x0 * anchor_base**k has leading digit j in b."""
    return [k for k in range(n) if leading_digit(x0 * anchor_base**k, b) == j]


class TestReturnTimes:
    @given(query=long_scan_queries())
    @settings(max_examples=25, deadline=None)
    def test_matches_exact_scan_at_large_budgets(self, query):
        assert _scan_anchor(*query) == exact_scan_anchor(*query)

    @pytest.mark.parametrize("bases", [(6, 12, 17), (10, 20, 13), (18, 24, 5), (6, 12, 18, 24)])
    def test_shared_primes_found_and_exhausted(self, bases):
        rng = random.Random(str(bases))
        outcomes = Counter()
        for _ in range(30):
            target = tuple(rng.randrange(1, b) for b in bases)
            query = bases, target, rng.randrange(len(bases)), rng.choice((400, 4000))
            hit = _scan_anchor(*query)
            assert hit == exact_scan_anchor(*query)
            outcomes[hit is None] += 1
        assert outcomes[True] and outcomes[False]

    def test_return_times_take_the_strict_sides(self):
        # 2 * 6**3 = 3 * 12**2 puts {3 alpha} on the end of digit 2's arc in
        # base 12, and 6 = 12 / 2 puts {alpha} on the start of 1 - l for
        # digit 1: neither is a return
        assert _return_gaps(6, 12, 2, 100) == (4, 7, 11)
        assert _return_gaps(6, 12, 1, 100) == (3, 4, 7)
        assert leading_digit(2 * 6**3, 12) == 3
        for anchor_base, b, j in [(6, 12, 2), (6, 12, 1), (12, 6, 3), (10, 20, 1),
                                  (18, 24, 5), (24, 18, 3), (3, 10, 9), (7, 17, 16)]:
            gaps = _return_gaps(anchor_base, b, j, 1000)
            seen = set()
            for x0 in (1, 2, 3, 5, 7, 11, 13, Fraction(1, 3), Fraction(22, 7)):
                hits = exact_hits(anchor_base, b, j, x0, 300)
                seen |= {y - x for x, y in zip(hits, hits[1:])}
            assert seen <= set(gaps), (anchor_base, b, j)
            assert min(seen) == gaps[0]

    def test_a_jump_onto_a_miss_raises(self, monkeypatch):
        # return times each one too long land between two hits of base 10,
        # which the scan's self-check reports rather than skip a hit
        true_gaps = _return_gaps
        monkeypatch.setattr(jointdigits.witness, "_return_gaps",
                            lambda *args: tuple(g + 1 for g in true_gaps(*args)))
        with pytest.raises(RuntimeError) as raised:
            _scan_anchor((3, 10, 7), (2, 9, 5), 0, 5000)
        assert str(raised.value) == ("base 10 misses at k = 59, one of the return "
                                     "times (22, 24, 45) after one of its hits")

    def test_returns_past_the_limit_give_the_linear_gap(self):
        assert _return_gaps(7, 17, 16, 20) == (1,)
        assert _return_gaps(7, 17, 16, 10**4) == (16, 67, 83)

    @given(query=dependent_pair_queries())
    @settings(max_examples=25, deadline=None)
    def test_dependent_pair_matches_exact_scan(self, query):
        assert _scan_anchor(*query) == exact_scan_anchor(*query)

    @given(query=one_root_queries())
    @settings(max_examples=25, deadline=None)
    def test_one_root_matches_exact_scan(self, query):
        assert _scan_anchor(*query) == exact_scan_anchor(*query)

    @pytest.mark.parametrize("bases, target, period", [((9, 27), (4, 14), 3),
                                                       ((9, 27, 81), (4, 14, 42), 6)])
    def test_one_root_scan_stops_at_its_period(self, cursor_work, bases, target, period):
        # from 9 = 3**2, 27 = 3**3 recurs every 3 steps and 81 = 9**2 every
        # 2: the group's class steps the anchor 9 by the period lcm(e_i) / 2.
        # Its digit 4 puts every candidate's base-3 mantissa at 4/3, below the
        # group's least 14/9, so the scan stops before any read
        [(a, members)] = _groups(bases)
        assert _group_class(a, members, target)[1] // 2 == period
        assert _scan_anchor(bases, target, 0, 27_000) is None
        assert exact_scan_anchor(bases, target, 0, 3 * period) is None
        assert cursor_work["reads"] == 0

    def test_jumps_read_a_fraction_of_the_budget(self, cursor_work):
        # exhausted queries of the benchmark's hard class: the scan and the
        # return-time searches together read at most a fifth of the budget
        for query in [((7, 11, 13, 17), (6, 10, 12, 16), 0, 30_000),
                      ((5, 7, 11, 13), (4, 6, 10, 12), 1, 30_000)]:
            cursor_work.clear()
            assert _scan_anchor(*query) is None
            assert 5 * cursor_work["reads"] <= query[-1] + 1

    def test_bases_that_share_the_anchor_root_are_never_read(self, cursor_work):
        # 27 shares the root 3 with 9, and their group's class decides both
        # digits at once.  From the anchor 9 no candidate's mantissa 4/3
        # reaches the group's 14/9, so nothing is read; from the anchor 27
        # the candidates are k = 1 (mod 2), and only 10 is read
        query = (9, 27, 10), (4, 14, 5), 0, 27_000
        assert _scan_anchor(*query) is None
        assert cursor_work["reads"] == 0
        query = (9, 27, 10), (4, 14, 5), 1, 27_000
        assert _scan_anchor(*query) == exact_scan_anchor(*query)
        assert cursor_work["reads"] == cursor_work[10] > 0


class StepwiseCursor(_MantissaCursor):
    """The cursor as it normalised before bulk division: one // b per power."""

    def digit(self, i, n):
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


class TestBulkNormalisation:
    @given(
        bases=st.lists(st.integers(3, 10**6), min_size=1, max_size=3, unique=True),
        x0=st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9)),
        ratio=rational_ratios,
        jumps=st.lists(st.integers(1, 400), min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_jumps_keep_the_stepwise_bounds(self, bases, x0, ratio, jumps):
        bulk = _MantissaCursor(bases, x0, ratio.numerator, ratio.denominator)
        stepwise = StepwiseCursor(bases, x0, ratio.numerator, ratio.denominator)
        n = 0
        for d in jumps:
            n += d
            for i in range(len(bases)):
                assert bulk.digit(i, n) == stepwise.digit(i, n)
            assert bulk.state == stepwise.state
            assert bulk.exact == stepwise.exact

    def test_long_jumps_of_a_large_ratio(self):
        # x_n grows by 3 * 2**64 a step, so a jump divides by thousands of bases
        bulk, stepwise = (cls((3, 10, 2**61 - 1), 7, 3 << 64)
                          for cls in (_MantissaCursor, StepwiseCursor))
        for n in (1, 2, 100, 101, 300):
            assert [bulk.digit(i, n) for i in range(3)] == [stepwise.digit(i, n) for i in range(3)]
            assert bulk.state == stepwise.state


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
