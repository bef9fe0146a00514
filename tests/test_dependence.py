"""Dependence-detection tests: canonical power forms and certificates."""

import sys
import time
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointdigits import (
    DependencePair,
    DependenceReport,
    ResourceLimitError,
    attainable_by_power_criterion,
    image_observed,
    integer_nth_root,
    leading_digit_tuple,
    pair_dependence,
    pairwise_report,
    primitive_root,
)
from jointdigits.dependence import MAX_BASE_BITS, _group_class, _groups


def brute_force_dependent(b1, b2, a_max=256, e_max=8):
    """Oracle: exhaustive search for a common power base."""
    for a in range(2, a_max + 1):
        e1 = e2 = None
        pw = a
        for e in range(1, e_max + 1):
            if pw == b1:
                e1 = e
            if pw == b2:
                e2 = e
            pw *= a
        if e1 is not None and e2 is not None:
            return True
    return False


def all_pairs_report(bases):
    """Oracle: pair_dependence over all C(n,2) pairs, in (i, j) order."""
    found = []
    for i, j in combinations(range(len(bases)), 2):
        dep = pair_dependence(bases[i], bases[j])
        if dep is not None:
            found.append((i, j, dep))
    return DependenceReport(bases=tuple(bases), dependent_pairs=tuple(found))


# powers of small roots make dependent pairs common among the drawn bases
base_values = st.one_of(
    st.integers(3, 10**6),
    st.builds(pow, st.integers(2, 12), st.integers(1, 10)).filter(lambda b: b >= 3),
)


class TestIntegerNthRoot:
    def test_exact_powers(self):
        assert integer_nth_root(64, 3) == (4, True)
        assert integer_nth_root(64, 6) == (2, True)
        assert integer_nth_root(10**30, 10) == (1000, True)

    def test_non_powers(self):
        assert integer_nth_root(65, 3) == (4, False)
        assert integer_nth_root(2, 5) == (1, False)

    def test_order_one(self):
        assert integer_nth_root(17, 1) == (17, True)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            integer_nth_root(0, 2)
        with pytest.raises(ValueError):
            integer_nth_root(8, 0)

    @given(y=st.integers(1, 2**2100), n=st.integers(1, 40))
    def test_floor_property(self, y, n):
        r, exact = integer_nth_root(y, n)
        assert r**n <= y < (r + 1) ** n
        assert exact == (r**n == y)

    @given(r=st.integers(2, 2**40), n=st.integers(2, 64), d=st.sampled_from((-1, 0, 1)))
    def test_near_powers(self, r, n, d):
        # the sizes primitive_root meets: r**n - 1 must give r - 1, not r
        got, exact = integer_nth_root(r**n + d, n)
        assert (got, exact) == ((r - 1, False) if d < 0 else (r, d == 0))

    @given(r=st.integers(1, 10**6), n=st.integers(1, 12))
    def test_recovers_constructed_powers(self, r, n):
        got, exact = integer_nth_root(r**n, n)
        assert exact and got == r


def all_orders_oracle(b):
    """Oracle: (root, exponent) from k-th roots for every order k, largest first."""
    for k in range(b.bit_length() - 1, 1, -1):
        root, exact = integer_nth_root(b, k)
        if exact:
            return root, k
    return b, 1


class TestPrimitiveRoot:
    @given(s=st.integers(2, 10**6), k=st.integers(1, 60), t=st.integers(0, 2**40))
    def test_prime_orders_match_all_orders_oracle(self, s, k, t):
        # s**k is a perfect power of order at least k; s**k + t mostly is not
        for b in {s**k, s**k + t}:
            if b >= 3 and b.bit_length() <= MAX_BASE_BITS:
                pr = primitive_root(b)
                assert (pr.root, pr.exponent) == all_orders_oracle(b)

    def test_nested_and_mixed_orders_match_oracle(self):
        # exponents with repeated and mixed prime factors, up to the bit cap
        for root in (2, 3, 6, 10, 12, 2**3 * 3**2, 7**5 * 11**5 + 1):
            for k in (1, 2, 4, 6, 8, 12, 30, 64, 210, 343, 1024):
                b = root**k
                if b >= 3 and b.bit_length() <= MAX_BASE_BITS:
                    pr = primitive_root(b)
                    assert (pr.root, pr.exponent) == all_orders_oracle(b), (root, k)

    def test_examples(self):
        assert primitive_root(8) == primitive_root(8).__class__(root=2, exponent=3)
        assert (primitive_root(8).root, primitive_root(8).exponent) == (2, 3)
        assert (primitive_root(12).root, primitive_root(12).exponent) == (12, 1)
        assert (primitive_root(64).root, primitive_root(64).exponent) == (2, 6)

    def test_reconstructs(self):
        for b in range(3, 2000):
            pr = primitive_root(b)
            assert pr.root**pr.exponent == b
            assert pr.value == b

    def test_root_is_not_a_perfect_power(self):
        for b in range(3, 2000):
            pr = primitive_root(b)
            for k in range(2, pr.root.bit_length()):
                r, exact = integer_nth_root(pr.root, k)
                assert not exact, (b, pr, k, r)

    def test_idempotent_canonical_form(self):
        for b in range(3, 500):
            root = primitive_root(b).root
            if root >= 3:
                assert primitive_root(root).exponent == 1

    def test_refuses_bases_past_the_bit_cap(self):
        pr = primitive_root(3 ** (MAX_BASE_BITS // 2))
        assert (pr.root, pr.exponent) == (3, MAX_BASE_BITS // 2)
        at_cap = (1 << (MAX_BASE_BITS - 1)) + 1
        assert primitive_root(at_cap).value == at_cap
        for b in (1 << MAX_BASE_BITS, 10**2500 + 1):
            with pytest.raises(ResourceLimitError):
                primitive_root(b)
            with pytest.raises(ResourceLimitError):
                pairwise_report((3, b))


class TestPairDependence:
    def test_4_8(self):
        dep = pair_dependence(4, 8)
        assert (dep.a, dep.e1, dep.e2) == (2, 2, 3)
        assert dep.combined_base == 64

    def test_3_10_independent(self):
        assert pair_dependence(3, 10) is None

    def test_4_16(self):
        dep = pair_dependence(4, 16)
        assert (dep.a, dep.e1, dep.e2) == (4, 1, 2)

    def test_rejects_equal_bases(self):
        with pytest.raises(ValueError):
            pair_dependence(9, 9)

    def test_symmetry(self):
        d1 = pair_dependence(4, 8)
        d2 = pair_dependence(8, 4)
        assert (d1.a, d1.e1, d1.e2) == (d2.a, d2.e2, d2.e1)

    def test_reconstruction_invariant(self):
        for b1 in range(3, 200):
            for b2 in range(b1 + 1, 200):
                dep = pair_dependence(b1, b2)
                if dep is not None:
                    assert dep.a >= 2
                    assert gcd(dep.e1, dep.e2) == 1
                    assert dep.a**dep.e1 == b1
                    assert dep.a**dep.e2 == b2
                    assert b1**dep.e2 == b2**dep.e1 == dep.combined_base

    def test_brute_force_agreement_small(self):
        # the full 3..256 sweep runs in the acceptance suite
        for b1 in range(3, 65):
            for b2 in range(b1 + 1, 65):
                got = pair_dependence(b1, b2) is not None
                assert got == brute_force_dependent(b1, b2), (b1, b2)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            DependencePair(a=1, e1=1, e2=2)
        with pytest.raises(ValueError):
            DependencePair(a=2, e1=2, e2=4)
        with pytest.raises(ValueError):
            DependencePair(a=2, e1=0, e2=1)


class TestPairwiseReport:
    def test_4_8_10(self):
        report = pairwise_report((4, 8, 10))
        assert len(report.dependent_pairs) == 1
        i, j, dep = report.dependent_pairs[0]
        assert (i, j) == (0, 1)
        assert (dep.a, dep.e1, dep.e2) == (2, 2, 3)
        assert not report.all_pairwise_independent

    def test_3_10(self):
        report = pairwise_report((3, 10))
        assert report.dependent_pairs == ()
        assert report.all_pairwise_independent

    def test_4_16(self):
        report = pairwise_report((4, 16))
        assert len(report.dependent_pairs) == 1

    def test_indices_cover_all_pairs(self):
        report = pairwise_report((4, 8, 16, 64))
        # all pairs of powers of two are mutually dependent: C(4,2) = 6
        assert len(report.dependent_pairs) == 6
        assert all(i < j for i, j, _ in report.dependent_pairs)

    def test_needs_two_bases(self):
        with pytest.raises(ValueError):
            pairwise_report((7,))

    @given(bases=st.lists(base_values, min_size=2, max_size=12, unique=True))
    def test_matches_all_pairs_oracle(self, bases):
        report = pairwise_report(bases)
        assert report == all_pairs_report(bases)
        # the root groups partition the indices, one group per root, members
        # in index order, and their same-group pairs are the report's pairs
        groups = _groups(tuple(bases))
        assert sorted(i for _, m in groups for i, _ in m) == list(range(len(bases)))
        assert len({a for a, _ in groups}) == len(groups)
        assert all(m == sorted(m) and a**e == bases[i] for a, m in groups for i, e in m)
        same_group = sorted((i, j) for _, m in groups for (i, _), (j, _) in combinations(m, 2))
        assert same_group == [(i, j) for i, j, _ in report.dependent_pairs]


@st.composite
def root_group_targets(draw):
    # one to four powers of a root 2..7 (4 = 2**2 groups under the root 2)
    # with exponents up to 12, and a digit per base, small ones often
    a = draw(st.integers(2, 7))
    exponents = st.integers(2 if a == 2 else 1, 12)
    bases = tuple(a**e for e in draw(st.lists(exponents, min_size=1, max_size=4, unique=True)))
    target = tuple(draw(st.integers(1, min(3, b - 1)) | st.integers(1, b - 1)) for b in bases)
    return bases, target


class TestGroupClass:
    @given(query=root_group_targets())
    @settings(max_examples=200, deadline=None)
    def test_matches_every_pair_criterion_and_the_observed_image(self, query):
        bases, target = query
        [(a, members)] = _groups(bases)
        group_class = _group_class(a, members, target)
        # CRT and Helly: the group holds iff every pair's power criterion does
        pairs = [(i, j, pair_dependence(bases[i], bases[j]))
                 for i, j in combinations(range(len(bases)), 2)]
        passes = all(attainable_by_power_criterion(dep, target[i], target[j]).attainable
                     for i, j, dep in pairs)
        assert (group_class is not None) == passes
        modulus = lcm(*(e for _, e in members))
        if group_class is not None:
            # x = L * a**R has the target digits: L = t_i / a**m_i with
            # R = m_i (mod e_i) and 0 <= m_i < e_i, so x is an integer below a**M
            r, m, (p, q) = group_class
            assert m == modulus and 0 <= r < m
            x, rest = divmod(p * a**r, q)
            assert rest == 0 and x < a**m
            assert leading_digit_tuple(x, bases) == target
        # digit_runs steps through about (b - 1) * M / e runs per base a**e up to a**M
        if sum((a**e - 1) * modulus // e for _, e in members) <= 10**5:
            observed = image_observed(bases, a**modulus - 1, cap=a**modulus)
            assert (target in observed) == (group_class is not None)


class TestJsonRoundTrip:
    def test_dependence_pair(self):
        dep = pair_dependence(9, 27)
        assert DependencePair.from_json_dict(dep.to_json_dict()) == dep

    def test_dependence_pair_builds_no_power_past_its_payload(self):
        # 2**(10**18 + 10**9) would never finish; the bit-length bound refuses it
        payload = {"a": 2, "e1": 10**9, "e2": 10**9 + 1, "combined_base": 64}
        with pytest.raises(ValueError):
            DependencePair.from_json_dict(payload)

    def test_report(self):
        report = pairwise_report((4, 8, 10, 16))
        rebuilt = DependenceReport.from_json_dict(report.to_json_dict())
        assert rebuilt == report

    def test_report_checks_entries_before_any_combined_base(self, monkeypatch):
        # 200 powers of 2 give 19900 dependent pairs whose combined bases
        # 2**(k1*k2/g) run to 40200 bits: building them all took about a second
        bases = [2**k for k in range(2, 202)]
        entries = [
            {"i": i, "j": j, "certificate": {"a": dep.a, "e1": dep.e1, "e2": dep.e2,
             "combined_base": 1 << (dep.a.bit_length() - 1) * dep.e1 * dep.e2}}
            for i, j, dep in pairwise_report(bases).dependent_pairs
        ]
        entries[-1]["certificate"]["combined_base"] = 64
        bare = {"bases": bases}
        forged = dict(bare, dependent_pairs=entries, all_pairwise_independent=False)
        valid = pairwise_report((4, 8, 10, 16, 9, 27)).to_json_dict()

        def no_power(dep):
            raise AssertionError("combined base built")

        monkeypatch.setattr(DependencePair, "combined_base", property(no_power))
        # json.dumps refuses ints past the int-string limit; lift it, so that
        # only the entry checks can refuse the forged payload in time
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for bad in (bare, dict(bare, dependent_pairs=[]), forged):
                start = time.perf_counter()
                with pytest.raises(ValueError):
                    DependenceReport.from_json_dict(bad)
                assert time.perf_counter() - start < 1
        finally:
            sys.set_int_max_str_digits(limit)
        monkeypatch.undo()
        assert DependenceReport.from_json_dict(valid).to_json_dict() == valid

    def test_report_rejects_tampered_payloads(self):
        payload = pairwise_report((4, 8, 10)).to_json_dict()
        repeated = dict(payload, bases=[4, 4])
        repeated["dependent_pairs"] = [dict(payload["dependent_pairs"][0], j=1)]
        swapped = dict(payload, bases=[4, 8, 10])
        swapped["dependent_pairs"] = [
            {"i": 0, "j": 1, "certificate": {"a": 2, "e1": 3, "e2": 2, "combined_base": 64}}
        ]
        dropped = dict(payload, dependent_pairs=[], all_pairwise_independent=True)
        zero = dict(payload, all_pairwise_independent=0)
        no_bases = {k: v for k, v in payload.items() if k != "bases"}
        for bad in (repeated, swapped, dropped, zero, no_bases):
            with pytest.raises(ValueError):
                DependenceReport.from_json_dict(bad)
        certificate = payload["dependent_pairs"][0]["certificate"]
        for key in certificate:
            with pytest.raises(ValueError):
                DependencePair.from_json_dict({k: v for k, v in certificate.items() if k != key})
