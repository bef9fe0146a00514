"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Every tolerance and bound is pinned here; nothing is deferred.
"""

import functools
import random
import time
import warnings
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from jointdigits import (
    WitnessQuery,
    digit_set,
    digit_set_ranges,
    find_witness,
    image_exact,
    image_observed,
    image_via_table,
    leading_digit,
    orbit_sample,
    pair_dependence,
    power_criterion_holds,
    refine_digit,
    scan_window,
    total_measure,
    verify_witness,
)
from jointdigits.cli import main as cli_main
from jointdigits.torus import _endpoints

EXCLUDED_4_8 = {(2, 3), (2, 6), (2, 7), (3, 2), (3, 4), (3, 5)}

TABLE_4_8 = """\
bases (4,8)  combined base 64  [cells hold leading base-64 digits; . = empty]
      j1=1   j1=2   j1=3
j2=1  1      8-11   12-15
j2=2  16-23  2      .
j2=3  24-31  .      3
j2=4  4      32-39  .
j2=5  5      40-47  .
j2=6  6      .      48-55
j2=7  7      .      56-63
excluded pairs: (2,3) (2,6) (2,7) (3,2) (3,4) (3,5)
"""


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE criterion {number}: FAIL — {description}")
                raise
            elapsed = time.perf_counter() - start
            extra = f" [{detail}]" if detail else ""
            print(
                f"ACCEPTANCE criterion {number}: PASS — {description}"
                f"{extra} ({elapsed:.2f}s)"
            )

        return run

    return wrap


def dependent_pairs_in_scope():
    """All dependent (b1, b2), both orientations: root 2..5, coprime
    exponents <= 4, bases >= 3, combined base <= 10**6."""
    pairs = set()
    for a in range(2, 6):
        for e1 in range(1, 5):
            for e2 in range(1, 5):
                if e1 == e2 or gcd(e1, e2) != 1:
                    continue
                b1, b2 = a**e1, a**e2
                if min(b1, b2) < 3 or a ** (e1 * e2) > 10**6:
                    continue
                pairs.add((b1, b2))
    return sorted(pairs)


@criterion(1, "Example table for bases (4,8): exact grid, 15 attainable, 6 excluded")
def test_criterion_1_example_table(capsys):
    start = time.perf_counter()
    code = cli_main(["table", "--bases", "4,8"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == TABLE_4_8  # D = 32 sits in cell (2,4): see row j2=4
    report = image_exact(4, 8)
    assert report.excluded == frozenset(EXCLUDED_4_8)
    assert report.counts == (15, 6)
    assert elapsed < 1.0, f"table rendering took {elapsed:.3f}s, budget 1s"
    return f"runtime {elapsed:.3f}s < 1s"


@criterion(2, "dual-route equivalence: power-criterion image == table image")
def test_criterion_2_dual_route():
    pairs = dependent_pairs_in_scope()
    assert len(pairs) == 30  # 15 unordered pairs, both orientations
    start = time.perf_counter()
    for b1, b2 in pairs:
        dep = pair_dependence(b1, b2)
        assert dep is not None, (b1, b2)
        assert dep.combined_base <= 10**6
        assert image_via_table(dep) == image_exact(b1, b2).attainable, (b1, b2)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"dual-route sweep took {elapsed:.1f}s, budget 60s"
    return f"{len(pairs)} ordered pairs in {elapsed:.1f}s < 60s"


@criterion(3, "brute-force realization: integers 1..b-1 realize the exact image")
def test_criterion_3_brute_force_realization():
    for b1, b2 in dependent_pairs_in_scope():
        dep = pair_dependence(b1, b2)
        observed = image_observed((b1, b2), dep.combined_base - 1)
        assert observed == image_exact(b1, b2).attainable, (b1, b2)
    return f"{len(dependent_pairs_in_scope())} pairs"


@criterion(4, "digit-set partition law and power-base refinement, zero failures")
def test_criterion_4_partition_and_refinement():
    # partition law across the full domain: the per-digit ranges tile [1, b**e)
    checked = 0
    for b in range(3, 51):
        for e in range(1, 5):
            if b**e > 2**24:
                continue
            ranges = sorted(
                r for j in range(1, b) for r in digit_set_ranges(b, e, j)
            )
            assert ranges[0][0] == 1
            for (_, hi1), (lo2, _) in zip(ranges, ranges[1:]):
                assert hi1 == lo2, (b, e)
            assert ranges[-1][1] == b**e
            checked += 1
    assert checked == 48 * 4  # every (b, e) pair is within the 2**24 cap
    # materialized sets: element-wise disjoint cover wherever b**e <= 2**16
    for b in range(3, 51):
        for e in range(1, 5):
            if b**e > 2**16:
                continue
            members = []
            for j in range(1, b):
                s = digit_set(b, e, j)
                assert len(s) == (b**e - 1) // (b - 1)
                members.extend(s.members)
            assert sorted(members) == list(range(1, b**e)), (b, e)
    # refinement equivalence on 10**4 seeded random rationals, b <= 20, e <= 3
    rng = random.Random(0x1EAD)
    for _ in range(10**4):
        x = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        b = rng.randint(3, 20)
        e = rng.randint(1, 3)
        assert leading_digit(x, b) == refine_digit(leading_digit(x, b**e), b, e)
    return "192 (b,e) tilings, 10^4 refinement samples"


@criterion(5, "dependence detection agrees with exhaustive search on 3..256")
def test_criterion_5_dependence_exhaustive():
    start = time.perf_counter()
    # oracle: all roots a <= 256 reaching b via exponents e <= 8
    roots_of = {b: set() for b in range(3, 257)}
    for a in range(2, 257):
        pw = a
        for _ in range(8):
            if 3 <= pw <= 256:
                roots_of[pw].add(a)
            pw *= a
            if pw > 256:
                break
    checked = 0
    for b1 in range(3, 257):
        for b2 in range(b1 + 1, 257):
            dep = pair_dependence(b1, b2)
            assert (dep is not None) == bool(roots_of[b1] & roots_of[b2]), (b1, b2)
            if dep is not None:
                assert dep.a >= 2
                assert gcd(dep.e1, dep.e2) == 1
                assert dep.a**dep.e1 == b1 and dep.a**dep.e2 == b2
                assert b1**dep.e2 == b2**dep.e1 == dep.combined_base
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"dependence sweep took {elapsed:.1f}s, budget 10s"
    return f"{checked} pairs in {elapsed:.1f}s < 10s"


@criterion(6, "witness completeness for bases (3,10): all 18 targets, k <= 500")
def test_criterion_6_witness_completeness():
    for j1 in range(1, 3):
        for j2 in range(1, 10):
            r = find_witness(
                WitnessQuery(bases=(3, 10), target=(j1, j2), budget=500, anchor=0)
            )
            assert r.found, (j1, j2)
            assert r.k <= 500
            assert verify_witness(r.x, (3, 10), (j1, j2))
    r = find_witness(WitnessQuery(bases=(3, 10), target=(2, 9), budget=500))
    assert r.x == 2 * 3**14 == 9565938
    assert 9 * 10**6 <= r.x and r.x < 10**7  # exact integer comparisons
    return "18/18 found, (2,9) -> 9565938"


@criterion(7, "decidable negatives for (4,8): certified, window re-verified")
def test_criterion_7_decidable_negatives():
    dep = pair_dependence(4, 8)
    lo, hi = scan_window(dep)
    for j1, j2 in sorted(EXCLUDED_4_8):
        r = find_witness(WitnessQuery(bases=(4, 8), target=(j1, j2)))
        assert r.outcome == "not_attainable", (j1, j2)
        v = r.certificate
        assert v.pair == (j1, j2) and v.scan_range == (lo, hi)
        # exhaustive re-verification of the window
        for c in range(lo, hi + 1):
            assert not power_criterion_holds(dep.a, c, j1, j2), (j1, j2, c)
        # and the window provably covers all integers: its endpoints are
        # already outside the admissible interval, monotonically in c
        assert (j2 + 1) <= j1 * dep.a**-lo  # a**lo <= j1/(j2+1)
        assert dep.a**hi * j2 >= j1 + 1  # a**hi >= (j1+1)/j2
    # attainable targets are Found -- the pair never exhausts
    for j1 in range(1, 4):
        for j2 in range(1, 8):
            r = find_witness(WitnessQuery(bases=(4, 8), target=(j1, j2)))
            assert r.outcome != "exhausted", (j1, j2)
    return "6 certificates re-verified exhaustively; 21/21 decided"


@criterion(8, "torus diagnostics: normalization to 2^-64; integer scan realizes all 18")
def test_criterion_8_torus_diagnostics():
    for bases in [(4, 8), (3, 10), (5, 7, 11)]:
        total = total_measure(bases, precision=128)
        lo, hi = _endpoints(total)
        with mpmath.mp.workprec(200):
            tol = mpmath.mpf(2) ** -64
            assert 1 - tol <= lo <= 1 <= hi <= 1 + tol, bases
    rep = orbit_sample((3, 10), 10**6, sampler="integer-scan")
    # N = 10^6 provably misses exactly (2,9): the smallest integer with
    # digit tuple (2,9) in bases (3,10) is 2 * 3**14 = 9565938 > 10^6, the
    # same witness criterion 6 pins down.  At N = 10^7 the scan realizes
    # all 18 rectangles.
    assert rep.rectangles_hit == 17
    missing = set(rep.measures) - set(rep.hit_counts)
    assert missing == {(2, 9)}
    assert 10**6 < 2 * 3**14 < 10**7
    rep7 = orbit_sample((3, 10), 10**7, sampler="integer-scan")
    assert rep7.rectangles_hit == 18
    assert image_observed((3, 10), 10**7) == set(rep7.hit_counts)
    # diagnostic band: density is the proven statement, not frequency;
    # deviations beyond the band warn rather than fail
    max_dev = rep.max_deviation()
    band = 0.05
    if max_dev > band:
        warnings.warn(
            f"integer-scan frequencies for (3,10) at N=10^6 deviate from "
            f"rectangle measures by up to {max_dev:.3f} (> {band}); integers "
            f"up to a bound are not log-equidistributed, so this is expected "
            f"and diagnostic only",
            UserWarning,
        )
    return (
        f"normalization within 2^-64; 17/18 at N=10^6 (minimal (2,9) witness "
        f"is 9565938 > 10^6), 18/18 at N=10^7; "
        f"max |freq-measure| = {max_dev:.3f} (band {band}, "
        f"{'within' if max_dev <= band else 'warned'})"
    )


@criterion(9, "n >= 3: dependent projections certified, found witnesses verify")
def test_criterion_9_three_base_properties():
    # a dependent projection that is excluded must be rejected with its
    # certificate, whatever the third base says
    r = find_witness(WitnessQuery(bases=(4, 8, 10), target=(2, 3, 7)))
    assert r.outcome == "not_attainable"
    assert r.obstruction == (0, 1)
    assert r.certificate.pair == (2, 3)
    for c in range(*r.certificate.scan_range):
        assert not power_criterion_holds(2, c, 2, 3)
    # pairwise-independent triples: every Found verifies exactly
    rng = random.Random(3)
    found = 0
    for _ in range(25):
        target = (rng.randint(1, 2), rng.randint(1, 9), rng.randint(1, 6))
        r = find_witness(WitnessQuery(bases=(3, 10, 7), target=target))
        if r.found:
            found += 1
            assert verify_witness(r.x, (3, 10, 7), target)
        else:
            assert r.outcome == "exhausted"
            assert "Schanuel" in r.assumption_note
    assert found >= 20  # the anchored scan lands essentially always
    return f"{found}/25 sampled triples found and verified"


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-v"])
