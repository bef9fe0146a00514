"""Witness-search tests: anchored scans, certificates, observed images."""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import jointdigits

from jointdigits import (
    ResourceLimitError,
    WitnessQuery,
    WitnessResult,
    attainable_by_power_criterion,
    find_witness,
    image_exact,
    image_observed,
    leading_digit,
    leading_digit_tuple,
    pair_dependence,
    verify_witness,
)
from jointdigits.dependence import _groups
from jointdigits.witness import _exhaustion_note


class TestFindWitness:
    def test_found_4_8_target_3_7(self):
        r = find_witness(WitnessQuery(bases=(4, 8), target=(3, 7)))
        assert r.found
        assert verify_witness(r.x, (4, 8), (3, 7))
        # anchor 0 candidates 3*4**k only reach cells (3,1),(3,3),(3,6);
        # the retry anchored at base 8 lands on 7*8 = 56 deterministically
        assert (r.x, r.anchor_index, r.k) == (56, 1, 1)

    def test_not_attainable_4_8_target_2_3(self):
        r = find_witness(WitnessQuery(bases=(4, 8), target=(2, 3)))
        assert r.outcome == "not_attainable"
        assert r.certificate.pair == (2, 3)
        assert not r.certificate.attainable
        assert r.obstruction == (0, 1)

    def test_known_witness_3_10_target_2_9(self):
        r = find_witness(WitnessQuery(bases=(3, 10), target=(2, 9)))
        assert r.found
        assert r.x == 2 * 3**14 == 9565938
        assert r.anchor_index == 0 and r.k == 14
        assert 9 * 10**6 <= r.x < 10**7

    def test_trivial_all_ones(self):
        r = find_witness(WitnessQuery(bases=(3, 10), target=(1, 1)))
        assert r.found and r.x == 1 and r.k == 0

    def test_anchor_selection(self):
        r = find_witness(WitnessQuery(bases=(3, 10), target=(2, 9), anchor=1))
        assert r.found
        assert r.anchor_index in (0, 1)
        assert verify_witness(r.x, (3, 10), (2, 9))

    def test_every_found_verifies(self):
        rng = random.Random(7)
        for _ in range(40):
            bases = tuple(rng.sample([3, 5, 6, 7, 10, 12], k=2))
            target = tuple(rng.randint(1, b - 1) for b in bases)
            r = find_witness(WitnessQuery(bases=bases, target=target))
            if r.found:
                assert verify_witness(r.x, bases, target)

    def test_decidable_negatives_for_dependent_pairs(self):
        # two dependent bases: always Found or NotAttainable, never Exhausted
        for b1, b2 in [(4, 8), (9, 27), (4, 16), (8, 16), (5, 125)]:
            exact = image_exact(b1, b2)
            for j1 in range(1, b1):
                for j2 in range(1, b2):
                    r = find_witness(WitnessQuery(bases=(b1, b2), target=(j1, j2)))
                    assert r.outcome != "exhausted", (b1, b2, j1, j2)
                    assert r.found == ((j1, j2) in exact.attainable)
                    if r.found:
                        assert verify_witness(r.x, (b1, b2), (j1, j2))

    def test_exhausted_carries_assumption_note(self):
        # three pairwise-independent bases, budget too small to land (7,9,4)
        r = find_witness(
            WitnessQuery(bases=(3, 10, 7), target=(2, 9, 5), budget=1)
        )
        assert r.outcome == "exhausted"
        assert r.k_reached == 1
        assert "Schanuel" in r.assumption_note
        assert "inconclusive" in r.assumption_note

    def test_exhausted_two_bases_notes_guarantee(self):
        r = find_witness(
            WitnessQuery(
                bases=(3, 10), target=(2, 9), budget=2, retry_other_anchors=False
            )
        )
        assert r.outcome == "exhausted"
        assert "guaranteed" in r.assumption_note

    def test_exhausted_dependent_pair_notes_periodic_scan(self):
        # (1, 3) is attainable for (4, 8), but 4**k only meets base-8 digits
        # 1, 2 and 4: no budget helps from anchor 0, while anchor 1 hits
        q = WitnessQuery(bases=(4, 8), target=(1, 3), budget=50, anchor=0,
                         retry_other_anchors=False)
        r = find_witness(q)
        assert r.outcome == "exhausted"
        assert "guaranteed" not in r.assumption_note
        assert "inconclusive" in r.assumption_note
        assert "other anchor" in r.assumption_note
        assert find_witness(WitnessQuery(bases=(4, 8), target=(1, 3), anchor=1)).x == 24

    def test_exhausted_with_a_dependent_pair_among_three(self):
        # (4, 8) are dependent, so the pairwise-independent Schanuel note is wrong
        r = find_witness(WitnessQuery(bases=(4, 8, 3), target=(1, 1, 2), budget=1))
        assert r.outcome == "exhausted"
        assert "Schanuel" not in r.assumption_note
        assert "dependent pair" in r.assumption_note
        assert "other anchor" not in r.assumption_note

    def test_stage1_rejects_dependent_projection_for_n3(self):
        # (4, 8) sit inside the tuple; target projects to excluded (2, 3)
        r = find_witness(WitnessQuery(bases=(4, 8, 10), target=(2, 3, 5)))
        assert r.outcome == "not_attainable"
        assert r.obstruction == (0, 1)
        assert r.certificate.pair == (2, 3)

    def test_three_independent_bases_found(self):
        r = find_witness(WitnessQuery(bases=(3, 10, 7), target=(2, 4, 3)))
        assert r.found
        assert verify_witness(r.x, (3, 10, 7), (2, 4, 3))

    def test_one_grouping_per_query(self, monkeypatch):
        # every anchor the query tries scans with the root groups of its first stage
        calls = []

        def counted(bases):
            calls.append(bases)
            return _groups(bases)

        monkeypatch.setattr(jointdigits.witness, "_groups", counted)
        r = find_witness(WitnessQuery(bases=(3, 10, 7), target=(2, 9, 5), budget=1))
        assert r.outcome == "exhausted"
        assert calls == [(3, 10, 7)]

    def test_only_a_rejecting_group_decides_pairs(self, monkeypatch):
        # each root group is decided by its one class; a power criterion is
        # read only inside a group that the class rejects
        calls = []

        def counted(dep, j1, j2):
            calls.append((j1, j2))
            return attainable_by_power_criterion(dep, j1, j2)

        monkeypatch.setattr(jointdigits.witness, "attainable_by_power_criterion", counted)
        # 56 has the digits (3, 7, 3) in 4, 8 and 16
        r = find_witness(WitnessQuery(bases=(4, 8, 16, 10), target=(3, 7, 3, 5)))
        assert r.found and calls == []
        # 9 and 27 exclude (4, 3): their base-3 mantissas [4/3, 5/3) and [1, 4/3) are apart
        r = find_witness(WitnessQuery(bases=(4, 8, 9, 27), target=(3, 7, 4, 3)))
        assert (r.outcome, r.obstruction, calls) == ("not_attainable", (2, 3), [(4, 3)])

    def test_a_rejected_group_without_an_excluding_pair_raises(self, monkeypatch):
        # the classes and the pairs' criteria are one condition (CRT and
        # Helly): a class that rejects a target every pair passes is a fault
        monkeypatch.setattr(jointdigits.witness, "_group_class", lambda a, members, target: None)
        with pytest.raises(RuntimeError, match="no pair of them excludes it"):
            find_witness(WitnessQuery(bases=(4, 8, 10), target=(3, 7, 5)))


def _run_child(code, *flags):
    """Run the code in a fresh interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(jointdigits.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)


def test_recheck_survives_optimize_flag():
    # python -O strips assert statements; the re-check must still raise
    code = textwrap.dedent(
        """
        import jointdigits.witness as w
        w._scan_anchor = lambda bases, group, rank, target, anchor, budget: (10, 0)
        try:
            w.find_witness(w.WitnessQuery(bases=(3, 10), target=(2, 9)))
        except RuntimeError as exc:
            print("raised:", exc)
        """
    )
    proc = _run_child(code, "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:")


def test_one_candidate_left_searches_no_return_gaps():
    # the class of 2**2..2**50 has the modulus lcm(2..50) > 10**21, so from
    # each of them k = 0 is the only candidate in budget: 11 and 7 hit there
    # and 3 misses, and no rotation by bases[anchor]**(M / e), a number of
    # over 10**21 bits, may be built for return times never taken.  Run in a
    # child with 512 MB of address space, where such a power fails at once
    code = textwrap.dedent(
        """
        import resource
        import jointdigits.witness as w
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
        calls, gaps = set(), w._return_gaps
        w._return_gaps = lambda anchor_base, *args: calls.add(anchor_base) or gaps(anchor_base, *args)
        bases = tuple(2**e for e in range(2, 51)) + (3, 5, 7, 11)
        r = w.find_witness(w.WitnessQuery(bases, (1,) * 49 + (2, 1, 1, 1), budget=50))
        print(r.outcome, calls <= {3, 5, 7, 11})
        """
    )
    proc = _run_child(code)
    assert (proc.returncode, proc.stdout) == (0, "exhausted True\n"), proc.stderr[-400:]


class TestAnchoringExactness:
    def test_anchored_candidates_pin_the_digit(self):
        rng = random.Random(99)
        for _ in range(60):
            b = rng.randint(3, 50)
            j = rng.randint(1, b - 1)
            k = rng.randint(0, 1000)
            assert leading_digit(j * b**k, b) == j


class TestWitnessQueryValidation:
    def test_rejects_mismatched_target(self):
        with pytest.raises(ValueError):
            WitnessQuery(bases=(3, 10), target=(1,))

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            WitnessQuery(bases=(3, 10), target=(3, 1))

    def test_rejects_single_base(self):
        with pytest.raises(ValueError):
            WitnessQuery(bases=(3,), target=(1,))

    def test_rejects_bad_budget_and_anchor(self):
        with pytest.raises(ValueError):
            WitnessQuery(bases=(3, 10), target=(1, 1), budget=0)
        # a bool, a float or a str is no index, though True and 1.0 are in range(2)
        for anchor in (2, -1, True, 1.0, "1"):
            with pytest.raises(ValueError, match="anchor"):
                WitnessQuery(bases=(3, 10), target=(1, 1), anchor=anchor)

    @pytest.mark.parametrize("budget", [2.5, True, "10", None])
    def test_rejects_non_int_budget(self, budget):
        with pytest.raises(ValueError, match="budget must be an int"):
            WitnessQuery(bases=(3, 10), target=(1, 1), budget=budget)

    def test_budget_cap_refuses_before_any_step(self, monkeypatch):
        def no_steps(*args):
            raise AssertionError("anchor scan started")

        monkeypatch.setattr(jointdigits.witness, "_scan_anchor", no_steps)
        query = WitnessQuery(bases=(3, 10), target=(2, 9), budget=11)
        with pytest.raises(ResourceLimitError):
            find_witness(query, budget_cap=10)


class TestVerifyWitness:
    def test_true_cases(self):
        assert verify_witness(56, (4, 8), (3, 7))
        assert verify_witness(1, (4, 8, 10), (1, 1, 1))

    def test_false_cases(self):
        assert not verify_witness(9, (4, 8), (2, 2))  # 9 -> (2, 1)
        assert not verify_witness(56, (4, 8), (3, 6))
        assert not verify_witness(56, (4, 8), (3,))


class TestImageObserved:
    def test_4_8_to_63_realizes_image(self):
        observed = image_observed((4, 8), 63)
        assert observed == image_exact(4, 8).attainable
        assert len(observed) == 15

    def test_x_max_one(self):
        assert image_observed((4, 8, 10), 1) == {(1, 1, 1)}

    def test_monotone_in_x_max(self):
        prev = frozenset()
        for x_max in (1, 5, 20, 63, 200):
            cur = image_observed((4, 8), x_max)
            assert prev <= cur
            prev = cur

    def test_subset_of_exact_image(self):
        exact = image_exact(9, 27).attainable
        for x_max in (10, 100, 728, 5000):
            assert image_observed((9, 27), x_max) <= exact

    def test_scan_cap(self):
        with pytest.raises(ResourceLimitError):
            image_observed((4, 8), 100, cap=99)

    @pytest.mark.parametrize("x_max", [2.5, True, "10", None])
    def test_rejects_non_int_x_max(self, x_max):
        with pytest.raises(ValueError, match="x_max must be an int"):
            image_observed((3, 10), x_max)


class TestWitnessResultJson:
    def test_found_round_trip(self):
        r = find_witness(WitnessQuery(bases=(3, 10), target=(2, 9)))
        payload = r.to_json_dict()
        assert payload["verified"] is True
        assert payload["x"] == "9565938"
        rebuilt = WitnessResult.from_json_dict(payload)
        assert rebuilt.x == r.x and rebuilt.outcome == r.outcome

    @pytest.mark.parametrize(
        "bases, target, budget",
        [((3, 10), (2, 9), 5000), ((3, 10), (2, 9), 3), ((4, 8), (3, 7), 5000),
         ((4, 8), (2, 3), 5000), ((4, 8, 10), (1, 1, 9), 5000), ((10, 4, 8), (7, 3, 4), 5000),
         ((3, 10, 7), (2, 9, 5), 1)],
    )
    def test_every_outcome_round_trips_exactly(self, bases, target, budget):
        payload = find_witness(WitnessQuery(bases=bases, target=target, budget=budget)).to_json_dict()
        assert WitnessResult.from_json_dict(payload).to_json_dict() == payload

    def test_found_rejects_non_witnesses(self):
        payload = find_witness(WitnessQuery(bases=(3, 10), target=(2, 9))).to_json_dict()
        five = dict(payload, x="5", k=0)  # digits (1, 5)
        # 2 * 3**15 is on the anchor's orbit but has base-10 digit 2
        off_orbit_digit = dict(payload, x=str(2 * 3**15), k=15)
        wrong_k = dict(payload, k=13)
        wrong_anchor = dict(payload, anchor=1)
        huge_k = dict(payload, k=10**12)  # refused before 3**k is taken
        float_k = dict(payload, k=14.0)
        bool_anchor = dict(payload, anchor=False)
        # 9 * 10**7 is a witness from anchor 1, which index -1 must not stand for
        negative_anchor = dict(payload, x=str(9 * 10**7), anchor=-1, k=7)
        # x only as its canonical decimal string; verified is recomputed
        other_x = [dict(payload, x=x) for x in (9565938, "09565938", "9_565_938", float("inf"))]
        unverified = dict(payload, verified=False)
        # a non-witness whose payload owns up to it is still refused
        owned_up = dict(off_orbit_digit, verified=False)
        assert WitnessResult.from_json_dict(dict(negative_anchor, anchor=1)).anchor_index == 1
        for bad in (five, off_orbit_digit, wrong_k, wrong_anchor, huge_k, float_k, bool_anchor,
                    negative_anchor, *other_x, unverified, owned_up):
            with pytest.raises(ValueError):
                WitnessResult.from_json_dict(bad)

    def test_big_witness_round_trips_under_the_default_guard(self):
        # x = 2 * 3**13585 has 6,482 digits: past the 4300 that str() and int()
        # take by default, so x is printed by halves and read back from (anchor, k)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            r = find_witness(WitnessQuery((3, 10, 17, 19), (2, 9, 16, 18), budget=30_000,
                                          retry_other_anchors=False))
            assert (r.anchor_index, r.k) == (0, 13585)
            payload = json.loads(json.dumps(r.to_json_dict()))
            assert len(payload["x"]) == 6482
            assert WitnessResult.from_json_dict(payload) == r
        finally:
            sys.set_int_max_str_digits(limit)

    def test_big_witness_prints_under_the_lowest_guard(self):
        # 640 digits, the least limit Python accepts: x is printed in parts
        # no longer than that
        r = find_witness(WitnessQuery((3, 10, 17, 19), (2, 9, 16, 18), budget=30_000,
                                      retry_other_anchors=False))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(r.x)
            sys.set_int_max_str_digits(640)
            payload = r.to_json_dict()
        finally:
            sys.set_int_max_str_digits(limit)
        assert payload["x"] == expected

    def test_found_k_is_bounded_by_the_anchor_base_too(self):
        # b**k <= x < 2**(4 * len(x)) bounds k * (bit_length(b) - 1): from a
        # 997-bit base, k = 2999 would build about 900,000 digits for 1000
        payload = dict(find_witness(WitnessQuery(bases=(3, 10), target=(2, 9))).to_json_dict(),
                       bases=[3, 10**300 + 1], x="1" * 1000, anchor=1, k=2999)
        with pytest.raises(ValueError, match="cannot give the payload's x"):
            WitnessResult.from_json_dict(payload)

    def test_not_attainable_rejects_bad_certificates(self):
        payload = find_witness(WitnessQuery(bases=(4, 8, 10), target=(2, 3, 1))).to_json_dict()
        assert payload["obstruction"] == [0, 1]
        independent = dict(payload, obstruction=[1, 2])
        reversed_pair = dict(payload, obstruction=[1, 0])
        out_of_range = dict(payload, obstruction=[0, 3])
        forged = dict(payload, certificate=dict(payload["certificate"], attainable=True,
                                                certificate_c=7))
        wrong_window = dict(payload, certificate=dict(payload["certificate"], scan_range=[0, 1]))
        attainable = dict(payload, target=[2, 1, 1])
        # the attainable verdict of (2, 1) certifies nothing
        attained = dict(attainable, certificate=attainable_by_power_criterion(
            pair_dependence(4, 8), 2, 1).to_json_dict())
        bool_pair = dict(payload, obstruction=[False, True])
        bool_independent = dict(payload, obstruction=[True, 2])
        for bad in (independent, reversed_pair, out_of_range, forged, wrong_window, attainable,
                    attained, bool_pair, bool_independent):
            with pytest.raises(ValueError):
                WitnessResult.from_json_dict(bad)

    def test_not_attainable_reads_back_only_the_first_excluding_pair(self):
        # (8, 32) excludes (2, 3) too, but find_witness names the first pair, (4, 32)
        payload = find_witness(WitnessQuery(bases=(4, 8, 32), target=(2, 2, 3))).to_json_dict()
        assert payload["obstruction"] == [0, 2]
        verdict = attainable_by_power_criterion(pair_dependence(8, 32), 2, 3)
        assert not verdict.attainable
        later = dict(payload, obstruction=[1, 2], certificate=verdict.to_json_dict())
        with pytest.raises(ValueError, match="canonical JSON"):
            WitnessResult.from_json_dict(later)

    def test_exhausted_rejects_bad_fields(self):
        payload = find_witness(
            WitnessQuery(bases=(3, 10, 7), target=(2, 9, 5), budget=1)
        ).to_json_dict()
        for bad in (dict(payload, k_reached=0), dict(payload, k_reached="1"),
                    dict(payload, assumption_note="a witness cannot exist")):
            with pytest.raises(ValueError):
                WitnessResult.from_json_dict(bad)

    def test_rejects_invalid_query_fields(self):
        payload = find_witness(WitnessQuery(bases=(3, 10), target=(2, 9))).to_json_dict()
        for bad in (dict(payload, bases=[3, 3]), dict(payload, target=[2, 10]),
                    dict(payload, target=[2]), dict(payload, outcome="maybe")):
            with pytest.raises(ValueError):
                WitnessResult.from_json_dict(bad)

    def test_not_attainable_round_trip(self):
        r = find_witness(WitnessQuery(bases=(4, 8), target=(2, 3)))
        rebuilt = WitnessResult.from_json_dict(r.to_json_dict())
        assert rebuilt.certificate == r.certificate
        assert rebuilt.obstruction == r.obstruction

    def test_exhausted_round_trip(self):
        r = find_witness(WitnessQuery(bases=(3, 10, 7), target=(2, 9, 5), budget=1))
        rebuilt = WitnessResult.from_json_dict(r.to_json_dict())
        assert rebuilt.outcome == "exhausted"
        assert rebuilt.k_reached == 1

    @pytest.mark.parametrize("query", [
        WitnessQuery((4, 8), (1, 3), budget=50, retry_other_anchors=False),
        WitnessQuery((4, 8, 3), (1, 1, 2), budget=1),
    ])
    def test_exhausted_note_follows_the_bases(self, query):
        payload = find_witness(query).to_json_dict()
        rebuilt = WitnessResult.from_json_dict(payload)
        assert rebuilt.assumption_note == payload["assumption_note"]
        # the note of pairwise-independent bases is refused for these bases
        independent_note = _exhaustion_note(_groups((3, 10, 7)[:len(query.bases)]))
        with pytest.raises(ValueError):
            WitnessResult.from_json_dict(dict(payload, assumption_note=independent_note))

    def test_digit_tuple_recheck_on_big_witness(self):
        r = find_witness(WitnessQuery(bases=(3, 10), target=(2, 7)))
        assert r.found
        assert leading_digit_tuple(r.x, (3, 10)) == (2, 7)
