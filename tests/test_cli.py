"""CLI tests: subcommands, output formats, exit statuses, determinism."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jointdigits.cli

from jointdigits import (
    CoverageReport,
    DependencePair,
    DependenceReport,
    ImageReport,
    JointTable,
    ResourceLimitError,
    WitnessQuery,
    find_witness,
    image_exact,
    joint_table,
    leading_digit,
    orbit_sample,
    pair_dependence,
    pairwise_report,
)
from jointdigits.cli import main

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDigit:
    def test_text(self, capsys):
        code, out, err = run(capsys, "digit", "--base", "4", "--x", "56")
        assert (code, out, err) == (0, "3\n", "")

    def test_rational_input(self, capsys):
        code, out, _ = run(capsys, "digit", "--base", "10", "--x", "1/3")
        assert (code, out) == (0, "3\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "digit", "--base", "4", "--x", "56", "--output", "json")
        assert code == 0
        assert json.loads(out) == {"base": 4, "x": "56", "digit": 3}

    @pytest.mark.parametrize("bad", ["1e3", "1.5", "-2", "0"])
    def test_rejects_inexact_x(self, capsys, bad):
        code, out, err = run(capsys, "digit", "--base", "10", "--x", bad)
        assert code == 1 and out == "" and "error" in err

    def test_rejects_small_base(self, capsys):
        code, _, err = run(capsys, "digit", "--base", "2", "--x", "7")
        assert code == 1 and "base" in err

    # a 2000-digit p/q, and 7**1000 and its reciprocal, taken before the
    # repeated-squares split replaced the doubling-and-bisection search
    BIG = f"{13**1795}/{4 * 11**1919 + 1}"

    @pytest.mark.parametrize(
        "base, x, output, digest",
        [
            ("3", BIG, "text", "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
            ("3", BIG, "json", "e364b323cd81e0f085cf17a9d8820d3d2f69a42a06dcdf7999f8e72609e64517"),
            ("10", BIG, "text", "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
            ("10", BIG, "json", "2279fd696eac3b2c5b846e23d6a9756468340726ac6294add0344ef7636207a0"),
            ("37", BIG, "text", "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
            ("37", BIG, "json", "3ce14fce42fc60214e144084482b417b371151678caf31c1035a35b5ecbd48ee"),
            ("10", str(7**1000), "text",
             "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
            ("10", str(7**1000), "json",
             "76c75670b04800148054c23a3809740efeaeecf966c919a5869ef48399964f77"),
            ("10", f"1/{7**1000}", "text",
             "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58"),
            ("10", f"1/{7**1000}", "json",
             "635c2c55bcb8793a96169548461e3a1a572b3fab13c1d720e8a544099baea97e"),
        ],
        ids=[f"{b}-{x}-{o}" for b, x in [("3", "big"), ("10", "big"), ("37", "big"),
                                          ("10", "7^1000"), ("10", "7^-1000")]
             for o in ("text", "json")],
    )
    def test_golden(self, capsys, base, x, output, digest):
        code, out, _ = run(capsys, "digit", "--base", base, "--x", x, "--output", output)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @given(p=st.integers(1, 10**40), q=st.integers(1, 10**40), g=st.integers(2, 10**30),
           b=st.integers(3, 1000))
    def test_unreduced_terms(self, p, q, g, b):
        # p*g / q*g is split unreduced; its digit is that of the reduced p/q
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["digit", "--base", str(b), "--x", f"{p * g}/{q * g}"]) == 0
        assert buf.getvalue() == f"{leading_digit(Fraction(p, q), b)}\n"

    def test_long_literal_reads_prefixes(self, capsys, monkeypatch):
        # two 50,000-digit terms, read from their first 40 digits each; the
        # repeated blocks cancel, so x is 1234567891/9876543211
        x = f"{'1234567891' * 5000}/{'9876543211' * 5000}"
        digit = leading_digit(Fraction(1234567891, 9876543211), 7)
        monkeypatch.setattr(jointdigits.digits, "_parse_decimal", mock.Mock(side_effect=AssertionError))
        assert run(capsys, "digit", "--base", "7", "--x", x) == (0, f"{digit}\n", "")
        code, out, _ = run(capsys, "digit", "--base", "7", "--x", f" {x} ", "--output", "json")
        assert (code, out) == (0, json.dumps({"base": 7, "digit": digit, "x": x}) + "\n")

    @pytest.mark.parametrize(
        "base, x, digit",
        [
            ("3", f"{486 * 7**60}/{7**60}", 2),  # 2 * 3**5, on a digit edge
            ("10", str(7**1000), int(str(7**1000)[0])),  # one term of 846 digits
        ],
        ids=["edge", "length-gap"],
    )
    def test_edge_and_length_gap_parse_in_full(self, capsys, monkeypatch, base, x, digit):
        parse = mock.Mock(wraps=jointdigits.digits._parse_decimal)
        monkeypatch.setattr(jointdigits.digits, "_parse_decimal", parse)
        assert run(capsys, "digit", "--base", base, "--x", x) == (0, f"{digit}\n", "")
        assert parse.called

    @pytest.mark.parametrize(
        "x, err",
        [
            ("0/5", "error: expected a positive value: '0/5'\n"),
            ("5/0", "error: zero denominator: '5/0'\n"),
            ("000/7", "error: expected a positive value: '000/7'\n"),
            ("7/000", "error: zero denominator: '7/000'\n"),
            ("\u0660/\u0663", "error: expected a positive value: '\u0660/\u0663'\n"),
            ("0" * 50 + "/" + "7" * 50, f"error: expected a positive value: '{'0' * 50}/{'7' * 50}'\n"),
            ("1" * 50 + "/" + "0" * 50, f"error: zero denominator: '{'1' * 50}/{'0' * 50}'\n"),
        ],
        ids=["0/5", "5/0", "000/7", "7/000", "arabic-indic-0/3", "long-0/7", "long-1/0"],
    )
    def test_zero_terms_keep_their_errors(self, capsys, x, err):
        assert run(capsys, "digit", "--base", "10", "--x", x) == (1, "", err)


class TestDeps:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "deps", "--bases", "4,8,10")
        assert code == 0
        assert "4 ~ 8: dependent, a=2 e1=2 e2=3 combined_base=64" in out
        assert "all pairwise independent: no" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "deps", "--bases", "4,8,10", "--output", "json")
        assert code == 0
        report = DependenceReport.from_json_dict(json.loads(out))
        assert report.bases == (4, 8, 10)
        assert len(report.dependent_pairs) == 1

    def test_independent_tuple(self, capsys):
        code, out, _ = run(capsys, "deps", "--bases", "3,10")
        assert code == 0
        assert "all pairwise independent: yes" in out

    def test_duplicate_bases_rejected(self, capsys):
        code, _, err = run(capsys, "deps", "--bases", "4,4")
        assert code == 1 and "distinct" in err

    def test_huge_base_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "deps", "--bases", f"3,{10**2500 + 1}")
        assert (code, out) == (1, "") and err.startswith("error:") and "cap" in err
        assert time.perf_counter() - start < 5

    def test_combined_base_past_the_cap_leaves_stdout_empty(self, capsys):
        # five dependent pairs print fine; the sixth, 2**2039 ~ 2**2029, has a
        # combined base of 2**4137131 and is refused before any line is out
        argv = ("deps", "--bases", f"4,8,{2**2039},{2**2029}")
        results = [run(capsys, *argv, "--output", output) for output in ("text", "json")]
        err = "error: combined base 2**4137131 exceeds cap of 14281 bits\n"
        assert results == [(1, "", err), (1, "", err)]


class TestTable:
    def test_golden_grid(self, capsys):
        code, out, err = run(capsys, "table", "--bases", "4,8")
        assert code == 0 and err == ""
        assert out == TABLE_4_8

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--bases", "9,729", "--output", "json"),
             "15cbf64a4b98cd2afad85cfe750b44a2b7a37adf430be3070bdfe4e5b6f0c264"),
            (("--bases", "512,8", "--output", "text"),
             "9070dc71389e67d88cc23dac0719c01e8caae922a9fdc9be667d3834de60049d"),
            # taken from the per-cell dicts through json.dumps, before the
            # JSON was written straight from the runs
            (("--bases", "4,1024", "--output", "json"),
             "af99b8ee9036a953a448f886505d6b240cdd5c3ec24e12c7f07dc1afe81fd81b"),
            (("--bases", "16,64", "--output", "json"),
             "45c89eac6e15a5fe9c777cf74ac9875abbbe0fdf22842668740945ad371b3de1"),
        ],
    )
    def test_golden(self, capsys, argv, digest):
        code, out, _ = run(capsys, "table", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "table", "--bases", "4,8", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["combined_base"] == 64
        assert payload["excluded"] == [[2, 3], [2, 6], [2, 7], [3, 2], [3, 4], [3, 5]]
        rebuilt = JointTable.from_json_dict(payload)
        assert rebuilt == joint_table(pair_dependence(4, 8))

    def test_independent_bases_fail(self, capsys):
        code, out, err = run(capsys, "table", "--bases", "3,10")
        assert code == 1 and out == "" and "independent" in err

    def test_needs_two_bases(self, capsys):
        code, out, err = run(capsys, "table", "--bases", "4,8,16")
        assert (code, out) == (1, "") and "two bases" in err

    def test_enum_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("JOINTDIGITS_ENUM_CAP", "50")
        code, _, err = run(capsys, "table", "--bases", "4,8")
        assert code == 1 and "cap" in err

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_digit_pairs_past_the_cap_refused_at_once(self, capsys, output):
        # the combined base 2**24 is at its cap, but the grid would hold
        # 4095 * (2**24 - 1) cells: refused as image refuses it
        start = time.perf_counter()
        code, out, err = run(capsys, "table", "--bases", "4096,16777216", "--output", output)
        assert (code, out, err) == (1, "", "error: digit pairs 68702695425 exceeds cap 16777216\n")
        assert time.perf_counter() - start < 5


def _run_segments(runs):
    """A grid cell: each run as "start" or "start-last", "." for no run."""
    if not runs:
        return "."
    return ",".join(str(start) if stop == start + 1 else f"{start}-{stop - 1}"
                    for start, stop in runs)


def _table_text_oracle(b1, b2):
    """table's text stdout, laid out as before the header became a row of the grid,
    from a dense grouping of the runs with one entry per digit pair."""
    table = joint_table(pair_dependence(b1, b2))
    lines = [
        f"bases ({b1},{b2})  combined base {table.combined_base}"
        f"  [cells hold leading base-{table.combined_base} digits; . = empty]"
    ]
    by_pair = {(j1, j2): [] for j2 in range(1, b2) for j1 in range(1, b1)}
    for start, stop, pair in table.runs:
        by_pair[pair].append((start, stop))
    grid = [
        [_run_segments(by_pair[(j1, j2)]) for j1 in range(1, b1)]
        for j2 in range(1, b2)
    ]
    headers = [f"j1={j1}" for j1 in range(1, b1)]
    label_w = max(len(f"j2={j2}") for j2 in range(1, b2))
    widths = [
        max(len(headers[c]), max(len(row[c]) for row in grid))
        for c in range(b1 - 1)
    ]
    lines.append(
        (" " * label_w + "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths))).rstrip()
    )
    for j2, row in enumerate(grid, start=1):
        lines.append(
            (
                f"j2={j2}".ljust(label_w)
                + "  "
                + "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            ).rstrip()
        )
    excluded = [pair for pair in sorted(by_pair) if not by_pair[pair]]
    lines.append(
        "excluded pairs: "
        + (" ".join(f"({a},{b})" for a, b in excluded) if excluded else "none")
    )
    return "".join(line + "\n" for line in lines)


# every dependent pair, in both orientations, whose combined base is at most 2**12:
# distinct dependent bases share a canonical root a <= 2**6
DEPENDENT_PAIRS = sorted({
    (b1, b2)
    for a in range(2, 2**6 + 1)
    for b1 in (a**e for e in range(1, 13) if 3 <= a**e <= 2**12)
    for b2 in (a**e for e in range(1, 13) if 3 <= a**e <= 2**12)
    if b1 != b2 and pair_dependence(b1, b2).combined_base <= 2**12
})


class TestTableGrid:
    def test_dependent_pairs_are_complete(self):
        assert len(DEPENDENT_PAIRS) == 186
        assert {(4, 8), (8, 4), (4, 4096), (4096, 64), (63, 3969)} <= set(DEPENDENT_PAIRS)

    @given(st.sampled_from(DEPENDENT_PAIRS))
    # the TABLE_MEDIUM pairs of the exact-image benchmark
    @example((512, 8))
    @example((625, 5))
    @example((5, 625))
    # the largest grids, about 2.6e5 cells, take 1.5 s to lay out both ways
    @settings(max_examples=20, deadline=None)
    def test_text_matches_the_separate_header_layout(self, pair):
        b1, b2 = pair
        assert call(("table", "--bases", f"{b1},{b2}")) == (0, _table_text_oracle(b1, b2), "")


class TestImage:
    def test_json_default(self, capsys):
        code, out, _ = run(capsys, "image", "--bases", "4,8")
        assert code == 0
        payload = json.loads(out)
        assert payload["attainable_count"] == 15
        assert payload["excluded_count"] == 6
        report = ImageReport.from_json_dict(payload)
        assert report.excluded == {(2, 3), (2, 6), (2, 7), (3, 2), (3, 4), (3, 5)}

    def test_certificates_in_payload(self, capsys):
        _, out, _ = run(capsys, "image", "--bases", "4,8")
        pairs = {tuple(p["pair"]): p for p in json.loads(out)["pairs"]}
        assert pairs[(1, 1)]["certificate_c"] == 0
        assert pairs[(2, 3)]["certificate_c"] is None

    def test_independent_without_flag(self, capsys):
        code, out, err = run(capsys, "image", "--bases", "3,10")
        assert code == 1 and out == "" and "--allow-trivial" in err

    def test_independent_with_flag(self, capsys):
        code, out, _ = run(capsys, "image", "--bases", "3,10", "--allow-trivial")
        assert code == 0
        payload = json.loads(out)
        assert payload["attainable_count"] == 18
        assert all(p["certificate_c"] == "density" for p in payload["pairs"])

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "image", "--bases", "4,8", "--output", "text")
        assert code == 0
        assert "15 attainable, 6 excluded" in out

    def test_needs_two_bases(self, capsys):
        code, _, err = run(capsys, "image", "--bases", "4,8,16")
        assert code == 1 and "two bases" in err

    @pytest.mark.parametrize(
        "argv", [("--bases", "3,43046721"), ("--bases", "3,100000000", "--allow-trivial")]
    )
    def test_enumeration_cap(self, capsys, monkeypatch, argv):
        # tens of millions of pairs: refused before the first verdict is built
        def never(*args, **kwargs):
            raise AssertionError("built a verdict past the enumeration cap")

        monkeypatch.setattr("jointdigits.image.AttainabilityVerdict", never)
        code, out, err = run(capsys, "image", *argv)
        assert code == 1 and out == "" and err.startswith("error:") and "cap" in err

    # digests of the output of the per-pair c-window scan; the least-power
    # walk that replaced it must print the same bytes
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--bases", "81,243"),
             "bdaaa47402adf982bc340fd3d21e7c1d14c9c32619b5aafa2251ef019963c1b8"),
            (("--bases", "8,4"),
             "4151805bb4d38730bc8b63e32c6d27983ab3f6add1fb14b1af25488040262a28"),
            (("--bases", "125,25"),
             "054d1bbcf55c62ac1ad10570a15ab5c70c59aee4ed6eabd853e11943c5868edb"),
            (("--bases", "3,10", "--allow-trivial"),
             "789241087005f042fbc155b702aff2f1fd1bfbd22915065f6f036e9f8a397d9e"),
            (("--bases", "12,1728", "--output", "text"),
             "186e37e1d2813a5625d7b33f43e3f43ad683cecaaabad3ea1b8ead22aff87c0b"),
            # one pair of each image class of the exact-image benchmark,
            # taken from the per-pair verdicts before the row intervals
            (("--bases", "243,81", "--output", "json"),
             "20720d07950fa61eee1e0395b0d3180dc2ee15ef0dcce9dbfb5a6f2276e28f62"),
            (("--bases", "1296,6", "--output", "json"),
             "2901c5115c010e8bb1ac56de702d353566aacb78222ed7883be35a2facef7448"),
            (("--bases", "36,216", "--output", "json"),
             "a25e4dbeec652b11f3ff36eba3804f283f75d0c0007709d28003925b7759b090"),
            (("--bases", "729,27", "--output", "text"),
             "270e801df0700f74bd16f76dd0568a579540207003bdcbd3d33aa6fe9f83b31c"),
            (("--bases", "512,32", "--output", "text"),
             "0609c7e8d910018ef216970786c86a921f0514ecb1e0a8d757a20ffcd3da68df"),
            (("--bases", "61,97", "--allow-trivial"),
             "5c2a510ef802fafd46b1b59592c87c9522bbd9abe02568ca391af25c744af7bd"),
            # taken from the per-pair dicts through json.dumps, before the
            # JSON and text were written straight from the row intervals
            (("--bases", "6,1296"),
             "3617c40d9d490c3bb02bebb67a5350f8820363f5d403ef44e9324d9b12cd08c8"),
            (("--bases", "1728,12", "--output", "text"),
             "9b5733e415027c24198574716d2d49c2a162b9f509fe82c693018cc68225d08e"),
        ],
    )
    def test_golden(self, capsys, argv, digest):
        code, out, _ = run(capsys, "image", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWitness:
    def test_found_json(self, capsys):
        code, out, _ = run(capsys, "witness", "--bases", "3,10", "--target", "2,9")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "found"
        assert payload["x"] == "9565938"
        assert payload["anchor"] == 0
        assert payload["k"] == 14
        assert payload["verified"] is True

    def test_not_attainable_is_success(self, capsys):
        code, out, _ = run(capsys, "witness", "--bases", "4,8", "--target", "2,3")
        assert code == 0  # the query succeeded; the answer is negative
        payload = json.loads(out)
        assert payload["outcome"] == "not_attainable"
        assert payload["certificate"]["pair"] == [2, 3]

    def test_text_outputs(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--bases", "3,10", "--target", "2,9", "--output", "text"
        )
        assert code == 0 and "found x=9565938" in out
        code, out, _ = run(
            capsys, "witness", "--bases", "4,8", "--target", "2,3", "--output", "text"
        )
        assert code == 0 and "not attainable" in out

    def test_budget_and_exhaustion(self, capsys):
        code, out, _ = run(
            capsys,
            "witness", "--bases", "3,10,7", "--target", "2,9,5",
            "--budget", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "exhausted"
        assert payload["k_reached"] == 1
        assert "Schanuel" in payload["assumption_note"]

    @pytest.mark.parametrize("argv, line", [
        (("3,10", "2,9", "--no-retry-anchors"),
         "budget exhausted; for two multiplicatively independent bases a witness is "
         "guaranteed to exist (the joint digit map is surjective), so retry with a "
         "larger budget"),
        (("3,10,7", "2,9,5"),
         "budget exhausted; for three or more pairwise-independent bases, surjectivity "
         "of the joint digit map is conditional on the conjectured rational "
         "independence of the reciprocal logarithms 1/ln(b_i), which follows from "
         "Schanuel's conjecture -- exhaustion is inconclusive, not a certificate of "
         "non-attainability"),
        (("4,8,10", "3,6,9"),
         "budget exhausted; the target passes the power criterion of every dependent "
         "pair of the bases, so exhaustion is inconclusive, not a certificate of "
         "non-attainability"),
        (("4,8", "3,6", "--no-retry-anchors"),
         "budget exhausted; the target passes the power criterion of every dependent "
         "pair of the bases, so exhaustion is inconclusive, not a certificate of "
         "non-attainability; the anchored scan of a dependent pair is periodic, so "
         "retry from the other anchor"),
    ])
    def test_exhausted_text_golden(self, capsys, argv, line):
        bases, target, *flags = argv
        code, out, err = run(capsys, "witness", "--bases", bases, "--target", target,
                             "--budget", "1", "--output", "text", *flags)
        assert (code, out, err) == (0, f"exhausted at k=1: {line}\n", "")

    def test_anchor_flag(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--bases", "3,10", "--target", "2,9", "--anchor", "1"
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_invalid_target_digit(self, capsys):
        code, _, err = run(capsys, "witness", "--bases", "3,10", "--target", "3,1")
        assert code == 1 and "digit" in err

    @pytest.mark.parametrize("bases, target, flag", [("3,ten", "2,9", "bases"),
                                                     ("3,10", "2,nine", "target")])
    def test_non_integer_lists(self, capsys, bases, target, flag):
        code, out, err = run(capsys, "witness", "--bases", bases, "--target", target)
        assert (code, out) == (1, "") and f"{flag} must be comma-separated integers" in err

    def test_budget_above_default_cap_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "witness", "--bases", "3,10", "--target", "2,9", "--budget", "100000001"
        )
        assert (code, out) == (1, "") and err.startswith("error:") and "cap" in err
        assert time.perf_counter() - start < 5

    def test_budget_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("JOINTDIGITS_SCAN_CAP", "10")
        argv = ("witness", "--bases", "3,10,7", "--target", "2,9,5", "--budget")
        code, out, err = run(capsys, *argv, "11")
        assert (code, out) == (1, "") and "cap 10" in err
        code, out, _ = run(capsys, *argv, "10")
        assert code == 0 and json.loads(out)["k_reached"] == 10


class TestCoverage:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "coverage", "--bases", "3,10", "--samples", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 1000
        assert payload["sampler"] == "integer-scan"
        rebuilt = CoverageReport.from_json_dict(payload)
        assert rebuilt.samples == 1000

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "coverage", "--bases", "3,10", "--samples", "100", "--output", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tuple,count,measure"
        assert len(lines) == 19

    def test_text_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "coverage", "--bases", "4,8", "--samples", "63", "--output", "text",
        )
        assert code == 0
        assert "rectangles hit 15/21" in out

    def test_samplers_accepted(self, capsys):
        for sampler in ("geometric", "low-discrepancy"):
            code, out, _ = run(
                capsys,
                "coverage", "--bases", "3,10", "--samples", "50",
                "--sampler", sampler,
            )
            assert code == 0
            assert json.loads(out)["sampler"] == sampler

    # digests of the output of the interval-arithmetic classifier; the
    # fixed-point classifier that replaced it must print the same bytes
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--bases", "3,10,7", "--samples", "600", "--output", "csv"),
                "aa6e75a9d7f0ce58afce9fe193416c02aa8ac41201f59eb7af0ff8bb6850bff3",
            ),
            (
                ("--bases", "4,8", "--samples", "1500", "--output", "json"),
                "a2c42cebf1839af02b06934b482d5135b4e24f9c0042d15eafe3b028171065ed",
            ),
            (
                ("--bases", "3,10", "--samples", "400", "--window", "7",
                 "--precision", "53", "--output", "text"),
                "58d0482f05e54a14b3bfcc498a2db7827b217bea09a4bf8268e822b26e03d246",
            ),
        ],
    )
    def test_golden_low_discrepancy(self, capsys, argv, digest):
        code, out, _ = run(capsys, "coverage", "--sampler", "low-discrepancy", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_scan_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("JOINTDIGITS_SCAN_CAP", "10")
        code, _, err = run(capsys, "coverage", "--bases", "3,10", "--samples", "100")
        assert code == 1 and "cap" in err

    def test_precision_past_the_cap_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "coverage", "--bases", "3,10", "--samples", "10", "--precision", "1000000"
        )
        assert (code, out) == (1, "") and err.startswith("error:") and "cap" in err
        assert time.perf_counter() - start < 5


class TestUsageAndDeterminism:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["digit", "--base", "4", "--x", "5", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_caller_keeps_its_int_str_limit(self, capsys):
        # main lifts the int->str guard for its own call only, and gives the
        # caller its limit back after a normal return and after SystemExit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert run(capsys, "digit", "--base", "10", "--x", "1" + "0" * 5000) == (0, "1\n", "")
            assert sys.get_int_max_str_digits() == 4300
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "name, value, argv",
        [
            ("JOINTDIGITS_SCAN_CAP", "abc", ("witness", "--bases", "3,10", "--target", "2,9")),
            ("JOINTDIGITS_SCAN_CAP", "", ("coverage", "--bases", "3,10", "--samples", "5")),
            ("JOINTDIGITS_ENUM_CAP", "1e6", ("table", "--bases", "4,8")),
            ("JOINTDIGITS_SCAN_CAP", "-5", ("coverage", "--bases", "3,10", "--samples", "5")),
            ("JOINTDIGITS_SCAN_CAP", "0", ("witness", "--bases", "3,10", "--target", "2,9")),
            ("JOINTDIGITS_ENUM_CAP", "-1", ("table", "--bases", "4,8")),
        ],
    )
    def test_invalid_cap_variable_is_named(self, capsys, monkeypatch, name, value, argv):
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {name} must be an integer >= 1, got {value!r}\n"

    def test_bad_sampler_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--bases", "3,10", "--samples", "5", "--sampler", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--bases", "4,8"),
            ("image", "--bases", "4,8"),
            ("deps", "--bases", "4,8,10", "--output", "json"),
            ("witness", "--bases", "3,10", "--target", "2,9"),
            ("coverage", "--bases", "3,10", "--samples", "500"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


def _outputs(argv, *choices):
    return [(*argv, "--output", output) for output in choices]


# every subcommand with every --output, every help and version screen, and
# one of each kind of usage error
ARGV_POOL = [
    *_outputs(("digit", "--base", "10", "--x", "14/6"), "text", "json"),
    *_outputs(("deps", "--bases", "4,8,10"), "text", "json"),
    *_outputs(("image", "--bases", "4,8"), "text", "json"),
    *_outputs(("table", "--bases", "4,8"), "text", "json"),
    *_outputs(("witness", "--bases", "3,10", "--target", "2,9"), "text", "json"),
    *_outputs(("coverage", "--bases", "3,10", "--samples", "50"), "text", "json", "csv"),
    ("--help",),
    *((command, "--help") for command in jointdigits.cli._HANDLERS),
    ("--version",),
    ("frobnicate",),
    ("witness", "--bases", "3,10"),
    ("coverage", "--bases", "3,10", "--samples", "5", "--sampler", "x"),
    ("digit", "--base", "ten", "--x", "1"),
]


def call(argv):
    """Exit code, stdout and stderr of one in-process main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    @given(st.lists(st.sampled_from(ARGV_POOL), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_a_fresh_parser_per_call(self, argvs):
        # main parses every call with the parser of its first; the replaced
        # route built a fresh parser for each call
        jointdigits.cli._parser.cache_clear()
        reused = [call(argv) for argv in argvs]
        with mock.patch.object(jointdigits.cli, "_parser", jointdigits.cli.build_parser):
            fresh = [call(argv) for argv in argvs]
        assert reused == fresh

    def test_builds_its_parsers_on_the_first_call_only(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        jointdigits.cli._parser.cache_clear()
        counts = []
        for argv in (
            ("digit", "--base", "10", "--x", "1"),
            ("deps", "--bases", "4,8"),
            ("image", "--bases", "4,8"),
        ):
            before = len(built)
            assert run(capsys, *argv)[0] == 0
            counts.append(len(built) - before)
        # the top-level parser and one per subcommand, then none
        assert counts == [1 + len(jointdigits.cli._HANDLERS), 0, 0]

    def test_build_parser_gives_each_caller_its_own(self, capsys):
        argv = ("digit", "--base", "10", "--x", "1")
        assert run(capsys, *argv) == (0, "1\n", "")
        mine = jointdigits.cli.build_parser()
        assert mine is not jointdigits.cli.build_parser()
        # a subcommand's defaults override the top-level parser's, so the
        # change that bites is made on the digit subparser
        sub = next(a for a in mine._actions if isinstance(a, argparse._SubParsersAction))
        sub.choices["digit"].set_defaults(output="json")
        assert mine.parse_args(argv).output == "json"
        assert run(capsys, *argv) == (0, "1\n", "")

    def test_cap_variables_are_read_on_every_call(self, capsys, monkeypatch):
        argv = ("coverage", "--bases", "3,10", "--samples", "100")
        monkeypatch.delenv("JOINTDIGITS_SCAN_CAP", raising=False)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv("JOINTDIGITS_SCAN_CAP", "10")
        assert run(capsys, *argv) == (1, "", "error: n_samples 100 exceeds cap 10\n")

    def test_import_builds_no_parser_and_one_query_builds_one(self):
        out = run_fresh(
            "import contextlib, io\n"
            "import jointdigits.cli\n"
            "print(jointdigits.cli._parser.cache_info().misses)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    jointdigits.cli.main(['digit', '--base', '10', '--x', '1'])\n"
            "print(jointdigits.cli._parser.cache_info().misses)\n"
        )
        assert out == "0\n1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("digit", "--base", "10", "--x", "14/6", "--output", "json"),
        ("deps", "--bases", "4,8,10", "--output", "json"),
        ("image", "--bases", "4,8"),
        ("image", "--bases", "27,9"),
        ("image", "--bases", "3,10", "--allow-trivial"),
        ("table", "--bases", "4,8", "--output", "json"),
        ("table", "--bases", "27,9", "--output", "json"),
        ("witness", "--bases", "3,10", "--target", "2,9"),
        ("witness", "--bases", "4,8", "--target", "2,3"),
        ("witness", "--bases", "3,10,7", "--target", "2,9,5", "--budget", "1"),
        ("coverage", "--bases", "3,10", "--samples", "50"),
    ],
)
def test_json_is_one_sorted_key_line(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


# each report kind the CLI prints, with the library call that builds it
REPORTS = {
    "deps": (("deps", "--bases", "4,8,10,16"), lambda: pairwise_report((4, 8, 10, 16))),
    "image dependent": (("image", "--bases", "27,9"), lambda: image_exact(27, 9)),
    "image trivial": (("image", "--bases", "3,10", "--allow-trivial"),
                      lambda: image_exact(3, 10, allow_independent=True)),
    "table": (("table", "--bases", "9,27"), lambda: joint_table(pair_dependence(9, 27))),
    "witness found": (("witness", "--bases", "3,10", "--target", "2,9"),
                      lambda: find_witness(WitnessQuery((3, 10), (2, 9)))),
    "witness not attainable": (("witness", "--bases", "4,8", "--target", "2,3"),
                               lambda: find_witness(WitnessQuery((4, 8), (2, 3)))),
    "witness exhausted": (
        ("witness", "--bases", "3,10,7", "--target", "2,9,5", "--budget", "1"),
        lambda: find_witness(WitnessQuery((3, 10, 7), (2, 9, 5), budget=1))),
    **{f"coverage {sampler}": (
        ("coverage", "--bases", "3,10", "--samples", "200", "--sampler", sampler),
        lambda sampler=sampler: orbit_sample((3, 10), 200, sampler))
       for sampler in ("integer-scan", "geometric", "low-discrepancy")},
}


@pytest.mark.parametrize("kind", REPORTS)
def test_json_line_is_the_report_text_and_reads_back(capsys, kind):
    argv, build = REPORTS[kind]
    code, out, err = run(capsys, *argv, "--output", "json")
    obj = build()
    assert (code, out, err) == (0, obj.to_json_text() + "\n", "")
    line = out[:-1]
    assert type(obj).from_json_dict(json.loads(line)).to_json_text() == line


@pytest.mark.parametrize("kind", REPORTS)
def test_text_is_the_report_iter_text(capsys, kind):
    argv, build = REPORTS[kind]
    assert run(capsys, *argv, "--output", "text") == (0, "".join(build().iter_text()), "")


def fresh_env() -> dict:
    """Environment of a fresh interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(jointdigits.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_fresh(code: str) -> str:
    """Run Python code in a fresh interpreter; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=fresh_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyMpmath:
    def test_only_coverage_loads_mpmath(self):
        # a default coverage query loads no mpmath either: its log tables,
        # measure strings and deviations come from the integer tables
        out = run_fresh(
            "import contextlib, io, sys\n"
            "from jointdigits.cli import main\n"
            "queries = [\n"
            "    ['digit', '--base', '10', '--x', '1'],\n"
            "    ['deps', '--bases', '4,8,10'],\n"
            "    ['image', '--bases', '4,8'],\n"
            "    ['table', '--bases', '4,8'],\n"
            "    ['witness', '--bases', '3,10', '--target', '2,9'],\n"
            "]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(q) for q in queries]\n"
            "print(codes, 'mpmath' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['coverage', '--bases', '3,10', '--samples', '50'])\n"
            "print(code, 'mpmath' in sys.modules)\n"
        )
        assert out == "[0, 0, 0, 0, 0] False\n0 False\n"

    def test_import_loads_no_dataclasses_inspect_or_typing(self):
        # -S: no site module, which would have loaded typing before the package
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys\n"
             "before = set(sys.modules)\n"
             "import jointdigits.cli\n"
             "new = set(sys.modules) - before\n"
             "print(sorted(new & {'dataclasses', 'inspect', 'typing'}))\n"],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class ClosingPipe(io.StringIO):
    """A stdout on descriptor fd whose reader leaves after the first write."""

    def __init__(self, fd):
        super().__init__()
        self.fd, self.writes = fd, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError
        return super().write(text)

    def fileno(self):
        return self.fd


class TestSignals:
    def test_closed_pipe_exits_quietly(self):
        # 400 kB of text: far more than a pipe holds, so the writer must
        # still be writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "jointdigits.cli", "table", "--bases", "8,4096"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=fresh_env(),
        )
        assert proc.stdout.readline().startswith(b"bases (8,4096)")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(jointdigits.cli._HANDLERS, "deps", interrupted)
        assert main(["deps", "--bases", "4,8"]) == 130

    def test_closed_pipe_mid_report_exits_quietly(self, capsys, tmp_path):
        # the reader leaves after the first chunk of a streamed report
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            with redirect_stdout(ClosingPipe(fd)) as pipe:
                code = main(["image", "--bases", "16,4096", "--output", "json"])
        finally:
            os.close(fd)
        assert (code, pipe.writes, capsys.readouterr().err) == (1, 2, "")

    def test_closed_pipe_leaks_no_descriptor(self, capsys, tmp_path):
        # a long-lived caller of main meets many closed pipes
        def lowest_free():
            probe = os.open(os.devnull, os.O_RDONLY)
            os.close(probe)
            return probe

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            before, codes = lowest_free(), []
            for _ in range(5):
                with redirect_stdout(ClosingPipe(fd)):
                    codes.append(main(["table", "--bases", "8,4096"]))
            after = lowest_free()
        finally:
            os.close(fd)
        assert (codes, after, capsys.readouterr().err) == ([1] * 5, before, "")


class ByteCount(io.TextIOBase):
    """A stdout that keeps only the number of bytes written to it."""

    written = 0

    def write(self, text):
        self.written += len(text.encode())
        return len(text)


def traced_print(monkeypatch, argv, builder, report):
    """(exit code, bytes written, tracemalloc peak) of main(argv) printing a
    report built beforehand: what printing adds to the report itself."""
    monkeypatch.setattr(jointdigits.cli, builder, lambda *args, **kwargs: report)
    main(["deps", "--bases", "4,8", "--output", "json"])  # the parser, built once
    sink = ByteCount()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, sink.written, peak


class TestStreamedJson:
    @pytest.mark.parametrize("argv, builder, build", [
        (("table", "--bases", "16,4096", "--output", "json"), "joint_table",
         lambda: joint_table(pair_dependence(16, 4096))),
        (("image", "--bases", "16,4096", "--output", "json"), "image_exact",
         lambda: image_exact(16, 4096)),
    ])
    def test_memory_is_a_row_beyond_the_report(self, monkeypatch, argv, builder, build):
        # a text held whole would pass the bytes written.  The report is built
        # before tracing starts, since the (16,4096) table's own 4095 runs take
        # over a quarter of its 2.8 MB
        code, written, peak = traced_print(monkeypatch, argv, builder, build())
        assert code == 0
        assert written > 2_000_000
        assert peak < written / 4

    @pytest.mark.parametrize("b1, b2", [(16, 4096), (4096, 16)])
    def test_text_grid_memory_is_its_cells_not_its_grid(self, monkeypatch, b1, b2):
        # the grid holds each present pair's segment, not a cell per digit pair:
        # about 1 MB of text either way round
        table = joint_table(pair_dependence(b1, b2))
        argv = ("table", "--bases", f"{b1},{b2}", "--output", "text")
        code, written, peak = traced_print(monkeypatch, argv, "joint_table", table)
        assert code == 0
        assert written > 900_000
        assert peak < 1.5 * written

    @pytest.mark.parametrize("argv", [("image", "--bases", "4,8", "--output", "json"),
                                      ("table", "--bases", "4,8", "--output", "json")])
    def test_refusal_comes_before_the_first_chunk(self, capsys, monkeypatch, argv):
        def refuse(self):
            raise ResourceLimitError("combined base refused")

        monkeypatch.setattr(DependencePair, "to_json_text", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: combined base refused\n")
