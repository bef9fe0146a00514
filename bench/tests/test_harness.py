"""Self-tests of the benchmark harness: python3 -m pytest -q bench/tests"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checkers  # noqa: E402
import queries  # noqa: E402
import spans  # noqa: E402
from run import tail  # noqa: E402


# ------------------------------------------------------------- tail rule


@pytest.mark.parametrize("n", [11, 12, 45, 100, 1000])
def test_tail_has_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * (n - 10) / n)


def test_tail_is_the_highest_such_percentile():
    values = [float(v) for v in range(100)]
    value, pct = tail(values)
    assert (value, pct) == (89.0, 90.0)
    # one rank higher leaves only nine samples beyond
    assert sum(v > 90.0 for v in values) == 9


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# -------------------------------------------------------- span self time


def test_self_time_on_a_synthetic_tree():
    # (name, start, end, busy, count, parent, query)
    records = [
        ("cli.main", 0.0, 10.0, 10.0, 1, -1, 0),
        ("image.image_exact", 1.0, 7.0, 6.0, 1, 0, 0),
        ("digits.check_digit", 2.0, 6.5, 2.5, 100, 1, 0),  # merged leaf calls
        ("dependence.pair_dependence", 8.0, 9.0, 1.0, 1, 0, 0),
        ("digits.iter_digit_tuples", 9.0, 9.9, 0.4, 1, 0, 0),  # generator: busy < span
    ]
    assert spans.self_times(records) == [10 - 6 - 1 - 0.4, 6 - 2.5, 2.5, 1.0, 0.4]
    totals = spans.layer_totals(records)
    assert totals["digits"]["calls"] == 101
    assert totals["digits"]["self_s"] == pytest.approx(2.9)
    assert totals["cli"]["self_s"] == pytest.approx(2.6)
    layers = ("cli", "digits", "dependence", "image")
    assert sum(totals[k]["self_s"] for k in layers) == pytest.approx(10.0)


def _fake_layers(tracer):
    def leaf(x):
        return x + 1

    def inner_same_layer(x):
        return x

    def count_up(n):
        yield from range(n)

    leaf = spans._wrap(tracer, leaf, "b.leaf", "b")
    inner_same_layer = spans._wrap(tracer, inner_same_layer, "a.inner", "a")
    count_up = spans._wrap(tracer, count_up, "b.count_up", "b")

    def outer(n):
        total = sum(leaf(i) for i in range(n))  # consecutive leaf calls
        total += inner_same_layer(0)  # same layer: no span
        return total + sum(count_up(n))

    return spans._wrap(tracer, outer, "a.outer", "a")


def test_tracer_records_layer_crossings_only_and_merges_leaves():
    tracer = spans.Tracer()
    outer = _fake_layers(tracer)
    tracer.current_query = 7
    assert outer(5) == 15 + 10
    records = tracer.records()
    assert [(r[0], r[4], r[5], r[6]) for r in records] == [
        ("a.outer", 1, -1, 7),
        ("b.leaf", 5, 0, 7),
        ("b.count_up", 1, 0, 7),
    ]
    own = spans.self_times(records)
    assert sum(own) == pytest.approx(records[0][3])
    assert all(t >= 0 for t in own)


def test_instrument_patches_and_restores_every_importer():
    import jointdigits.cli
    import jointdigits.image

    original = jointdigits.image.image_exact
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert jointdigits.cli.image_exact is jointdigits.image.image_exact
        assert jointdigits.cli.image_exact is not original
        with redirect_stdout(io.StringIO()):
            assert jointdigits.cli.main(["coverage", "--bases", "3,10", "--samples", "50"]) == 0
    assert jointdigits.cli.image_exact is original
    names = [r[0] for r in tracer.records()]
    assert names[0] == "cli.main"
    assert "torus.orbit_sample" in names and "torus.measure_map" in names
    assert "digits.iter_digit_tuples" in names
    assert "torus.CoverageReport.to_json_dict" in names


# ------------------------------------------------------------- checkers


def _answer(argv):
    import jointdigits.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert jointdigits.cli.main(list(argv)) == 0
    return buf.getvalue()


def _corrupt_json(out, edit):
    d = json.loads(out)
    edit(d)
    return json.dumps(d, sort_keys=True) + "\n"


def _flip_first_excluded(d):
    pair = d["excluded"].pop(0)
    d["excluded_count"] -= 1
    d["attainable_count"] += 1
    for p in d["pairs"]:
        if p["pair"] == pair:
            p["attainable"], p["certificate_c"] = True, 0


def _bump_count(d):
    d["cells"][0]["count"] += 1
    d["cells"][1]["count"] -= 1


def _move_witness(d):
    d["x"] = str(int(d["x"]) * 3)


CORRUPTIONS = [
    (("digit", "--base", "7", "--x", "1000/3"), lambda out: f"{int(out) % 6 + 1}\n"),
    (("image", "--bases", "4,8"), lambda out: _corrupt_json(out, _flip_first_excluded)),
    (("image", "--bases", "8,4", "--output", "text"), lambda out: out.replace("excluded: (3,2)\n", "")),
    (("table", "--bases", "4,8"), lambda out: out.replace("8-11 ", "8-12 ").replace("12-15", "13-15")),
    (("witness", "--bases", "3,10", "--target", "2,9"), lambda out: _corrupt_json(out, _move_witness)),
    (("witness", "--bases", "4,8,10", "--target", "2,3,5", "--output", "text"),
     lambda out: out.replace("c range (-4, 3)", "c range (-1, 3)")),
    (("coverage", "--bases", "3,10", "--samples", "1000"), lambda out: _corrupt_json(out, _bump_count)),
    (("deps", "--bases", "4,8,10"), lambda out: out.replace("a=2", "a=4")),
]


@pytest.mark.parametrize("argv,corrupt", CORRUPTIONS, ids=[" ".join(c[0]) for c in CORRUPTIONS])
def test_checker_accepts_the_answer_and_rejects_a_corruption(argv, corrupt):
    out = _answer(argv)
    checker = checkers.Checker()
    assert checker.check(list(argv), out) is None
    bad = corrupt(out)
    assert bad != out
    assert checker.check(list(argv), bad) is not None


def test_exhausted_witness_is_rescanned():
    argv = ["witness", "--bases", "3,10", "--target", "2,9", "--budget", "5", "--output", "text"]
    out = _answer(argv)
    assert out.startswith("exhausted at k=5:")
    assert checkers.Checker().check(argv, out) is None
    # with budget 20 the walk of anchor 0 hits at k=14 (x = 2 * 3**14)
    argv[6] = "20"
    assert checkers.Checker().check(argv, out.replace("k=5:", "k=20:")) is not None


def test_scan_hits_matches_a_per_integer_scan():
    bases = (3, 10, 4)
    want = {}
    for x in range(1, 5000):
        t = tuple(checkers.lead(x, b) for b in bases)
        want[t] = want.get(t, 0) + 1
    assert checkers.scan_hits(bases, 4999) == want


# ------------------------------------------------------------- generator


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    a = queries.generate(workload, 5, rounds=4)
    assert a == queries.generate(workload, 5, rounds=4)
    assert queries.digest(a) != queries.digest(queries.generate(workload, 6, rounds=4))
    assert all(len(r) == len(a[0]) for r in a)


def test_generator_digest_does_not_depend_on_hash_seed():
    code = ("import queries; print(queries.digest(queries.generate('witness-digits', 3, 3)))")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_hard_witness_targets_exhaust_their_budget():
    for bases, target, anchor in queries.HARD_TARGETS[:2]:
        assert checkers.WalkScan(bases, target, anchor).first_hit(queries.HARD_STEPS) is None


def test_benchmark_json_lists_what_the_harness_prints():
    import layers
    from run import END_TO_END

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(queries.WORKLOADS)
    for section, table in (("end_to_end", END_TO_END), ("per_layer", layers.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in doc[section]} == table
