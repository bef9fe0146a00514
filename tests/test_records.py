"""The frozen records against a frozen-dataclass oracle of the same fields.

Every record of the package is built on ``errors._Record`` rather than on
``dataclasses``.  Each record here is paired with a frozen dataclass
mirror whose fields are listed below by hand, and the two must agree on
repr, ==, hash, construction and defaults.
"""

import dataclasses
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jointdigits
from jointdigits import (
    DEFAULT_BUDGET,
    AttainabilityVerdict,
    CoverageReport,
    DependencePair,
    DependenceReport,
    DigitSet,
    FrequencyVector,
    ImageReport,
    JointTable,
    PrimitiveRoot,
    Rectangle,
    WitnessQuery,
    WitnessResult,
    attainable_by_power_criterion,
    digit_set,
    find_witness,
    frequency_vector,
    image_exact,
    joint_table,
    orbit_sample,
    pair_dependence,
    pairwise_report,
    primitive_root,
    rectangle_of,
)
from jointdigits.errors import _Record

# (name, default) for a field with a default; a Field for one left out of ==
ORACLE_FIELDS = {
    PrimitiveRoot: ("root", "exponent"),
    DependencePair: ("a", "e1", "e2"),
    DependenceReport: ("bases", "dependent_pairs"),
    DigitSet: ("base", "exponent", "digit", "members"),
    AttainabilityVerdict: ("pair", "attainable", "certificate", "scan_range"),
    JointTable: ("dep", "combined_base", "runs"),
    ImageReport: ("bases", "dependence", "rows"),
    FrequencyVector: ("bases", "precision", "omega"),
    Rectangle: ("bases", "digits", "precision", "lows", "highs"),
    CoverageReport: ("bases", "sampler", "samples", "precision", "hit_counts",
                     "boundary_ambiguous", "measures"),
    WitnessQuery: ("bases", "target", ("budget", DEFAULT_BUDGET), ("anchor", 0),
                   ("retry_other_anchors", True)),
    WitnessResult: ("outcome", ("bases", ()), ("target", ()), ("x", None),
                    ("anchor_index", None), ("k", None), ("certificate", None),
                    ("obstruction", None), ("k_reached", None),
                    ("assumption_note", dataclasses.field(default=None, compare=False))),
}


def _oracle(cls):
    spec = []
    for f in ORACLE_FIELDS[cls]:
        if isinstance(f, str):
            spec.append(f)
        else:
            name, default = f
            if not isinstance(default, dataclasses.Field):
                default = dataclasses.field(default=default)
            spec.append((name, object, default))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


ORACLES = {cls: _oracle(cls) for cls in ORACLE_FIELDS}


def names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(ORACLES[cls])]


def mirror(rec):
    """The oracle dataclass holding the record's field values."""
    return ORACLES[type(rec)](**{f: getattr(rec, f) for f in names(type(rec))})


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as e:
        return TypeError, str(e)


def test_oracle_covers_every_record_of_the_package():
    records = {obj for obj in vars(jointdigits).values()
               if isinstance(obj, type) and issubclass(obj, _Record)}
    assert records == set(ORACLE_FIELDS)


# --- valid instances, from the public constructors ---------------------------

small_base = st.integers(3, 40)
coprime_exponents = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
    lambda e: e[0] != e[1] and gcd(*e) == 1
)


@st.composite
def dependence_pairs(draw):
    a = draw(st.integers(2, 4))
    e1, e2 = draw(coprime_exponents.filter(lambda e: a ** min(e) >= 3))
    return pair_dependence(a**e1, a**e2)


@st.composite
def distinct_bases(draw, n_min=2, n_max=3):
    return tuple(draw(st.lists(small_base, min_size=n_min, max_size=n_max, unique=True)))


@st.composite
def digit_sets(draw):
    b, e = draw(st.integers(3, 7)), draw(st.integers(1, 3))
    return digit_set(b, e, draw(st.integers(1, b - 1)))


@st.composite
def verdicts(draw):
    dep = draw(dependence_pairs())
    j1 = draw(st.integers(1, dep.base1 - 1))
    return attainable_by_power_criterion(dep, j1, draw(st.integers(1, dep.base2 - 1)))


@st.composite
def image_reports(draw):
    b1, b2 = draw(st.sampled_from([(4, 8), (8, 4), (9, 27), (3, 10), (6, 10), (4, 32)]))
    return image_exact(b1, b2, allow_independent=True)


@st.composite
def targets(draw, bases):
    return tuple(draw(st.integers(1, b - 1)) for b in bases)


@st.composite
def rectangles(draw):
    bases = draw(distinct_bases())
    return rectangle_of(bases, draw(targets(bases)), precision=draw(st.sampled_from([53, 80])))


@st.composite
def coverage_reports(draw):
    bases = draw(st.sampled_from([(3, 10), (4, 8), (5, 6, 7)]))
    sampler = draw(st.sampled_from(["integer-scan", "geometric", "low-discrepancy"]))
    return orbit_sample(bases, draw(st.integers(1, 60)), sampler)


@st.composite
def witness_queries(draw):
    bases = draw(distinct_bases())
    return WitnessQuery(bases, draw(targets(bases)), budget=draw(st.integers(1, 50)),
                        anchor=draw(st.integers(0, len(bases) - 1)),
                        retry_other_anchors=draw(st.booleans()))


RECORDS = {
    PrimitiveRoot: st.integers(3, 300).map(primitive_root),
    DependencePair: dependence_pairs(),
    DependenceReport: distinct_bases(2, 4).map(pairwise_report),
    DigitSet: digit_sets(),
    AttainabilityVerdict: verdicts(),
    JointTable: dependence_pairs().filter(lambda d: d.combined_base <= 4096).map(joint_table),
    ImageReport: image_reports(),
    FrequencyVector: distinct_bases(2, 3).map(frequency_vector),
    Rectangle: rectangles(),
    CoverageReport: coverage_reports(),
    WitnessQuery: witness_queries(),
    WitnessResult: witness_queries().map(find_witness),
}

records = st.sampled_from(sorted(RECORDS, key=lambda c: c.__name__)).flatmap(RECORDS.get)


# --- the differential checks ---------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(records)
def test_repr_eq_hash_match_the_dataclass(rec):
    m = mirror(rec)
    assert repr(rec) == repr(m)
    assert hash_or_error(rec) == hash_or_error(m)
    assert rec == type(rec)(**vars(rec)) and not rec != type(rec)(**vars(rec))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(RECORDS, key=lambda c: c.__name__)).flatmap(
    lambda cls: st.tuples(RECORDS[cls], RECORDS[cls])))
def test_equality_of_two_records_is_that_of_their_mirrors(pair):
    r1, r2 = pair
    m1, m2 = mirror(r1), mirror(r2)
    assert (r1 == r2, r1 != r2) == (m1 == m2, m1 != m2)
    if r1 == r2:
        assert hash_or_error(r1) == hash_or_error(r2)


@settings(max_examples=40, deadline=None)
@given(records)
def test_positional_and_keyword_construction_match(rec):
    cls, values = type(rec), [getattr(rec, f) for f in names(type(rec))]
    assert list(vars(rec)) == names(cls)
    by_position, by_keyword = cls(*values), cls(**dict(zip(names(cls), values)))
    assert repr(by_position) == repr(by_keyword) == repr(rec)
    assert by_position == by_keyword == rec


@settings(max_examples=40, deadline=None)
@given(records)
def test_records_are_frozen(rec):
    before = repr(rec)
    for f in [*names(type(rec)), "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert repr(rec) == before


@pytest.mark.parametrize("cls", sorted(ORACLE_FIELDS, key=lambda c: c.__name__))
def test_wrong_arguments_are_refused_as_by_the_dataclass(cls):
    n = len(names(cls))
    for args, kwargs in [((), {}), ((None,) * (n + 1), {}), ((), {"not_a_field": 1})]:
        with pytest.raises(TypeError) as expected:
            ORACLES[cls](*args, **kwargs)
        with pytest.raises(TypeError) as got:
            cls(*args, **kwargs)
        assert str(got.value) == str(expected.value)


def test_defaults_match_the_dataclass():
    q = WitnessQuery((3, 10), (2, 9))
    assert repr(q) == repr(ORACLES[WitnessQuery]((3, 10), (2, 9)))
    assert q == WitnessQuery(bases=(3, 10), target=(2, 9), budget=DEFAULT_BUDGET,
                             anchor=0, retry_other_anchors=True)
    r = WitnessResult("exhausted")
    assert repr(r) == repr(ORACLES[WitnessResult]("exhausted"))
    assert r == WitnessResult("exhausted", (), (), None, None, None, None, None, None, None)


def test_assumption_note_is_not_compared():
    r1 = WitnessResult("exhausted", (3, 10, 7), (2, 9, 5), k_reached=1, assumption_note="a")
    r2 = WitnessResult("exhausted", (3, 10, 7), (2, 9, 5), k_reached=1, assumption_note="b")
    assert r1 == r2 and hash(r1) == hash(r2)
    assert mirror(r1) == mirror(r2) and hash(mirror(r1)) == hash(mirror(r2))
    assert repr(r1) != repr(r2)
    assert r1 != WitnessResult("exhausted", (3, 10, 7), (2, 9, 5), k_reached=2,
                               assumption_note="a")


def test_records_of_other_classes_are_unequal():
    class Twin(_Record):
        a: int
        e1: int
        e2: int

    dep, twin = DependencePair(2, 2, 3), Twin(2, 2, 3)
    assert repr(twin) == "test_records_of_other_classes_are_unequal.<locals>.Twin(a=2, e1=2, e2=3)"
    assert dep != twin and twin != dep and not dep == twin
    assert dep != mirror(dep) and mirror(dep) != dep
    assert dep != (2, 2, 3) and dep.__eq__(twin) is NotImplemented


@pytest.mark.parametrize("cls, args", [
    (DependencePair, (2, 2, 4)),
    (DependencePair, (1, 1, 2)),
    (DependencePair, (2, 2.0, 3)),
    (PrimitiveRoot, (1, 1)),
    (PrimitiveRoot, (2, 0)),
    (WitnessQuery, ((3, 10), (2,))),
    (WitnessQuery, ((3, 10), (2, 9), 10, 2)),
])
def test_post_init_still_validates(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


def test_post_init_normalises_before_freezing():
    q = WitnessQuery([3, 10], [2, 9])
    assert (q.bases, q.target) == ((3, 10), (2, 9))
    assert q == WitnessQuery((3, 10), (2, 9))


@pytest.mark.skipif(sys.flags.optimize > 0, reason="this is the run under -O")
def test_this_file_passes_under_optimize_flag():
    # python -O strips assert statements: validation may not rest on them
    env = dict(os.environ)
    src = str(Path(jointdigits.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
