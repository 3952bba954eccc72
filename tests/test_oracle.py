import json
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trimsum.digits import DigitString, parse
from trimsum.families import TestRule, apply_once
from trimsum.oracle import divides, fuzz_equivalence, random_digit_string, remainder


def test_remainder_examples():
    assert remainder(parse("32184"), 7) == 5  # 32184 = 7*4597 + 5
    assert remainder(parse("0"), 97) == 0
    assert remainder(parse("32184"), 8) == 0
    assert remainder(parse("-14"), 7) == 0
    assert remainder(parse("-15"), 7) == 6


def test_remainder_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        remainder(parse("5"), 0)
    with pytest.raises(ValueError):
        remainder(parse("5"), -7)


def test_divides_examples():
    assert divides(parse("32184"), 7) is False
    assert divides(parse("32184"), 8) is True
    assert divides(parse("0"), 1) is True


@given(
    v=st.integers(min_value=-(10**40), max_value=10**40),
    q=st.integers(min_value=1, max_value=10**9),
    k=st.integers(min_value=-1000, max_value=1000),
)
def test_remainder_is_stable_under_multiples_of_q(v, q, k):
    assert remainder(DigitString.from_int(v + q * k), q) == remainder(DigitString.from_int(v), q)


@given(
    v=st.integers(min_value=-(10**40), max_value=10**40),
    base=st.sampled_from([2, 7, 10, 16]),
    q=st.integers(min_value=1, max_value=10**6),
)
def test_remainder_matches_integer_mod(v, base, q):
    assert remainder(DigitString.from_int(v, base), q) == v % q


def test_remainder_exhaustive_below_one_million():
    for v in range(10**6):
        ds = DigitString.from_int(v)
        neg = DigitString(-1, 10, ds.digits) if v else ds
        for q in (7, 9, 11, 13):
            assert remainder(ds, q) == v % q
            assert remainder(neg, q) == -v % q


def test_random_digit_string_is_canonical_and_bounded():
    rng = random.Random(99)
    for _ in range(2000):
        ds = random_digit_string(rng, base=10, max_digits=25)
        assert 1 <= len(ds) <= 25
        assert parse(ds.render()) == ds


def test_fuzz_equivalence_known_rules():
    assert fuzz_equivalence(TestRule.trim(7), 1000, seed=42).mismatches == 0
    assert fuzz_equivalence(TestRule.sum(39), 1000, seed=7).mismatches == 0
    # the binomial weight for q=10 is zero: the test collapses to the last digit
    assert fuzz_equivalence(TestRule.binomial(10), 200, seed=3).mismatches == 0


def test_fuzz_equivalence_is_deterministic():
    first = fuzz_equivalence(TestRule.trim(13), 500, max_digits=40, seed=2024)
    second = fuzz_equivalence(TestRule.trim(13), 500, max_digits=40, seed=2024)
    assert first == second
    assert json.dumps(first.as_json()) == json.dumps(second.as_json())


def test_fuzz_report_json_shape():
    report = fuzz_equivalence(TestRule.talmud(), 50, max_digits=12, seed=5)
    doc = report.as_json()
    assert list(doc) == ["rule", "trials", "mismatches", "mean_length_drop", "seed"]
    assert doc["rule"]["family"] == "talmud"
    assert doc["trials"] == 50 and doc["seed"] == 5


def test_fuzz_rejects_zero_trials():
    with pytest.raises(ValueError):
        fuzz_equivalence(TestRule.trim(7), 0)


def test_trim_length_drop_reported_not_asserted(capsys):
    # general-q version of the shrink property: measured, violations reported
    rng = random.Random(314)
    violations = 0
    for _ in range(2000):
        q = rng.randrange(1, 10**4, 2)
        if q % 5 == 0:
            continue
        rule = TestRule.trim(q)
        a = random_digit_string(rng, max_digits=30, signed=False)
        if len(a) > len(DigitString.from_int(rule.omega)) + 2 and len(apply_once(a, rule)) >= len(a):
            violations += 1
    print(f"trim length-drop violations beyond len(omega)+2: {violations}")


def test_fuzz_memory_does_not_grow_with_trials():
    rule = TestRule.trim(7)
    tracemalloc.start()
    try:
        report = fuzz_equivalence(rule, trials=10_000, max_digits=1, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.mismatches == 0
    assert peak < 32 * 1024
