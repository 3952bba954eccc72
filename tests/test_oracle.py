import dataclasses
import json
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trimsum import families, oracle
from trimsum.digits import DigitString, parse
from trimsum.families import TestRule, apply_once
from trimsum.oracle import MAX_DIGITS, MAX_TRIALS, divides, fuzz_equivalence, random_digit_string, remainder


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


def _reference_digit_string(rng, base, max_digits, signed):
    # random_digit_string's draws, made through Random's own methods
    n = rng.randint(1, max_digits)
    digits = [rng.randrange(base) for _ in range(n)]
    if n > 1:
        digits[-1] = rng.randrange(1, base)
    sign = -1 if signed and rng.random() < 0.2 else 1
    if digits == [0]:
        sign = 1
    return DigitString(sign, base, tuple(digits))


@pytest.mark.parametrize("base", [2, 3, 10, 36, 255, 256, 1000, 2**31 + 11])
@pytest.mark.parametrize("max_digits", [1, 60])
def test_random_digit_string_keeps_randoms_stream(base, max_digits):
    for seed in range(6):
        signed = seed % 3 != 0
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert random_digit_string(rng, base, max_digits, signed) == _reference_digit_string(
                reference, base, max_digits, signed
            )
        assert rng.getstate() == reference.getstate()


class _RandomThroughRandom(random.Random):
    """Overrides random() alone, so its randrange draws through random(), not getrandbits."""

    def random(self):
        return super().random()


@pytest.mark.parametrize("base", [2, 10, 36, 1000])
def test_random_digit_string_follows_a_subclass_stream(base):
    for seed in range(6):
        rng, reference = _RandomThroughRandom(seed), _RandomThroughRandom(seed)
        for _ in range(50):
            assert random_digit_string(rng, base, 20) == _reference_digit_string(reference, base, 20, True)
        assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize(
    "base,max_digits",
    [
        *((base, 60) for base in (1, 0, -1, -10, True, False, 2.0, 10.0, "10", None)),
        *((10, max_digits) for max_digits in (0, -1, MAX_DIGITS + 1, True, 1.0, "5", None)),
    ],
)
def test_random_digit_string_rejects_bad_arguments_before_any_draw(base, max_digits):
    rng = random.Random(8)
    state = rng.getstate()
    with pytest.raises(ValueError, match="base must be" if max_digits == 60 else "max_digits must be"):
        random_digit_string(rng, base, max_digits)
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "rng,signed",
    [
        (object(), True),  # raised AttributeError
        (None, True),
        (8, True),
        (random.Random(8), "no"),  # signed the result as True does
        (random.Random(8), 1),
        (random.Random(8), None),
    ],
)
def test_random_digit_string_rejects_a_bad_rng_or_signed_before_any_draw(rng, signed):
    state = rng.getstate() if isinstance(rng, random.Random) else None
    with pytest.raises(ValueError, match="rng must" if signed is True else "signed must"):
        random_digit_string(rng, 10, 60, signed)
    if state is not None:
        assert rng.getstate() == state


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


@pytest.mark.parametrize(
    "trials,max_digits,message",
    [
        (MAX_TRIALS + 1, 60, f"trials must be <= {MAX_TRIALS}"),
        (1, MAX_DIGITS + 1, f"max_digits must be <= {MAX_DIGITS}"),
    ],
)
def test_fuzz_caps_trials_and_digits_before_any_trial(monkeypatch, trials, max_digits, message):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(oracle, "random_digit_string", no_trial)
    with pytest.raises(ValueError, match=message):
        fuzz_equivalence(TestRule.trim(7), trials, max_digits)


@pytest.mark.parametrize(
    "call",
    [
        lambda: remainder(parse("5"), 7.5),  # returned 5.0
        lambda: remainder(parse("5"), True),
        lambda: fuzz_equivalence(TestRule.trim(7), 10.5),  # raised TypeError
        lambda: fuzz_equivalence(TestRule.trim(7), True),  # ran one trial
        lambda: fuzz_equivalence(TestRule.trim(7), 10, 60.0),
    ],
)
def test_oracle_rejects_non_int_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_fuzz_catches_a_step_that_keeps_divisibility_but_not_the_remainder(monkeypatch):
    # a negated trim step gives -omega * |a| (mod q): q | a is kept, the congruence is not
    trim = families.FAMILY_TABLE["trim"]
    negated = dataclasses.replace(trim, step=lambda d, r: -trim.step(d, r))
    monkeypatch.setitem(families.FAMILY_TABLE, "trim", negated)
    rule = TestRule.trim(7)
    rng, off_congruence = random.Random(0), 0
    for _ in range(1000):  # the draws fuzz_equivalence(rule, 1000, seed=0) makes
        a = random_digit_string(rng)
        assert divides(a, 7) == divides(apply_once(a, rule), 7)
        off_congruence += not divides(a, 7)  # -omega * |a| = omega * |a| only when 7 | a
    assert fuzz_equivalence(rule, 1000, seed=0).mismatches == off_congruence > 0


def test_fuzz_accepts_the_digit_cap():
    report = fuzz_equivalence(TestRule.last_digits(8), 2, max_digits=MAX_DIGITS, seed=1)
    assert report.trials == 2 and report.mismatches == 0


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: remainder("5", 7),  # raised AttributeError
        lambda: fuzz_equivalence("trim", 10),  # raised AttributeError
        lambda: fuzz_equivalence(TestRule.trim(7), 10, 5, "x"),  # reported seed='x'
        lambda: fuzz_equivalence(TestRule.trim(7), 10, 5, True),
    ],
)
def test_oracle_rejects_a_value_rule_or_seed_of_the_wrong_type(call):
    with pytest.raises(ValueError):
        call()
