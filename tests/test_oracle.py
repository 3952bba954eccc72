import dataclasses
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trimsum import families, oracle
from trimsum.digits import DigitString, parse
from trimsum.families import TestRule, apply_once
from trimsum.oracle import MAX_DIGITS, MAX_TRIALS, fuzz_equivalence, random_digit_string, remainder
from trimsum.weights import weight_inverse, weight_table


class _Int(int):
    pass


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
    assert remainder(parse("32184"), 7) != 0
    assert remainder(parse("32184"), 8) == 0
    assert remainder(parse("0"), 1) == 0


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


def _reference_digit_string(rng, base, max_digits):
    # random_digit_string's draws, made through Random's own methods
    n = rng.randint(1, max_digits)
    digits = [rng.randrange(base) for _ in range(n)]
    if n > 1:
        digits[-1] = rng.randrange(1, base)
    sign = -1 if rng.random() < 0.2 else 1
    if digits == [0]:
        sign = 1
    return DigitString(sign, base, tuple(digits))


@pytest.mark.parametrize("base", [2, 3, 10, 36, 255, 256, 1000, 2**31 + 11])
@pytest.mark.parametrize("max_digits", [1, 60])
def test_random_digit_string_keeps_randoms_stream(base, max_digits):
    """random() is drawn for the sign on every call, zero included."""
    for seed in range(6):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert random_digit_string(rng, base, max_digits) == _reference_digit_string(reference, base, max_digits)
        assert rng.getstate() == reference.getstate()


_REFUSED_RNG = "^rng must be a random.Random drawing from its own getrandbits, got "


class _RandomThroughRandom(random.Random):
    """Overrides random() alone, so its randrange draws through random(), not getrandbits."""

    def random(self):
        return super().random()


@pytest.mark.parametrize("base", [2, 10, 36, 1000])
def test_random_digit_string_follows_a_subclass_stream(base):
    """A subclass may draw otherwise, so it is refused before any draw: its stream goes on as an untouched one does."""
    for seed in range(6):
        rng, reference = _RandomThroughRandom(seed), _RandomThroughRandom(seed)
        with pytest.raises(ValueError, match=_REFUSED_RNG):
            random_digit_string(rng, base, 20)
        assert [rng.randrange(base) for _ in range(20)] == [reference.randrange(base) for _ in range(20)]


@pytest.mark.parametrize("base", [*range(2, 37), 37, 256, 257, 1000, 2**32 + 5])
def test_random_digit_strings_pass_the_check_they_skip(base):
    """A random.Random's draws build their value without __post_init__; each one is exactly what
    DigitString(...) builds from its parts, and passes every check on the way."""
    for max_digits, draws in ((1, 30), (2, 30), (65, 30), (4301, 3)):
        rng = random.Random(f"{base}-{max_digits}")
        for i in range(draws):
            s = random_digit_string(rng, base, max_digits)
            assert type(s) is DigitString and DigitString(s.sign, s.base, s.digits) == s, (base, max_digits, i)


class _DuckRng:
    """Would draw one good length, then give every digit draw the value it was made with."""

    def __init__(self, bad):
        self.bad, self.draws = bad, iter([2])  # randrange(max_digits) = 2: three digits

    def randrange(self, *args):
        return next(self.draws, self.bad)

    def random(self):
        return 0.5


class _RandomSubclass(_DuckRng, random.Random):
    """The same draws from a random.Random subclass."""


def _bad_getrandbits(bad):
    """A random.Random with a getrandbits of its own set on the instance: one good length, then bad."""
    rng = random.Random(0)
    rng.draws = iter([2])
    rng.getrandbits = lambda k: next(rng.draws, bad)
    return rng


@pytest.mark.parametrize(
    "make,bad",
    [
        *((make, bad) for make in (_RandomSubclass, _DuckRng) for bad in (True, -1, 10, 1.5)),
        *((_bad_getrandbits, bad) for bad in (True, -1, 1.5)),  # 10 would be drawn again for ever
    ],
)
def test_a_custom_rngs_digits_are_still_checked(make, bad):
    """Only a random.Random's own getrandbits draws skip DigitString's checks. A subclass, a duck-typed
    rng or a getrandbits set on the instance may draw anything, so it is refused before any draw."""
    rng = make(bad)
    state = rng.getstate() if type(rng) is random.Random else None
    with pytest.raises(ValueError, match=_REFUSED_RNG):
        random_digit_string(rng, 10, 60)
    assert next(rng.draws) == 2  # the length was not drawn
    if state is not None:
        assert rng.getstate() == state


@pytest.mark.parametrize(
    "base,max_digits",
    [
        *((base, 60) for base in (1, 0, -1, -10, True, False, 2.0, 10.0, "10", None)),
        *((10, max_digits) for max_digits in (0, -1, MAX_DIGITS + 1, True, 1.0, "5", None)),
    ],
)
def test_random_digit_string_rejects_bad_arguments_before_any_draw(base, max_digits):
    """A base or digit cap that is not exactly an int is refused by name and type."""
    rng = random.Random(8)
    state = rng.getstate()
    name, value = ("base", base) if max_digits == 60 else ("max_digits", max_digits)
    kind = f"an integer, got {type(value).__name__} " if type(value) is not int else "[<>]= "
    with pytest.raises(ValueError, match=f"^{name} must be {kind}"):
        random_digit_string(rng, base, max_digits)
    assert rng.getstate() == state


@pytest.mark.parametrize("rng", [object(), None, 8])  # object() raised AttributeError
def test_random_digit_string_rejects_a_bad_rng_before_any_draw(rng):
    with pytest.raises(ValueError, match=_REFUSED_RNG + re.escape(repr(rng)) + "$"):
        random_digit_string(rng, 10, 60)


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


@pytest.mark.parametrize("bad", [True, _Int(7), 7.0, [0] * 3400])
@pytest.mark.parametrize(
    "name,call",
    [
        ("modulus", lambda bad: remainder(parse("5"), bad)),  # _Int(7) printed "modulus must be an int, got 7"
        ("trials", lambda bad: fuzz_equivalence(TestRule.trim(7), bad)),
        ("max_digits", lambda bad: fuzz_equivalence(TestRule.trim(7), 10, bad)),
        ("seed", lambda bad: fuzz_equivalence(TestRule.trim(7), 10, 5, bad)),
        ("base", lambda bad: random_digit_string(random.Random(8), bad)),
        ("max_digits", lambda bad: random_digit_string(random.Random(8), 10, bad)),
    ],
)
def test_oracle_int_arguments_name_their_type(name, call, bad):
    """Each int argument is refused by name and type, with the value cut short (a long list printed whole)."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {type(bad).__name__} ") as error:
        call(bad)
    assert len(str(error.value)) < 200


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: remainder(parse("5"), -(10**5000)), "modulus must be >= 1, got -<5001-digit int>"),
        (lambda: TestRule.trim(-(10**5000)), "divisor must be >= 1, got -<5001-digit int>"),
        (lambda: TestRule.trim(_Int(10**5000)), "q must be an integer, got _Int <5001-digit int>"),
        (lambda: DigitString.from_int(5, -(10**5000)), "base must be >= 2, got -<5001-digit int>"),
        (
            lambda: weight_inverse(10**5001, 10),
            "q=<5002-digit int> and base=10 share a factor; no trimming weight exists",
        ),
        (
            lambda: TestRule.last_digits(10**5000 + 1),
            "q=<5001-digit int> divides no power of base 10; no last-digits test",
        ),
        (lambda: fuzz_equivalence(TestRule.trim(7), 10**5000), f"trials must be <= {MAX_TRIALS}, got <5001-digit int>"),
        (
            lambda: weight_table(2 * 10**5000),
            "no base-10 trimming weight for q=<5001-digit int>: last digit must be 1, 3, 7 or 9",
        ),
    ],
)
def test_a_huge_int_argument_is_named_in_a_short_message(call, message):
    """These raised Python's own "Exceeds the limit (4300 digits)" error, which names no argument."""
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == message and len(message) < 200


def test_fuzz_catches_a_step_that_keeps_divisibility_but_not_the_remainder(monkeypatch):
    # a negated trim step gives -omega * |a| (mod q): q | a is kept, the congruence is not
    trim = families.FAMILY_TABLE["trim"]
    negated = dataclasses.replace(trim, step=lambda d, r: -trim.step(d, r))
    monkeypatch.setitem(families.FAMILY_TABLE, "trim", negated)
    rule = TestRule.trim(7)
    rng, off_congruence = random.Random(0), 0
    for _ in range(1000):  # the draws fuzz_equivalence(rule, 1000, seed=0) makes
        a = random_digit_string(rng)
        assert (remainder(a, 7) == 0) == (remainder(apply_once(a, rule), 7) == 0)
        off_congruence += remainder(a, 7) != 0  # -omega * |a| = omega * |a| only when 7 | a
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
        a = abs(random_digit_string(rng, max_digits=30))
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
