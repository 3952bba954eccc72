import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trimsum.digits import DigitString, StackedNumber, collapse, lift, parse
from trimsum.families import TestRule, last_digits, stack_trim, talmud, trim

ints = st.integers(min_value=-(10**45), max_value=10**45)
bases = st.sampled_from([2, 7, 10, 16, 36])


def test_parse_examples():
    a = parse("32184", 10)
    assert a.digits == (4, 8, 1, 2, 3) and a.sign == 1
    z = parse("0", 10)
    assert z.digits == (0,) and z.sign == 1 and len(z) == 1
    n = parse("-14", 10)
    assert n.digits == (4, 1) and n.sign == -1


def test_parse_canonicalizes():
    assert parse("000", 10) == parse("0", 10)
    assert parse("0032", 10).digits == (2, 3)
    assert parse("-0", 10).sign == 1


# "1\u212a" ends in the Kelvin sign, which str.lower() folds to an ASCII k
@pytest.mark.parametrize(
    "text,base", [("", 10), ("-", 10), ("2", 2), ("g", 16), ("z!", 36), ("1\u212a", 36)]
)
def test_parse_rejects_bad_text(text, base):
    with pytest.raises(ValueError):
        parse(text, base)


@pytest.mark.parametrize("base", [1, 0, -5, 37])
def test_parse_rejects_bad_base(base):
    with pytest.raises(ValueError):
        parse("10", base)


def test_text_form_other_bases():
    assert parse("ff", 16).value == 255
    assert parse("FF", 16).value == 255
    assert parse("-101", 2).value == -5
    assert DigitString.from_int(255, 16).render() == "ff"
    assert DigitString.from_int(-5, 2).render() == "-101"


@given(v=ints, base=bases)
def test_parse_render_round_trip(v, base):
    ds = DigitString.from_int(v, base)
    assert parse(ds.render(), base) == ds
    assert ds.value == v


def test_round_trip_seeded_bulk():
    rng = random.Random(7321)
    for base in (2, 7, 10, 16):
        for _ in range(10_000):
            ds = DigitString.from_int(rng.randint(-(10**30), 10**30), base)
            assert parse(ds.render(), base) == ds


def test_split_examples():
    # the low part is last_digits; the high part shows through talmud (k=2)
    # and through trim by q=1, whose weight 0 keeps exactly the high part (k=1)
    a = parse("32184")
    assert last_digits(a, TestRule.last_digits(100)) == parse("84")
    assert talmud(a) == parse(str(2 * 321 + 84))
    assert last_digits(a, TestRule.last_digits(10)) == parse("4")
    assert trim(a, TestRule.trim(1)) == parse("3218")
    assert last_digits(parse("5"), TestRule.last_digits(10)) == parse("5")
    assert trim(parse("5"), TestRule.trim(1)) == parse("0")


@given(v=st.integers(min_value=0, max_value=10**40), base=bases)
def test_split_identity_every_k(v, base):
    a = DigitString.from_int(v, base)
    for k in range(len(a) + 2):
        rule = TestRule.last_digits(base**k, base)
        assert rule.k == k
        low = last_digits(a, rule)
        assert (v - low.value) % base**k == 0 and 0 <= low.value < base**k
        assert len(low) <= max(k, 1)


def test_split_rejects_bad_input():
    # last_digits reads |a|, and takes only a last-digits rule in the value's base
    assert last_digits(parse("-5"), TestRule.last_digits(10)) == parse("5")
    with pytest.raises(ValueError):
        last_digits(parse("5"), TestRule.trim(7))
    with pytest.raises(ValueError):
        last_digits(parse("5", 16), TestRule.last_digits(8))


def test_collapse_examples():
    assert collapse(StackedNumber(10, (12, 1, 2, 3))) == parse("3222")
    assert collapse(StackedNumber(10, (4, 8, 1, 1, 1))) == parse("11184")
    assert collapse(StackedNumber(10, (0,))) == parse("0")
    assert collapse(StackedNumber(10, (-14,))) == parse("-14")


@given(
    base=bases,
    coeffs=st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=12),
)
def test_collapse_preserves_value(base, coeffs):
    s = StackedNumber(base, tuple(coeffs))
    expected = sum(c * base**i for i, c in enumerate(coeffs))
    assert s.value == expected
    assert collapse(s).value == expected


def test_collapse_soundness_seeded_bulk():
    rng = random.Random(40894)
    for _ in range(10_000):
        base = rng.choice([2, 7, 10, 16])
        coeffs = tuple(rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 10)))
        s = StackedNumber(base, coeffs)
        assert collapse(s).value == sum(c * base**i for i, c in enumerate(coeffs))


@given(v=ints, base=bases)
def test_collapse_after_lift_is_identity(v, base):
    ds = DigitString.from_int(v, base)
    assert collapse(lift(ds)) == ds


@given(
    coeffs=st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=10),
    q=st.integers(min_value=1, max_value=997),
)
def test_divisibility_is_representation_invariant(coeffs, q):
    s = StackedNumber(10, tuple(coeffs))
    assert (s.value % q == 0) == (collapse(s).value % q == 0)


def test_base_mismatch_rejected():
    # a step refuses a value whose base differs from its rule's
    with pytest.raises(ValueError):
        trim(parse("10", 16), TestRule.trim(7))
    with pytest.raises(ValueError):
        stack_trim(lift(parse("10", 16)), TestRule.trim(7))
    with pytest.raises(ValueError):
        talmud(parse("10", 16))


def test_digit_string_validation():
    for bad in [
        lambda: DigitString(1, 10, ()),
        lambda: DigitString(1, 10, (10,)),
        lambda: DigitString(1, 10, (1, 0)),  # leading zero
        lambda: DigitString(-1, 10, (0,)),  # negative zero
        lambda: DigitString(2, 10, (1,)),
        lambda: DigitString(1, 1, (0,)),
    ]:
        with pytest.raises(ValueError):
            bad()


def test_stacked_number_validation_and_json():
    with pytest.raises(ValueError):
        StackedNumber(10, ())
    s = StackedNumber(10, (8 + (-2) * 4, 1, 2, 3))
    assert s.as_json() == {"base": 10, "coeffs": [0, 1, 2, 3]}
