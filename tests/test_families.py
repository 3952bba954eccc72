import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimsum import digits, families
from trimsum.digits import DigitString, collapse, parse
from trimsum.families import (
    DIVISIBLE,
    FAMILIES,
    FAMILY_TABLE,
    NOT_DIVISIBLE,
    TestRule,
    apply_once,
    divides_via,
    iterate,
)
from trimsum.oracle import divides, random_digit_string

A = parse("32184")

coprime_q = st.integers(min_value=1, max_value=9999).filter(lambda q: q % 2 and q % 5)
nonneg = st.integers(min_value=0, max_value=10**30)


# --- single applications ---------------------------------------------------


def test_trim_examples():
    assert apply_once(A, TestRule.trim(7)) == parse("3210")
    assert apply_once(parse("49"), TestRule.trim(7)) == parse("-14")
    assert apply_once(parse("3198"), TestRule.trim(17)) == parse("279")
    assert apply_once(parse("3234"), TestRule.trim(13)) == parse("339")
    assert apply_once(parse("0"), TestRule.trim(7)) == parse("0")
    # single digit: nothing left of the last digit
    assert apply_once(parse("6"), TestRule.trim(7)).value == -2 * 6


def test_trim_requires_coprime_divisor():
    with pytest.raises(ValueError):
        TestRule.trim(8)
    with pytest.raises(ValueError):
        TestRule.trim(35)


def test_stack_trim_examples():
    steps = iterate(A, TestRule.trim(9), stacked=True).steps
    assert steps[0].stacked.coeffs == (8 + 4, 1, 2, 3)
    assert steps[1].stacked.coeffs == (1 + 8 + 4, 2, 3)
    assert iterate(A, TestRule.trim(7), stacked=True).steps[0].stacked.coeffs == (0, 1, 2, 3)


def test_sum_test_examples():
    assert apply_once(A, TestRule.sum(7)) == parse("3")
    assert apply_once(A, TestRule.sum(9)) == parse("18")
    assert apply_once(A, TestRule.sum(11)) == parse("-2")
    assert apply_once(A, TestRule.sum(17)) == parse("1518")
    assert apply_once(A, TestRule.sum(39)) == parse("1563")
    assert apply_once(parse("8"), TestRule.sum(17)) == parse("8")


def test_binomial_test_examples():
    assert apply_once(A, TestRule.binomial(7)) == parse("334")
    assert apply_once(parse("334"), TestRule.binomial(7)) == parse("40")
    assert apply_once(A, TestRule.binomial(9)) == parse("18")  # plain digit sum
    # base - q = 0: degenerates to the last digit
    assert apply_once(A, TestRule.binomial(10)) == parse("4")


def test_left_trim_chain_representations():
    steps = iterate(A, TestRule.left_trim(7)).steps
    assert steps[0].stacked.coeffs == (4, 8, 1, 11)
    assert steps[1].stacked.coeffs == (4, 8, 34)
    assert steps[2].stacked.coeffs == (4, 110)
    assert steps[3].stacked.coeffs == (334,)
    assert collapse(steps[3].stacked) == parse("334")


def test_talmud_examples():
    rule = TestRule.talmud()
    assert apply_once(A, rule) == parse("726")
    assert apply_once(parse("99"), rule) == parse("99")
    assert apply_once(parse("726"), rule) == parse("40")  # 2*7 + 26
    with pytest.raises(ValueError):
        apply_once(parse("11", 2), rule)


def test_last_digits_examples():
    assert apply_once(A, TestRule.last_digits(8)) == parse("184")
    assert apply_once(A, TestRule.last_digits(2)) == parse("4")
    assert apply_once(A, TestRule.last_digits(4)) == parse("84")  # 4 | 84, so 4 | 32184
    assert TestRule.last_digits(8).k == 3
    assert TestRule.last_digits(4).k == 2


def test_last_digits_rejects_divisors_off_the_base():
    with pytest.raises(ValueError):
        TestRule.last_digits(7)
    with pytest.raises(ValueError):
        TestRule.last_digits(12)
    assert TestRule.last_digits(3, base=6).k == 1


@pytest.mark.parametrize(
    "family,q,base,k",
    [
        ("trim", 7, 10, None),  # 343 = 7**3 was decided with no weight at all
        ("trim", 5, 7, None),
        ("left_trim", 7, 10, None),
        ("sum", 17, 10, None),
        ("binomial", 7, 10, None),
        ("talmud", 7, 10, None),
        ("last_digits", 8, 10, 3),  # k was left unset
        ("last_digits", 3, 6, 1),
        ("talmud", 9, 10, ValueError),  # 198 = 9 * 22 was called not divisible
        ("talmud", 7, 2, ValueError),
        ("trim", 8, 10, ValueError),
        ("binomial", 1, 10, ValueError),
        ("last_digits", 7, 10, ValueError),
        ("bogus", 7, 10, ValueError),
        # q and base must be ints: these raised TypeError or AttributeError, or built
        ("trim", 7.0, 10, ValueError),
        ("trim", "7", 10, ValueError),
        ("last_digits", 8.0, 10, ValueError),
        ("trim", True, 10, ValueError),
        ("binomial", 7.5, 10, ValueError),
        ("trim", 7, 10.0, ValueError),
        ("sum", 7, True, ValueError),
    ],
)
def test_rules_built_from_family_q_and_base_are_sound(family, q, base, k):
    assert set(FAMILY_TABLE) == set(FAMILIES)
    if k is ValueError:
        with pytest.raises(ValueError):
            TestRule(family, q, base)
        return
    rule = TestRule(family, q, base)
    assert rule.k == k
    assert rule == (TestRule.talmud() if family == "talmud" else getattr(TestRule, family)(q, base))
    for v in (343, 198, 32184, 7 * 8 * 9 * 11 * 13 * 17, 10**12):
        a = DigitString.from_int(v, base)
        assert divides_via(a, rule) == divides(a, q)
        assert type(FAMILY_TABLE[family].step(a.digits, rule)) is int


# --- iteration -------------------------------------------------------------


def test_iterate_trim_chain_for_seven():
    trace = iterate(A, TestRule.trim(7))
    assert [s.collapsed for s in trace.steps] == [parse("3210"), parse("321"), parse("30")]
    assert trace.terminal == parse("30")
    assert trace.verdict == NOT_DIVISIBLE


def test_iterate_stacked_reaches_the_digit_sum():
    trace = iterate(A, TestRule.trim(9), stacked=True)
    assert [s.stacked.coeffs for s in trace.steps] == [
        (12, 1, 2, 3),
        (13, 2, 3),
        (15, 3),
        (18,),
    ]
    assert trace.terminal == parse("18")
    assert trace.verdict == DIVISIBLE


def test_iterate_left_trim_terminal():
    trace = iterate(A, TestRule.left_trim(7))
    assert trace.terminal == parse("334")
    assert trace.verdict == NOT_DIVISIBLE


def test_iterate_single_digit_is_immediate():
    for rule in (TestRule.trim(7), TestRule.sum(9), TestRule.binomial(11), TestRule.talmud()):
        trace = iterate(parse("7"), rule)
        assert trace.steps == ()
        assert trace.verdict == (DIVISIBLE if rule.q == 7 else NOT_DIVISIBLE)


def test_iterate_stops_when_a_step_fails_to_shrink():
    # the binomial weight for 39 is -29; one application blows 32184 up
    trace = iterate(A, TestRule.binomial(39))
    assert len(trace.steps) == 1
    assert trace.terminal.value == 2073678
    assert trace.verdict == NOT_DIVISIBLE


def test_iterate_compares_equal_lengths_from_the_top():
    # omega = 99 for 989: 191 -> 19 + 99 = 118 shrinks, then 11 + 99*8 = 803 does not
    assert [s.number for s in iterate(parse("191"), TestRule.trim(989)).steps] == [
        parse("118"),
        parse("803"),
    ]
    assert [s.number for s in iterate(parse("101"), TestRule.trim(989)).steps] == [parse("109")]
    # an equal image is no shrink either
    trace = iterate(parse("184"), TestRule.last_digits(8))
    assert [s.number for s in trace.steps] == [parse("184")]
    assert trace.verdict == DIVISIBLE


def test_plain_chain_folds_only_what_the_rule_reads(monkeypatch):
    fold, lengths = digits.fold, []

    def recording_fold(coeffs, x):
        lengths.append(len(coeffs))
        return fold(coeffs, x)

    monkeypatch.setattr(digits, "fold", recording_fold)
    monkeypatch.setattr(families, "fold", recording_fold)
    rule = TestRule.last_digits(8)
    assert divides_via(parse("9" * 2997 + "184"), rule) is True
    assert divides_via(parse("9" * 2997 + "185"), rule) is False
    assert lengths and max(lengths) <= rule.k


def test_chains_collapse_only_their_terminal(monkeypatch):
    calls = []

    def counting_collapse(s):
        calls.append(s)
        return collapse(s)

    monkeypatch.setattr(families, "collapse", counting_collapse)
    trace = iterate(parse("3" * 50), TestRule.left_trim(7))
    assert len(trace.steps) == 49
    assert len(calls) == 1
    trace.as_json()  # renders each step's collapsed value, built on request
    assert len(calls) == 1 + 49


def test_iterate_rejects_stacked_for_summing_families():
    with pytest.raises(ValueError):
        iterate(A, TestRule.sum(7), stacked=True)


def test_divides_via_examples():
    assert divides_via(A, TestRule.trim(13)) is False  # 32184 = 13*2475 + 9
    assert divides_via(A, TestRule.last_digits(8)) is True
    assert divides_via(parse("0"), TestRule.trim(7)) is True
    assert divides_via(parse("-32184"), TestRule.trim(9)) is True


def test_trace_json_shape_and_stability():
    trace = iterate(A, TestRule.trim(7))
    doc = trace.as_json()
    assert list(doc) == ["rule", "steps", "terminal", "verdict"]
    assert doc["rule"] == {"family": "trim", "q": 7, "base": 10, "omega": -2}
    assert doc["steps"][0] == {"op": "trim", "coeffs": [0, 1, 2, 3], "collapsed": "3210"}
    assert json.dumps(doc) == json.dumps(iterate(A, TestRule.trim(7)).as_json())


# --- the two summing identities -------------------------------------------


@settings(deadline=None)
@given(v=nonneg, q=coprime_q)
def test_stacked_trim_chain_equals_weighted_sum(v, q):
    a = DigitString.from_int(v)
    terminal = iterate(a, TestRule.trim(q), stacked=True).terminal
    assert terminal.value == apply_once(a, TestRule.sum(q)).value


@settings(deadline=None)
@given(v=nonneg, q=st.integers(min_value=2, max_value=9999))
def test_left_trim_chain_equals_binomial_sum(v, q):
    a = DigitString.from_int(v)
    terminal = iterate(a, TestRule.left_trim(q)).terminal
    assert terminal.value == apply_once(a, TestRule.binomial(q)).value


@settings(deadline=None)
@given(
    v=nonneg,
    base=st.sampled_from([2, 3, 7, 16]),
    q=st.integers(min_value=1, max_value=999),
)
def test_identities_hold_in_other_bases(v, base, q):
    a = DigitString.from_int(v, base)
    if math.gcd(q, base) == 1:
        stacked = iterate(a, TestRule.trim(q, base), stacked=True).terminal
        assert stacked.value == apply_once(a, TestRule.sum(q, base)).value
    if q >= 2:
        left = iterate(a, TestRule.left_trim(q, base)).terminal
        assert left.value == apply_once(a, TestRule.binomial(q, base)).value


def _long_digit_texts(base, length):
    chars = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
    rng = random.Random(base)
    yield rng.choice(chars[1:]) + "".join(rng.choice(chars) for _ in range(length - 1))
    yield chars[-1] * length
    yield "1" + "0" * (length - 1)


@pytest.mark.parametrize("base", [2, 10, 36])
def test_chains_match_integers_at_a_thousand_digits(base):
    for text in _long_digit_texts(base, 1000):
        a, v = parse(text, base), int(text, base)
        assert len(a) == 1000
        for q in (max(base - 1, 2), base + 1, 1000003):
            left = iterate(a, TestRule.left_trim(q, base))
            assert (left.verdict == DIVISIBLE) == (v % q == 0)
            assert left.terminal == apply_once(a, TestRule.binomial(q, base))
            if math.gcd(q, base) == 1:
                stacked = iterate(a, TestRule.trim(q, base), stacked=True)
                assert (stacked.verdict == DIVISIBLE) == (v % q == 0)
                assert stacked.terminal == apply_once(a, TestRule.sum(q, base))


@pytest.mark.parametrize("base", [2, 10, 36])
def test_single_pass_verdicts_match_integers_at_four_thousand_digits(base):
    near = [q for q in (base - 1, base + 1) if q >= 2]
    rules = [TestRule.sum(q, base) for q in near] + [TestRule.binomial(q, base) for q in near]
    rules += [TestRule.last_digits(q, base) for q in (base, base**3)]
    for text in _long_digit_texts(base, 4000):
        a, v = parse(text, base), int(text, base)
        assert len(a) == 4000
        for rule in rules:
            trace = iterate(a, rule)
            assert (trace.verdict == DIVISIBLE) == (v % rule.q == 0), (text[:20], rule)
            if rule.family != "sum":  # binomial and last digits keep the remainder itself
                assert trace.terminal.value % rule.q == v % rule.q


@pytest.mark.parametrize("base", [2, 10, 36])
def test_plain_chains_match_integers_at_three_hundred_digits(base):
    qs = [q for q in (max(base - 1, 2), base + 1, 1000003) if math.gcd(q, base) == 1]
    rules = [TestRule.trim(q, base) for q in qs] + ([TestRule.talmud()] if base == 10 else [])
    for text in _long_digit_texts(base, 300):
        a, v = parse(text, base), int(text, base)
        assert len(a) == 300
        for rule in rules:
            trace = iterate(a, rule)
            x = previous = v
            for step in trace.steps:
                previous = abs(x)
                if rule.family == "talmud":
                    x = 2 * (previous // 100) + previous % 100
                else:
                    x = previous // base + rule.omega * (previous % base)
                assert step.number.value == x
            assert trace.steps and trace.terminal.value == x
            assert abs(x) < base * base or abs(x) >= previous
            assert (trace.verdict == DIVISIBLE) == (v % rule.q == 0)


# --- algebraic relations ---------------------------------------------------


@given(v=nonneg, q=coprime_q)
def test_tripled_divisor_gives_the_same_trim(v, q):
    if q % 10 in (3, 7):
        a = DigitString.from_int(v)
        assert apply_once(a, TestRule.trim(q)) == apply_once(a, TestRule.trim(3 * q))


@given(v=nonneg, q=coprime_q)
def test_corrected_remainder_relations(v, q):
    a = DigitString.from_int(v)
    omega = TestRule.trim(q).omega
    assert 10 * apply_once(a, TestRule.trim(q)).value % q == v % q
    assert apply_once(a, TestRule.sum(q)).value % q == omega ** (len(a) - 1) * v % q


@given(v=nonneg, q=st.integers(min_value=2, max_value=9999))
def test_binomial_preserves_remainders(v, q):
    a = DigitString.from_int(v)
    assert apply_once(a, TestRule.binomial(q)).value % q == v % q


@given(v=nonneg)
def test_nine_and_eleven_reduce_to_classic_digit_sums(v):
    a = DigitString.from_int(v)
    digit_sum = sum(a.digits)
    alternating = sum(d if i % 2 == 0 else -d for i, d in enumerate(a.digits))
    assert apply_once(a, TestRule.binomial(9)).value == digit_sum
    assert apply_once(a, TestRule.binomial(11)).value == alternating
    # omega for 9 is 1 = 10 - 9, so the two summing families coincide
    assert apply_once(a, TestRule.sum(9)).value == digit_sum
    # omega for 11 is -1 = 10 - 11, but the weights index from opposite
    # ends, so the sums agree only up to the factor (-1)**n
    s11 = apply_once(a, TestRule.sum(11)).value
    assert s11 == (-1) ** (len(a) - 1) * alternating
    assert (s11 % 11 == 0) == (alternating % 11 == 0)


@given(v=st.integers(min_value=-(10**30), max_value=10**30), q=coprime_q)
def test_sign_never_changes_the_verdict(v, q):
    a = DigitString.from_int(v)
    rule = TestRule.trim(q)
    assert divides_via(a, rule) == (v % q == 0)
    assert apply_once(a, rule) == apply_once(abs(a), rule)


# --- every step of every family preserves divisibility ---------------------


def _family_rules(rng):
    while True:
        q = rng.randrange(1, 10**4, 2)
        if q % 5:
            break
    yield TestRule.trim(q)
    yield TestRule.sum(q)
    yield TestRule.binomial(rng.randint(2, 9999))
    yield TestRule.talmud()
    i, j = rng.randint(0, 8), rng.randint(0, 8)
    yield TestRule.last_digits(2 ** max(i, 1) * 5**j)


def test_each_trace_step_preserves_divisibility():
    rng = random.Random(5150)
    for _ in range(200):
        a = random_digit_string(rng, max_digits=30)
        for rule in _family_rules(rng):
            expected = divides(a, rule.q)
            trace = iterate(a, rule)
            for step in trace.steps:
                assert divides(step.collapsed, rule.q) == expected
            assert (trace.verdict == DIVISIBLE) == expected


def test_apply_once_covers_left_trim_including_single_digits():
    rule = TestRule.left_trim(7)
    assert apply_once(A, rule) == parse("11184")
    assert apply_once(parse("5"), rule) == parse("5")
    assert apply_once(parse("-5"), rule) == parse("5")
