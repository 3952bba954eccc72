"""Acceptance suite: one test per release criterion, exact tolerances.

Every test prints a single PASS line (visible with ``pytest -s``); the
test name doubles as the criterion label under ``pytest -v``.
"""

import math
import pathlib
import random

from trimsum.analyzer import compare
from trimsum.digits import DigitString, parse
from trimsum.families import DIVISIBLE, TestRule, apply_once, iterate
from trimsum.oracle import fuzz_equivalence, random_digit_string, remainder
from trimsum.weights import weight_inverse, weight_rounding, weight_table

A = parse("32184")
GOLDEN = pathlib.Path(__file__).parent / "data" / "compare_golden.csv"


def _random_coprime_q(rng, lo=3, hi=9999):
    while True:
        q = rng.randrange(lo, hi + 1, 2)
        if q % 5:
            return q


def test_criterion_1_worked_example_regression():
    assert apply_once(A, TestRule.talmud()) == parse("726")

    chain = iterate(A, TestRule.trim(7))
    assert [s.collapsed.value for s in chain.steps] == [3210, 321, 30]

    for x in ("32184", "3210", "49", "678"):
        assert apply_once(parse(x), TestRule.trim(21)) == apply_once(parse(x), TestRule.trim(7))

    assert apply_once(A, TestRule.trim(13)).value == 3234
    assert apply_once(parse("3234"), TestRule.trim(13)).value == 339
    assert apply_once(A, TestRule.trim(17)).value == 3198
    assert apply_once(parse("3198"), TestRule.trim(17)).value == 279
    assert apply_once(A, TestRule.trim(39)).value == 3234
    assert apply_once(parse("49"), TestRule.trim(7)).value == -14

    f8 = apply_once(A, TestRule.last_digits(8))
    assert f8.value == 184 and remainder(f8, 8) == 0 and remainder(A, 8) == 0

    expected_weights = {7: -2, 9: 1, 11: -1, 13: 4, 17: -5, 21: -2, 39: 4, 79: 8, 181: -18}
    for q, omega in expected_weights.items():
        assert weight_table(q) == omega
        assert weight_rounding(q) == omega
        assert weight_inverse(q, 10) == omega

    expected_sums = {7: 3, 9: 18, 11: -2, 17: 1518, 39: 1563}
    for q, value in expected_sums.items():
        assert apply_once(A, TestRule.sum(q)).value == value

    assert apply_once(A, TestRule.binomial(7)).value == 334
    assert apply_once(parse("334"), TestRule.binomial(7)).value == 40

    left = iterate(A, TestRule.left_trim(7))
    assert [s.stacked.coeffs for s in left.steps] == [
        (4, 8, 1, 11),
        (4, 8, 34),
        (4, 110),
        (334,),
    ]
    assert left.terminal.value == 334

    print("criterion 1 PASS: worked example regression, exact equality")


def _identity_corpus(seed, trials=1000, max_digits=40):
    rng = random.Random(seed)
    for _ in range(trials):
        yield abs(random_digit_string(rng, max_digits=max_digits)), _random_coprime_q(rng)


def test_criterion_2_stacked_trim_chain_equals_weighted_sum():
    for a, q in _identity_corpus(1302):
        terminal = iterate(a, TestRule.trim(q), stacked=True).terminal
        assert terminal.value == apply_once(a, TestRule.sum(q)).value
    print("criterion 2 PASS: 1000 stacked trim chains end at the weighted digit sum")


def test_criterion_3_left_trim_chain_equals_binomial_sum():
    for a, q in _identity_corpus(1302):
        terminal = iterate(a, TestRule.left_trim(q)).terminal
        assert terminal.value == apply_once(a, TestRule.binomial(q)).value
    print("criterion 3 PASS: 1000 left trim chains end at the binomial digit sum")


def test_criterion_2_stepped_stacked_trim_chain_ends_at_the_weighted_sum():
    for a, q in _identity_corpus(1302):
        steps = iterate(a, TestRule.trim(q), stacked=True).steps  # the chain run a digit at a time
        last = steps[-1].coeffs if steps else a.digits
        assert last == (apply_once(a, TestRule.sum(q)).value,)
    print("criterion 2 PASS: 1000 stacked trim chains, stepped, end at the weighted digit sum")


def test_criterion_3_stepped_left_trim_chain_ends_at_the_binomial_sum():
    for a, q in _identity_corpus(1302):
        steps = iterate(a, TestRule.left_trim(q)).steps  # the chain run a digit at a time
        last = steps[-1].coeffs if steps else a.digits
        assert last == (apply_once(a, TestRule.binomial(q)).value,)
    print("criterion 3 PASS: 1000 left trim chains, stepped, end at the binomial digit sum")


def test_criterion_4_oracle_equivalence_fuzz():
    def rules(name, rng):
        if name == "trim":
            return TestRule.trim(_random_coprime_q(rng, lo=1))
        if name == "sum":
            return TestRule.sum(_random_coprime_q(rng, lo=1))
        if name == "binomial":
            return TestRule.binomial(rng.randint(2, 9999))
        if name == "talmud":
            return TestRule.talmud()
        i, j = rng.randint(0, 9), rng.randint(0, 9)
        return TestRule.last_digits(2 ** max(i, 1 - j) * 5**j)

    total = 0
    for name in ("trim", "sum", "binomial", "talmud", "last_digits"):
        rng = random.Random(f"fuzz-{name}")
        mismatches = 0
        for batch in range(100):
            rule = rules(name, rng)
            report = fuzz_equivalence(rule, 100, max_digits=60, seed=rng.randrange(2**32))
            mismatches += report.mismatches
        assert mismatches == 0, name
        total += 100 * 100
    assert total == 50_000
    print("criterion 4 PASS: 10^4 (a, q) pairs per family, zero oracle mismatches")


def test_criterion_5_weight_agreement():
    for q in range(1, 10_000):
        if q % 2 == 0 or q % 5 == 0:
            continue
        t = weight_table(q)
        assert t == weight_rounding(q) == weight_inverse(q, 10)
        assert 10 * t % q == 1 % q
    for base in (2, 3, 7, 16):
        for q in range(1, 1000):
            if math.gcd(q, base) == 1:
                assert base * weight_inverse(q, base) % q == 1 % q
    print("criterion 5 PASS: table = rounding = inverse below 10^4; congruence holds in bases 2,3,7,16")


def test_criterion_6_corrected_congruences():
    rng = random.Random(606)
    for _ in range(10_000):
        a = abs(random_digit_string(rng, max_digits=60))
        v, n = a.value, len(a) - 1
        q = _random_coprime_q(rng)
        omega = weight_inverse(q, 10)
        assert 10 * apply_once(a, TestRule.trim(q)).value % q == v % q
        assert apply_once(a, TestRule.sum(q)).value % q == omega**n * v % q
        qb = rng.randint(2, 9999)
        assert apply_once(a, TestRule.binomial(qb)).value % qb == v % qb
    print("criterion 6 PASS: 10*T(a) = a, B(a) = a and S(a) = w^n*a (mod q) on 10^4 draws")


def test_criterion_7_cost_comparison():
    for q in range(16, 1000):
        if q % 2 == 0 or q % 5 == 0:
            continue
        omega = weight_inverse(q, 10)
        assert abs(omega) <= math.ceil(3 * q / 10) < abs(10 - q)
    table = compare([7, 9, 11, 17, 39, 181], [A])
    assert table.to_csv() == GOLDEN.read_text()
    print("criterion 7 PASS: |omega| <= ceil(3q/10) < |10-q| for 15 < q < 10^3; golden CSV matches")


def test_criterion_8_trimming_shortens_three_digit_numbers():
    omega = weight_inverse(7, 10)
    for v in range(100, 10**6):
        image = v // 10 + omega * (v % 10)
        assert len(str(abs(image))) < len(str(v))
    # spot-check that the fast integer form above is the packaged trim
    rng = random.Random(808)
    rule = TestRule.trim(7)
    for _ in range(2000):
        v = rng.randint(100, 10**6 - 1)
        assert apply_once(DigitString.from_int(v), rule).value == v // 10 + omega * (v % 10)
    print("criterion 8 PASS: trimming by 7 shortens every 3..6 digit number")


def test_verdicts_agree_with_oracle_across_families():
    # belt and braces on top of criterion 4: full iteration verdicts, not
    # just single applications
    rng = random.Random(777)
    for _ in range(300):
        a = random_digit_string(rng, max_digits=40)
        q = _random_coprime_q(rng)
        for rule in (TestRule.trim(q), TestRule.sum(q), TestRule.binomial(q), TestRule.left_trim(q)):
            assert (iterate(a, rule).verdict == DIVISIBLE) == (remainder(a, q) == 0)
        assert (iterate(a, TestRule.talmud()).verdict == DIVISIBLE) == (remainder(a, 7) == 0)
        assert apply_once(a, TestRule.talmud()).value == 2 * (abs(a.value) // 100) + abs(a.value) % 100
