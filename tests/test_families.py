import dataclasses
import json
import math
import random
import tracemalloc
from itertools import accumulate, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimsum import analyzer, digits, families
from trimsum.digits import DigitString, parse
from trimsum.families import (
    DIVISIBLE,
    FAMILIES,
    FAMILY_TABLE,
    NOT_DIVISIBLE,
    TestRule,
    Trace,
    apply_once,
    divides_via,
    iterate,
)
from trimsum.oracle import random_digit_string, remainder

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
    assert steps[3].collapsed == parse("334")


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


class _Int(int):
    pass


@pytest.mark.parametrize("family", FAMILIES)
def test_rules_refuse_an_int_subclass_as_q_or_base(family):
    """q and base must be exactly int, as in ``DigitString`` and the oracle: trim and sum raised
    from ``weight_inverse`` with a message naming neither, and the other families built."""
    q, base = 8 if family == "last_digits" else 7, 10
    for bad in (_Int, bool, float):
        for args, name in (((bad(q), base), "q"), ((q, bad(base)), "base")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad.__name__} "):
                TestRule(family, *args)
    TestRule(family, q, base)


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
        ("talmud", 49, 10, None),  # base**2 = 2 (mod q) is all Talmud needs
        ("talmud", 14, 10, None),
        ("talmud", 7, 3, None),
        ("talmud", 9, 10, ValueError),  # 198 = 9 * 22 was called not divisible
        ("talmud", 7, 2, ValueError),
        ("talmud", 8, 10, ValueError),
        ("talmud", 7, 16, ValueError),
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
        (["trim"], 7, 10, ValueError),  # a family that is not a str raised TypeError: unhashable type
        ("trim", 7, 1, ValueError),  # a base below 2
        ("sum", 7, 0, ValueError),
        ("binomial", 7, -10, ValueError),
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
    if family != "talmud":
        assert rule == getattr(TestRule, family)(q, base)
    elif (q, base) == (7, 10):  # TestRule.talmud() takes no divisor: it is the historical test
        assert rule == TestRule.talmud()
    for v in (343, 198, 32184, 7 * 8 * 9 * 11 * 13 * 17, 10**12):
        a = DigitString.from_int(v, base)
        assert divides_via(a, rule) == (remainder(a, q) == 0)
        assert type(FAMILY_TABLE[family].step(a.digits, rule)) is int


def _builds(family, q, base):
    try:
        return TestRule(family, q, base)
    except ValueError:
        return None


@pytest.mark.parametrize("base", [2, 3, 6, 7, 10, 12, 16, 36])
def test_split_families_build_exactly_when_their_obligation_holds(base):
    """Trim, Talmud and last digits step to alpha * h + beta * l for |a| = h * base**k + l.

    Each builds exactly when its own condition on (q, base) holds, and then beta is a
    unit mod q and alpha = beta * base**k (mod q), Zbikowski's condition for a test.
    """
    v = 987654321987654321
    for q in range(1, 301):
        trim, talmud, last = (_builds(f, q, base) for f in ("trim", "talmud", "last_digits"))
        assert (trim is not None) == (math.gcd(q, base) == 1), (q, base)
        if trim:
            assert (trim.omega * base - 1) % q == 0 and -q / 2 < trim.omega <= q / 2, (q, base)
        assert (talmud is not None) == ((base * base - 2) % q == 0), (q, base)
        powers_of_base_q_divides = [k for k in range(q + 1) if base**k % q == 0]
        assert (last is not None) == bool(powers_of_base_q_divides), (q, base)
        if last:
            assert last.k == powers_of_base_q_divides[0], (q, base)
        for rule, (k, alpha, beta) in [
            (trim, (1, 1, trim and trim.omega)),
            (talmud, (2, 2, 1)),
            (last, (last and last.k, 0, 1)),
        ]:
            if rule is None:
                continue
            assert math.gcd(beta, q) == 1 and (alpha - beta * base**k) % q == 0, (rule, k, alpha, beta)
            high, low = divmod(v, base**k)
            assert apply_once(DigitString.from_int(v, base), rule).value == alpha * high + beta * low, rule


@pytest.mark.parametrize(
    "family,q", [("trim", 7), ("talmud", 7), ("last_digits", 8), ("sum", 7), ("binomial", 7), ("left_trim", 7)]
)
def test_a_split_rule_has_one_of_the_two_folded_shapes(monkeypatch, family, q):
    """beta = 1 or k = alpha = 1: a sound split of any other shape builds no rule either."""
    record = FAMILY_TABLE[family]
    omega, k, _ = record.derive(q, 10)
    bad = (3, 32, 3)  # sound for q = 7 and q = 8 in base 10: 3 * 1000 = 32 mod 56
    assert math.gcd(3, q) == 1 and (32 - 3 * 10**3) % q == 0
    monkeypatch.setitem(FAMILY_TABLE, family, dataclasses.replace(record, derive=lambda q, base: (omega, k, bad)))
    with pytest.raises(ValueError, match=r"\(k, alpha, beta\) = \(3, 32, 3\) needs .* beta = 1 or k = alpha = 1"):
        TestRule(family, q)


@pytest.mark.parametrize(
    "family,q", [("trim", 7), ("talmud", 7), ("last_digits", 8), ("sum", 7), ("binomial", 7), ("left_trim", 7)]
)
def test_every_split_rule_is_checked_against_the_obligation(monkeypatch, family, q):
    """A derive whose (k, alpha, beta) breaks Zbikowski's condition builds no rule, in any split family."""
    record = FAMILY_TABLE[family]
    omega, k, split = record.derive(q, 10)
    assert TestRule(family, q).split == split is not None
    # (2, 3, 1) breaks alpha = beta * base**k (mod q); (1, 0, q) keeps it, but beta = q is no unit
    for bad in [(2, 3, 1), (1, 0, q)]:
        derive = lambda q, base, bad=bad: (omega, k, bad)  # noqa: E731
        monkeypatch.setitem(FAMILY_TABLE, family, dataclasses.replace(record, derive=derive))
        with pytest.raises(ValueError) as error:
            TestRule(family, q)
        assert f"(k, alpha, beta) = {bad} needs" in str(error.value), error.value
        assert str(error.value).endswith(f"got q={q} base=10"), error.value


def test_public_entry_points_reject_wrong_types():
    rule = TestRule.trim(7)
    calls = [
        lambda: apply_once(5, rule),
        lambda: iterate(5, rule),
        lambda: iterate(A, rule, stacked="no"),  # ran the stacked chain
        lambda: iterate(A, rule, stacked=[1]),
        lambda: divides_via("32184", rule),
        lambda: divides_via(A, "trim"),
        lambda: analyzer.cost_profile(5, rule),
        lambda: parse(5),
        lambda: Trace("x", parse("5")),  # a hand-built trace raised AttributeError when read
    ]
    for call in calls:  # each raised AttributeError
        with pytest.raises(ValueError):
            call()
    for stacked in (1, None):  # the message named no type: "stacked must be a bool, got 1"
        for call in (lambda: iterate(A, rule, stacked=stacked), lambda: Trace(rule, parse("5"), stacked)):
            with pytest.raises(ValueError, match=f"^stacked must be a bool, got {type(stacked).__name__} {stacked}$"):
                call()


# --- iteration -------------------------------------------------------------


def test_iterate_trim_chain_for_seven():
    trace = iterate(A, TestRule.trim(7))
    assert [s.collapsed for s in trace.steps] == [parse("3210"), parse("321"), parse("30")]
    assert trace.terminal == parse("30")
    assert trace.verdict == NOT_DIVISIBLE
    assert Trace(TestRule.trim(7), A).verdict == NOT_DIVISIBLE  # a hand-built trace decides its own verdict


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
    assert [s.value for s in iterate(parse("191"), TestRule.trim(989)).steps] == [118, 803]
    assert [s.value for s in iterate(parse("101"), TestRule.trim(989)).steps] == [109]
    # an equal image is no shrink either
    trace = iterate(parse("184"), TestRule.last_digits(8))
    assert [s.value for s in trace.steps] == [184]
    assert trace.verdict == DIVISIBLE


def test_plain_chain_folds_only_what_the_rule_reads(monkeypatch):
    fold, lengths = digits.fold, []

    def recording_fold(coeffs, x, order=1, q=None):
        lengths.append(len(coeffs))
        return fold(coeffs, x, order, q)

    monkeypatch.setattr(digits, "fold", recording_fold)
    monkeypatch.setattr(families, "fold", recording_fold)
    rule = TestRule.last_digits(8)
    assert divides_via(parse("9" * 2997 + "184"), rule) is True
    assert divides_via(parse("9" * 2997 + "185"), rule) is False
    assert lengths and max(lengths) <= rule.k


def test_chains_collapse_only_their_terminal(monkeypatch):
    fold, calls = families.fold, []

    def counting_fold(coeffs, x, order=1, q=None):
        calls.append((coeffs, q))
        return fold(coeffs, x, order, q)

    monkeypatch.setattr(families, "fold", counting_fold)
    for a in (parse("3" * 50), parse("3" * 500)):  # Horner's rule mod 7, and the recurring weights
        calls.clear()
        trace = iterate(a, TestRule.left_trim(7))
        assert calls == [(a.digits, 7)]  # the verdict folds the input mod q, and nothing else is folded
        assert len(trace.steps) == len(a) - 1
        assert calls == [(a.digits, 7), (a.digits, None)]  # the steps carry their values from one fold of the input
        trace.as_json()  # renders the values the steps hold
        assert len(calls) == 2


@pytest.mark.parametrize(
    "rule,length,limit",
    [
        (TestRule.left_trim(7), 3000, 1024 * 1024),
        (TestRule.trim(7), 300, 64 * 1024),
        # a reversed or padded copy of 3000 digits takes 24 kB; Talmud's strided folds read
        # its even digits, then its odd ones, 12 kB at a time
        (TestRule.trim(7), 3000, 16 * 1024),
        (TestRule.talmud(), 3000, 20 * 1024),
    ],
)
def test_verdicts_keep_only_the_current_number(rule, length, limit):
    text = next(_long_digit_texts(10, length))
    a = parse(text)
    tracemalloc.start()
    try:
        verdict = divides_via(a, rule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == (_int(text, 10) % rule.q == 0)
    assert peak < limit


@pytest.mark.parametrize(
    "rule,stacked", [(TestRule.trim(7), True), (TestRule.left_trim(7), False)], ids=["stacked_trim", "left_trim"]
)
def test_verdict_only_traces_keep_only_the_current_number(rule, stacked):
    text = next(_long_digit_texts(10, 3000))
    a = parse(text)
    tracemalloc.start()
    try:
        verdict = iterate(a, rule, stacked=stacked).verdict
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == (DIVISIBLE if _int(text, 10) % 7 == 0 else NOT_DIVISIBLE)
    assert peak < 1024 * 1024  # the steps of a 3000-digit stacked chain take about 35 MiB


def test_trace_builds_its_steps_once_and_only_when_read(monkeypatch):
    from_int, converted = DigitString.from_int.__func__, []

    def counting_from_int(cls, value, base=10):
        converted.append(value)
        return from_int(cls, value, base)

    monkeypatch.setattr(DigitString, "from_int", classmethod(counting_from_int))
    trace = iterate(parse("9" * 40 + "1"), TestRule.trim(7))
    assert "steps" not in trace.__dict__ and len(converted) == 0
    assert trace.terminal is trace.terminal and len(converted) == 1  # the terminal, converted once
    assert trace.steps is trace.steps and trace.steps
    assert len(converted) == 1  # the steps keep ints and convert none
    assert iterate(A, TestRule.trim(7), stacked=True) != iterate(A, TestRule.trim(7))
    assert iterate(A, TestRule.left_trim(7), stacked=True) == iterate(A, TestRule.left_trim(7))
    assert Trace(TestRule.left_trim(7), A) == iterate(A, TestRule.left_trim(7))  # a left-trim chain always stacks
    assert Trace(TestRule.left_trim(7), A).stacked is True


def test_lazy_steps_match_the_step_stream():
    rng = random.Random(4242)
    for a in [parse("0"), parse("-7"), A] + [random_digit_string(rng, max_digits=40) for _ in range(20)]:
        for rule in _family_rules(rng):
            runs = [False, True] if rule.family == "trim" else [False]
            for stacked in runs:
                trace = iterate(a, rule, stacked=stacked)
                assert trace.steps == tuple(families._steps(trace)), (a, rule, stacked)
                assert trace == iterate(a, rule, stacked=stacked)
                for step in trace.steps:
                    assert digits.fold(step.coeffs, rule.base) == step.value
                    if not trace.stacked:  # the lift: a plain step's coefficients are its signed digits
                        assert step.coeffs == tuple(step.collapsed.sign * d for d in step.collapsed.digits)


def test_traces_check_the_base_before_building_steps():
    trace = iterate(DigitString.from_int(32184, 40), TestRule.trim(7, 40))
    for render in (trace.as_json, trace.render):
        with pytest.raises(ValueError):
            render()
        assert "steps" not in trace.__dict__


def test_iterate_rejects_stacked_for_summing_families():
    for call in (lambda: iterate(A, TestRule.sum(7), stacked=True), lambda: Trace(TestRule.sum(7), A, True)):
        with pytest.raises(ValueError, match="^stacked iteration applies to 'trim' and 'left_trim' rules only$"):
            call()


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


@pytest.mark.parametrize("base", [2, 10, 36])
def test_render_and_json_show_the_same_steps(base):
    rng = random.Random(base)
    cases = [(parse("49"), TestRule.trim(7), False)] if base == 10 else []  # 49 trims to -14
    for family in FAMILIES:
        for q in (*range(1, 40), 647):  # 36**2 = 2 (mod 647): a Talmud rule in base 36
            try:
                rule = TestRule(family, q, base)
            except ValueError:
                continue
            for stacked in (False, True) if family == "trim" else (False,):
                cases += [(random_digit_string(rng, base, max_digits=30), rule, stacked) for _ in range(3)]
    assert {rule.family for _, rule, _ in cases} == set(FAMILIES)
    assert {True, False} <= {a.sign < 0 for a, _, _ in cases if a.digits != (0,)}
    negative_steps = stacked_steps = 0
    for a, rule, stacked in cases:
        trace = iterate(a, rule, stacked=stacked)
        doc, lines = trace.as_json(), trace.render().split("\n")
        r = doc["rule"]
        omega = "" if r["omega"] is None else f" omega={r['omega']:+d}"
        assert lines[0] == f"rule: family={r['family']} q={r['q']} base={r['base']}{omega}"
        assert len(lines) == len(doc["steps"]) + 3
        for i, (line, step) in enumerate(zip(lines[1:-2], doc["steps"]), start=1):
            text, coeffs = step["collapsed"], step["coeffs"]
            value = int(text, base)
            assert sum(c * base**j for j, c in enumerate(coeffs)) == value
            if trace.stacked:
                assert line == f"step {i}: {step['op']} -> {coeffs} = {text}"
                stacked_steps += 1
            else:
                sign = -1 if value < 0 else 1
                assert coeffs == [sign * int(ch, base) for ch in reversed(text.lstrip("-"))]
                assert line == f"step {i}: {step['op']} -> {text}"
            negative_steps += value < 0
        assert lines[-2] == f"terminal: {doc['terminal']}"
        assert lines[-1] == f"verdict: {doc['verdict'].replace('_', ' ')}"
    assert negative_steps and stacked_steps


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


@settings(deadline=None)
@given(v=nonneg, base=st.sampled_from([2, 3, 7, 10, 16]), q=st.integers(min_value=2, max_value=9999))
def test_stepped_stacked_chains_end_at_the_digit_sums(v, base, q):
    a = DigitString.from_int(v, base)
    chains = [(TestRule.left_trim(q, base), False, TestRule.binomial(q, base))]
    if math.gcd(q, base) == 1:
        chains.append((TestRule.trim(q, base), True, TestRule.sum(q, base)))
    for rule, stacked, summing in chains:
        *_, last = v, *(s.value for s in iterate(a, rule, stacked=stacked).steps)  # |a| if the chain takes no step
        assert last == apply_once(a, summing).value


def _long_digit_texts(base, length):
    chars = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
    rng = random.Random(base)
    yield rng.choice(chars[1:]) + "".join(rng.choice(chars) for _ in range(length - 1))
    yield chars[-1] * length
    yield "1" + "0" * (length - 1)


@pytest.mark.parametrize("base", [2, 10, 36])
def test_chains_match_integers_at_a_thousand_digits(base):
    for text in _long_digit_texts(base, 1000):
        a, v = parse(text, base), _int(text, base)
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
    left_trims = [TestRule.left_trim(q, base) for q in near]
    for text in _long_digit_texts(base, 4000):
        a, v = parse(text, base), _int(text, base)
        assert len(a) == 4000
        for rule in rules:
            trace = iterate(a, rule)
            assert (trace.verdict == DIVISIBLE) == (v % rule.q == 0), (text[:20], rule)
            if rule.family != "sum":  # binomial and last digits keep the remainder itself
                assert trace.terminal.value % rule.q == v % rule.q
        for rule in left_trims:  # one running fold, no trace kept
            assert divides_via(a, rule) == (v % rule.q == 0), (text[:20], rule)


@pytest.mark.parametrize("base", [2, 10, 36])
def test_plain_chains_match_integers_at_three_hundred_digits(base):
    qs = [q for q in (max(base - 1, 2), base + 1, 1000003) if math.gcd(q, base) == 1]
    rules = [TestRule.trim(q, base) for q in qs] + ([TestRule.talmud()] if base == 10 else [])
    if base == 36:
        rules.append(TestRule("talmud", 647, 36))  # 36**2 = 1296 = 2 * 647 + 2
    for text in _long_digit_texts(base, 300):
        a, v = parse(text, base), int(text, base)
        assert len(a) == 300
        for rule in rules:
            trace = iterate(a, rule)
            x = previous = v
            for step in trace.steps:
                previous = abs(x)
                if rule.family == "talmud":
                    x = 2 * (previous // base**2) + previous % base**2
                else:
                    x = previous // base + rule.omega * (previous % base)
                assert step.value == x
            assert trace.steps and trace.terminal.value == x
            assert abs(x) < base * base or abs(x) >= previous
            assert (trace.verdict == DIVISIBLE) == (v % rule.q == 0)


def _remainder(ds, base, q):
    """|a| mod q by the test's own digit loop: int(text) refuses texts over 4300 digits."""
    r = 0
    for d in reversed(ds):
        r = (r * base + d) % q
    return r


def _less(ds, base, r):
    """The canonical digits of |a| - r, for 0 <= r <= |a|, by borrowing from the low end."""
    out, borrow = [], r
    for d in ds:
        borrow, d = divmod(d - borrow, base)
        out.append(d)
        borrow = -borrow
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _verdict_rules(base):
    """(rule, stacked) for every family in base, and stacked trim: Talmud needs base**2 = 2 (mod q)."""
    q, talmud, last = {2: (3, 2, 4), 10: (7, 7, 8), 36: (37, 647, 8)}[base]
    rules = [(TestRule(family, q, base), False) for family in ("trim", "left_trim", "sum", "binomial")]
    rules += [(TestRule("talmud", talmud, base), False), (TestRule.last_digits(last, base), False)]
    return rules + [(TestRule.trim(q, base), True)]


def _verdict_reads(d, rule):
    """The folds a verdict makes, as (coeffs, x, order, q), each taken mod q: one pass over the digits d of |a|.

    Trim, sum and stacked trim fold d from the top with omega, binomial and left trim from
    the last digit with base - q; Talmud folds its two strided halves with 2, and last
    digits folds its low k digits with the base.
    """
    if rule.family in ("binomial", "left_trim"):
        return [(d, rule.base - rule.q, 1, rule.q)]
    if rule.family == "talmud":
        return [(d[0::2], 2, 1, rule.q), (d[1::2], 2, 1, rule.q)]
    if rule.family == "last_digits":
        return [(d[: rule.k], rule.base, 1, rule.q)]
    return [(d, rule.omega, -1, rule.q)]


def test_plain_verdicts_fold_the_input_once_and_convert_nothing(monkeypatch):
    fold, from_int, folded, converted = families.fold, DigitString.from_int.__func__, [], []

    def recording_fold(coeffs, x, order=1, q=None):
        folded.append((coeffs, x, order, q))
        return fold(coeffs, x, order, q)

    def counting_from_int(cls, value, base=10):
        converted.append(value)
        return from_int(cls, value, base)

    def chain_run(*args):
        raise AssertionError("a verdict ran its chain")

    def traceless_divides_via(x, rule):  # divides_via builds no trace
        with monkeypatch.context() as traceless:
            traceless.setattr(families, "Trace", chain_run)
            return divides_via(x, rule)

    monkeypatch.setattr(families, "fold", recording_fold)
    monkeypatch.setattr(DigitString, "from_int", classmethod(counting_from_int))
    for name in ("_plain_chain", "_carried", "_smaller", "_digits_of"):
        monkeypatch.setattr(families, name, chain_run)
    for base, n in product((2, 10, 36), (1, 2, 3, 300, 3000)):
        for text in _long_digit_texts(base, n):
            a = parse(text, base)
            for rule, stacked in _verdict_rules(base):
                r = _remainder(a.digits, base, rule.q)
                for x in (a, DigitString(1, base, _less(a.digits, base, r))):  # and the multiple of q below |a|
                    reads, divisible = _verdict_reads(x.digits, rule), remainder(x, rule.q) == 0
                    assert divisible is (_remainder(x.digits, base, rule.q) == 0)
                    verdicts = [lambda: iterate(x, rule, stacked=stacked).verdict == DIVISIBLE]
                    verdicts += [] if stacked else [lambda: traceless_divides_via(x, rule)]
                    for verdict in verdicts:
                        folded.clear()
                        assert verdict() is divisible, (text[:20], rule, stacked)
                        assert folded == reads and converted == [], (text[:20], rule, stacked)
                        # the input itself, not a copy
                        assert all(got is want for (got, *_), (want, *_) in zip(folded, reads) if want is x.digits)
                    if stacked:  # a stacked trim verdict reads what the plain trim verdict reads
                        stacked_reads = folded[:]
                        folded.clear()
                        iterate(x, rule)
                        assert folded == stacked_reads, (text[:20], rule)


@pytest.mark.parametrize("base", [2, 10, 36])
def test_plain_verdicts_at_ten_thousand_digits(base):
    qs = [q for q in (base - 1, base + 1, 1000003) if math.gcd(q, base) == 1]
    rules = [TestRule.trim(q, base) for q in qs]
    rules += {10: [TestRule.talmud()], 36: [TestRule("talmud", 647, 36)]}.get(base, [])
    for text in _long_digit_texts(base, 10**4):
        a = parse(text, base)
        for rule in rules:
            r = _remainder(a.digits, base, rule.q)
            assert divides_via(a, rule) is (r == 0), (text[:20], rule)
            if r:  # and the multiple of q just below |a|
                multiple = DigitString(1, base, _less(a.digits, base, r))
                assert divides_via(multiple, rule) is True, (text[:20], rule)


# Talmud needs base**2 = 2 (mod q); q = 8, 12 and 33 share a factor with a binomial weight
# base - q (preperiod weights), q = 97 and 10**40 + 7 mostly have weights that do not recur
_RESIDUE_QS = (1, 2, 3, 4, 7, 8, 9, 12, 13, 31, 33, 37, 97, 647, 10**40 + 7)


def _residue_lengths(rule):
    """1, 2 and 700 digits, and the lengths about each fold's weight period lam times _LEAF and
    about the _PER_CLASS * lam coefficients from which a fold is read off its recurring weights."""
    k = rule.split[0]
    cycle = digits._cycle(families._weight(rule), rule.q)
    lam = cycle[2] if cycle else 1
    ends = {k * lam * digits._LEAF, k * max(digits._LEAF + 1, digits._PER_CLASS * lam)}
    return sorted({1, 2, 700} | {n + d for n in ends for d in (-1, 0, 1)})


@pytest.mark.parametrize("base", [2, 3, 10, 36, 1000])
def test_residue_verdicts_match_the_oracle_and_the_exact_fold(base):
    rng = random.Random(base)
    for q in _RESIDUE_QS:
        for family, stacked in [(f, False) for f in FAMILIES] + [("trim", True)]:
            try:
                rule = TestRule(family, q, base)
            except ValueError:
                continue
            for n in _residue_lengths(rule):
                v = rng.randrange(base ** (n - 1), base**n) if n > 1 else rng.randrange(base)
                for m in {v, v - v % q}:  # and the multiple of q at or below it
                    for sign in (1, -1) if m else (1,):
                        a = DigitString.from_int(sign * m, base)
                        divisible = remainder(a, q) == 0
                        assert families._split_fold(a.digits, rule, q) == families._split_fold(a.digits, rule) % q
                        assert divides_via(a, rule) is divisible, (rule, n, sign)
                        verdict = iterate(a, rule, stacked=stacked).verdict
                        assert verdict == (DIVISIBLE if divisible else NOT_DIVISIBLE), (rule, n, sign, stacked)


# --- long inputs: closed-form terminals against step-by-step chains --------


def _split_chain(x, base, k, alpha, beta):
    """A plain split chain from x = |a|, one step at a time: its last number (|a| if it takes
    no step), its step count and its largest magnitude, |a| included.

    A step is x -> alpha * (x // base**k) + beta * (x % base**k). None is taken below
    base**2; the chain goes on from the step's abs, and stops after a step below
    base**2 or one that fails to shrink.
    """
    v, steps, top, big = x, 0, x, base**k
    while x >= base * base:
        high, low = divmod(x, big)
        v, steps = alpha * high + beta * low, steps + 1
        top = max(top, abs(v))
        if abs(v) >= x:
            break
        x = abs(v)
    return v, steps, top


def _int(text, base):
    """int(text, base), made by int() on pieces of 512 digits: int() refuses a text past the
    interpreter's int->str digit limit, which may be as low as 640."""
    body, v = text.lstrip("-"), 0
    for i in range(0, len(body), 512):
        piece = body[i : i + 512]
        v = v * base ** len(piece) + int(piece, base)
    return -v if text.startswith("-") else v


def _value(ds, base):
    """|a| from its digits, by ``_int``."""
    return _int("".join("0123456789abcdefghijklmnopqrstuvwxyz"[d] for d in reversed(ds)), base)


def _adversarial_digits(base, length, rng):
    """Digits of |a| least significant first: random, all base - 1, 1 0...0 r, and a run of 0 below."""
    yield tuple(rng.randrange(base) for _ in range(length - 1)) + (rng.randrange(1, base),)
    yield (base - 1,) * length
    yield (rng.randrange(base),) + (0,) * (length - 2) + (1,)
    low = length // 2
    yield (0,) * low + tuple(rng.randrange(base) for _ in range(length - low - 1)) + (rng.randrange(1, base),)


def _long_lengths(*near):
    """The lengths given, _LEAF * 2**j +- 1 (where fold halves its range), and 10**3 to 10**4 digits."""
    leaf = ((digits._LEAF << j) + e for j in range(5) for e in (-1, 0, 1))
    return sorted({*near, *leaf, 1000, 3000, 10**4})


@pytest.mark.parametrize("base", [2, 10, 36])
def test_carried_split_terminals_match_stepping_on_long_inputs(base):
    rng = random.Random(f"split-{base}")
    trims = [TestRule.trim(q, base) for q in (base - 1, base + 1, 1000003) if math.gcd(q, base) == 1]
    rules = [(rule, 1, 1, rule.omega) for rule in trims]
    rules.append((TestRule("talmud", {2: 2, 10: 7, 36: 647}[base], base), 2, 2, 1))
    guards = set()
    for rule, k, alpha, beta in rules:
        # the least length with a carried step: keep + 2 groups of k digits, for the least
        # keep with base**(k * (keep - 1)) >= 2 * (|beta| + 1) + base**k
        keep = 1
        while base ** (k * (keep - 1)) < 2 * (abs(beta) + 1) + base**k:
            keep += 1
        guards.update(range(k * (keep + 1), k * (keep + 2) + 1))
    for length in _long_lengths(*guards):
        for ds in _adversarial_digits(base, length, rng):
            a = DigitString(1, base, ds)
            x = _value(ds, base)
            for rule, k, alpha, beta in rules:
                terminal, _, _ = _split_chain(x, base, k, alpha, beta)
                assert divides_via(a, rule) is (terminal % rule.q == 0), (rule, length, ds[-3:])
                assert iterate(a, rule).terminal.value == terminal, (rule, length, ds[-3:])


@pytest.mark.parametrize("base", [2, 10, 36])
def test_split_verdicts_and_their_lazy_terminals_agree_on_long_inputs(base):
    """A split rule's verdict is its stacked chain's fold; its terminal is the plain chain's,
    run only when ``Trace.last`` is read. q divides both or neither."""
    rng = random.Random(f"drift-{base}")
    rules = [TestRule.trim(q, base) for q in (base - 1, base + 1, 1000003) if math.gcd(q, base) == 1]
    rules.append(TestRule("talmud", {2: 2, 10: 7, 36: 647}[base], base))
    rules += [TestRule.last_digits(q, base) for q in {2: (2, 8, 2**20), 10: (8, 16, 4000), 36: (6, 432, 3**7)}[base]]
    for length in _long_lengths(3):
        for ds in _adversarial_digits(base, length, rng):
            a = DigitString(1, base, ds)
            for rule in rules:
                trace = iterate(a, rule)
                assert "last" not in vars(trace), rule  # the verdict ran no plain chain
                terminal = trace.terminal.value
                assert trace.last == terminal, (rule, length, ds[-3:])
                verdict = DIVISIBLE if terminal % rule.q == 0 else NOT_DIVISIBLE
                assert trace.verdict == verdict, (rule, length, ds[-3:])


def test_split_verdicts_run_no_carried_stack(monkeypatch):
    carried, calls = families._carried, []

    def counting_carried(d, rule):
        calls.append(rule)
        return carried(d, rule)

    monkeypatch.setattr(families, "_carried", counting_carried)
    a = parse(next(_long_digit_texts(10, 3000)))
    for rule in (TestRule.trim(7), TestRule.talmud(), TestRule.last_digits(8)):
        calls.clear()
        divisible = _remainder(a.digits, 10, rule.q) == 0
        assert divides_via(a, rule) is divisible
        trace = iterate(a, rule)
        assert (trace.verdict == DIVISIBLE) is divisible and calls == []
        assert trace.terminal == trace.terminal and calls == [rule]  # run once, when first read


@pytest.mark.parametrize("base", [2, 10, 36])
def test_folded_stacked_terminals_match_the_stepped_chain_on_long_inputs(base):
    rng = random.Random(f"stacked-{base}")
    qs = [q for q in (base - 1, base + 1, 1000003) if q >= 2]
    rules = [(TestRule.left_trim(q, base), False) for q in qs]
    rules += [(TestRule.trim(q, base), True) for q in qs if math.gcd(q, base) == 1]
    for length in _long_lengths(3):
        for ds in _adversarial_digits(base, length, rng):
            a = DigitString(1, base, ds)
            for rule, stacked in rules:
                # the whole fold: trim's from the last digit up with omega, left trim's from the top down with base - q
                weight = rule.omega if stacked else base - rule.q
                *_, terminal = accumulate(ds[:: 1 if stacked else -1], lambda acc, d: acc * weight + d)
                trace = iterate(a, rule, stacked=stacked)
                assert trace.terminal.value == terminal, (rule, length, ds[-3:])
                assert trace.verdict == (DIVISIBLE if terminal % rule.q == 0 else NOT_DIVISIBLE)
                if not stacked:
                    assert divides_via(a, rule) is (terminal % rule.q == 0)


@pytest.mark.parametrize("base", [2, 10, 36])
def test_carried_stacked_step_values_are_their_coefficients_folded(base):
    """Each stacked-trim and left-trim step's value is the Horner sum of its coefficients.

    The chain carries a step's value over from the step before; here each step's
    coefficients are summed afresh, at lengths where fold halves its range.
    """
    rng = random.Random(f"carried-{base}")
    q = 2 * base + 1  # weights -2 (trim) and -(base + 1) (left trim): signed folds that grow
    rules = [(TestRule.trim(q, base), True), (TestRule.left_trim(q, base), False)]
    for j in range(5):
        for e, (rule, stacked) in zip((-1, 1), rules):
            length = (digits._LEAF << j) + e
            a = DigitString(1, base, list(_adversarial_digits(base, length, rng))[j % 4])
            trace = iterate(a, rule, stacked=stacked)
            doc = trace.as_json()
            assert len(trace.steps) == len(doc["steps"]) == length - 1
            for step, item in zip(trace.steps, doc["steps"]):
                coeffs = step.stacked.coeffs
                assert item["coeffs"] == list(coeffs)
                value = _horner(coeffs[::-1], base)
                assert step.collapsed.value == value == _int(item["collapsed"], base), (rule, length)


def _int_chain(ds, rule, stacked):
    """Each step's value of the chain from the digits ds of |a|, least significant first, made on ints.

    A stacked trim folds ds from the last digit up with omega, a left trim from the top down with
    base - q, and after i digits each step is that fold beside the digits not yet folded. A plain
    step maps x to alpha * (x // base**k) + beta * (x % base**k) for trim, Talmud and last digits
    and to the weighted digit sum of x for sum and binomial; none is taken below base**2, and the chain
    goes on from the step's abs and stops after a step below base**2 or one that fails to shrink.
    """
    base, n, x = rule.base, len(ds), _horner(ds[::-1], rule.base)
    if stacked or rule.family == "left_trim":
        top_first = rule.family == "left_trim"
        weight = base - rule.q if top_first else rule.omega
        folds = list(accumulate(ds[::-1] if top_first else ds, lambda acc, d: acc * weight + d))[1:]
        if top_first:
            return [acc * base ** (n - i) + x % base ** (n - i) for i, acc in enumerate(folds, 2)]
        return [acc + base * (x // base**i) for i, acc in enumerate(folds, 2)]
    values = []
    while x >= base * base:
        low_first, m = [], x
        while m:
            m, d = divmod(m, base)
            low_first.append(d)
        if rule.family in ("trim", "talmud", "last_digits"):
            k, alpha, beta = rule.split
            v = alpha * (x // base**k) + beta * (x % base**k)
        elif rule.family == "sum":
            v = _horner(low_first, rule.omega)  # omega**j from the top digit down
        else:
            v = _horner(low_first[::-1], base - rule.q)  # (base - q)**j from the last digit up
        values.append(v)
        if abs(v) >= x:
            break
        x = abs(v)
    return values


@pytest.mark.parametrize("base", [100, 256, 257, 1000])
def test_steps_in_bases_without_a_text_form(base):
    """Above base 36 a trace has no text, but its steps are built from ints: each step's value is
    the chain's, made on ints here, and its coefficients fold to it. ``render()`` and ``as_json()``
    reject the base before any step is built.
    """
    rng = random.Random(f"wide-{base}")
    last = {100: 8, 256: 8, 257: 257, 1000: 8}[base]  # q | base**k
    rules = [(TestRule(family, 7, base), False) for family in ("trim", "sum", "binomial", "left_trim")]
    rules += [(TestRule.last_digits(last, base), False), (TestRule.trim(7, base), True)]
    for ds in _adversarial_digits(base, 30, rng):
        a = DigitString(1, base, ds)
        for rule, stacked in rules:
            trace = iterate(a, rule, stacked=stacked)
            for printed in (trace.render, trace.as_json):
                with pytest.raises(ValueError, match="text form"):
                    printed()
            assert "steps" not in trace.__dict__
            assert [step.value for step in trace.steps] == _int_chain(ds, rule, stacked), (rule, stacked, ds[-3:])
            assert all(digits.fold(step.coeffs, base) == step.value for step in trace.steps)
            assert trace.steps, (rule, stacked)


def _stepped_terminal(ds, base, step):
    """A plain chain's last number and step count from the digits ds of |a|, one step at a time.

    step maps a digit tuple (least significant first) to the step's value. None is
    taken below base**2; the chain goes on from the digits of the step's abs, and stops
    after a step below base**2 or one that fails to shrink.
    """
    x = _value(ds, base)
    v, steps = x, 0
    while x >= base * base:
        v, steps = step(ds), steps + 1
        if abs(v) >= x:
            break
        x = m = abs(v)
        ds = []
        while m:
            m, d = divmod(m, base)
            ds.append(d)
    return v, steps


def _horner(ds, weight):
    acc = 0
    for d in ds:
        acc = acc * weight + d
    return acc


@pytest.mark.parametrize("base", [2, 10, 36])
def test_sum_binomial_and_last_digits_terminals_match_stepping_on_long_inputs(base):
    rng = random.Random(f"digit-{base}")
    assert not any(_builds(f, q, base) for f in ("trim", "sum") for q in (base, 2 * base + 2))  # gcd(q, base) > 1
    sums = [TestRule.sum(q, base) for q in (base - 1, base + 1, 1000003) if math.gcd(q, base) == 1]
    binomials = [TestRule.binomial(q, base) for q in (base - 1, base, base + 1, 1000003) if q >= 2]
    lasts = [TestRule.last_digits(q, base) for q in {2: (2, 8, 2**20), 10: (8, 16, 4000), 36: (6, 432, 3**7)}[base]]
    rules = [(rule, lambda ds, w=rule.omega: _horner(ds, w)) for rule in sums]  # w**j from the top digit down
    rules += [(rule, lambda ds, w=base - rule.q: _horner(ds[::-1], w)) for rule in binomials]  # from the last up
    rules += [(rule, lambda ds, k=rule.k: _value(ds[:k], base)) for rule in lasts]
    for length in _long_lengths(3):
        for ds in _adversarial_digits(base, length, rng):
            a = DigitString(1, base, ds)
            for rule, step in rules:
                if length > 3000 and abs(families._weight(rule)) > base + 1:
                    continue  # a weight near q / 2 makes a step some 20 times as long as a: tier-1 time
                terminal, steps = _stepped_terminal(ds, base, step)
                assert divides_via(a, rule) is (terminal % rule.q == 0), (rule, length, ds[-3:])
                assert iterate(a, rule).terminal.value == terminal, (rule, length, ds[-3:])
                assert analyzer.cost_profile(a, rule).iterations == steps, (rule, length, ds[-3:])


def _length(m, base):
    """The digit count of m >= 0 in base: the least n with base**n > m, by doubling then halving n."""
    lo, hi = 1, 1
    while base**hi <= m:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if base**mid <= m else (lo, mid)
    return lo


@pytest.mark.parametrize("base", [2, 10, 36])
def test_split_cost_profiles_match_stepping_on_long_inputs(base):
    """Iterations, digit_ops and the longest step of trim, Talmud and last digits, at 10**3 to 10**4 digits."""
    rng = random.Random(f"costs-{base}")
    rules = [TestRule.trim(q, base) for q in (base - 1, base + 1, 1000003) if math.gcd(q, base) == 1]
    rules.append(TestRule("talmud", {2: 2, 10: 7, 36: 647}[base], base))
    rules += [TestRule.last_digits(q, base) for q in {2: (2, 8, 2**20), 10: (8, 16, 4000), 36: (6, 432, 3**7)}[base]]
    for length in (1000, 3000, 10**4):
        shapes = list(_adversarial_digits(base, length, rng))
        for i, rule in enumerate(rules):
            for ds in shapes if length < 10**4 else [shapes[i % 4]]:  # one shape per rule at 10**4
                x = _value(ds, base)
                _, steps, top = _split_chain(x, base, *rule.split)
                report = analyzer.cost_profile(DigitString(1, base, ds), rule)
                ops = 0 if rule.family == "last_digits" else steps  # one multiply-add per split step
                longest = length if top == x else _length(top, base)
                measured = (report.iterations, report.digit_ops, report.max_intermediate_digits)
                assert measured == (steps, ops, longest), (rule, length, ds[-3:])


_DECIMAL = [str(d) for d in range(36)]
_NEGATED = ["0"] + [str(-d) for d in range(1, 36)]


def _int_chain_texts(a, rule, sep):
    """Each plain step's op, coefficient text and value text, from the digits of the int chain's step values.

    A step's coefficients are its digits, least significant first, negated with it;
    their decimal texts are joined by sep.
    """
    for v in families._plain_chain(a.digits, rule):
        ds = digits._digits_of(abs(v), rule.base)
        text = "".join(map("0123456789abcdefghijklmnopqrstuvwxyz".__getitem__, reversed(ds)))
        decimal = _DECIMAL if v >= 0 else _NEGATED
        yield rule.family, sep.join(map(decimal.__getitem__, ds)), "-" + text if v < 0 else text


@pytest.mark.parametrize("base", [2, 10, 36])
def test_buffered_trim_traces_print_the_int_chains_text(base):
    """``trace`` and ``trace --json`` step texts of a plain trim chain equal the int chain's, byte for byte.

    Long inputs run on the digit buffer, then hand over to ints; short ones, of 2 to 12
    digits in every shape and 300 random values below base**7, cover the handover and
    the negative steps (109 trims by 7 to -8), whose zero digits print as 0. When
    ``_carried`` takes n steps, the n-th step's text is that of the number it reaches.
    """
    rng = random.Random(f"buffer-{base}")
    # q = c * base + 1 has omega = -c: -2, then about -10**6 / base; 1000003's omega is near q / 2 or not
    qs = [q for q in (2 * base + 1, 1000003, 10**6 // base * base + 1) if math.gcd(q, base) == 1]
    rules = [TestRule.trim(q, base) for q in qs]
    cases = [DigitString(1, base, ds) for n in range(2, 13) for ds in _adversarial_digits(base, n, rng)]
    cases += [DigitString.from_int(rng.randrange(base**7), base) for _ in range(300)]
    if base == 10:
        cases.append(parse("109"))
        rules.append(TestRule.trim(7))
    lengths = [(digits._LEAF << j) + e for j in range(5) for e in (-1, 1)]
    lengths += [3000] if base < 36 else []  # a base-36 reference converts each step's value with divmod
    for i, length in enumerate(lengths):
        cases.append(DigitString(1, base, list(_adversarial_digits(base, length, rng))[i % 4]))
    for i, a in enumerate(cases):
        rule = rules[i % len(rules)]
        lines = families._step_texts(iterate(a, rule), None)  # what trace prints
        items = families._step_texts(iterate(a, rule), ",\n        ")  # and trace --json
        for step, (line, item, (op, coeffs, text)) in enumerate(
            zip(lines, items, _int_chain_texts(a, rule, ",\n        "), strict=True), 1
        ):
            assert line == (op, None, text) and item == (op, coeffs, text), (rule, len(a), step)
        x, carried = families._carried(a.digits, rule)  # the buffer hands over at the verdict's number
        if carried:
            texts = families._plain_texts(a.digits, rule)
            assert next(islice(texts, carried - 1, None)) == digits._text(x, base), (rule, len(a))


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
    yield TestRule.left_trim(rng.randint(2, 9999))
    yield TestRule.talmud()
    i, j = rng.randint(0, 8), rng.randint(0, 8)
    yield TestRule.last_digits(2 ** max(i, 1) * 5**j)


def test_each_trace_step_preserves_divisibility():
    # the verdict path (divides_via) against the trace path (iterate), on every family
    rng = random.Random(5150)
    fixed = [parse(x) for x in ("0", "7", "-3", "-49")]
    for a in fixed + [random_digit_string(rng, max_digits=30) for _ in range(200)]:
        for rule in _family_rules(rng):
            expected = remainder(a, rule.q) == 0
            traces = [iterate(a, rule)]
            if rule.family == "trim":
                traces.append(iterate(a, rule, stacked=True))
            for trace in traces:
                for step in trace.steps:
                    assert (remainder(step.collapsed, rule.q) == 0) == expected
                assert (trace.verdict == DIVISIBLE) == expected
            assert divides_via(a, rule) == expected


def test_apply_once_covers_left_trim_including_single_digits():
    rule = TestRule.left_trim(7)
    assert apply_once(A, rule) == parse("11184")
    assert apply_once(parse("5"), rule) == parse("5")
    assert apply_once(parse("-5"), rule) == parse("5")
