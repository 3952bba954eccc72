import dataclasses
import json
import math
import pathlib
import random
import tracemalloc

import pytest

from trimsum import analyzer
from trimsum.analyzer import CSV_HEADER, CostReport, compare, cost_profile
from trimsum.digits import DigitString, _digit_count, _text, parse
from trimsum.families import FAMILIES, TestRule, iterate
from trimsum.oracle import random_digit_string

A = parse("32184")
GOLDEN = pathlib.Path(__file__).parent / "data" / "compare_golden.csv"


def test_weight_magnitudes():
    assert cost_profile(A, TestRule.sum(39)).weight_magnitude == 4
    assert cost_profile(A, TestRule.binomial(39)).weight_magnitude == 29
    assert cost_profile(A, TestRule.trim(181)).weight_magnitude == 18
    assert cost_profile(A, TestRule.binomial(181)).weight_magnitude == 171


def test_single_digit_needs_no_iterations():
    report = cost_profile(parse("7"), TestRule.trim(7))
    assert report.iterations == 0 and report.digit_ops == 0
    assert report.max_intermediate_digits == 1


def test_trim_costs_one_op_per_step():
    rng = random.Random(88)
    for _ in range(50):
        a = abs(random_digit_string(rng, max_digits=25))
        q = rng.choice([7, 13, 17, 181, 2077])
        report = cost_profile(a, TestRule.trim(q))
        assert report.digit_ops == report.iterations


def test_summing_cost_floor():
    rng = random.Random(89)
    for _ in range(50):
        a = abs(random_digit_string(rng, max_digits=25))
        for rule in (TestRule.sum(17), TestRule.binomial(17)):
            report = cost_profile(a, rule)
            if report.iterations:
                assert report.digit_ops >= len(a) - 1


def test_weight_ordering_between_families():
    # summing weights scale q down; binomial weights are the gap to 10
    for q in range(16, 1000):
        if q % 2 == 0 or q % 5 == 0:
            continue
        omega = TestRule.trim(q).omega
        assert abs(omega) <= math.ceil(3 * q / 10) < abs(10 - q)


def test_compare_row_count_and_weights():
    table = compare([7, 9, 11, 17, 39], [A])
    assert len(table.rows) == 15
    sums = {r.q: r.weight_magnitude for r in table.rows if r.family == "sum"}
    assert sums == {7: 2, 9: 1, 11: 1, 17: 5, 39: 4}


def test_compare_empty_inputs_give_empty_table():
    table = compare([7, 9], [])
    assert table.rows == ()
    assert table.to_csv() == CSV_HEADER + "\n"


def test_compare_matches_golden_file():
    table = compare([7, 9, 11, 17, 39, 181], [A])
    assert table.to_csv() == GOLDEN.read_text()


def test_compare_output_is_byte_deterministic():
    first = compare([17, 7], [A, parse("999")])
    second = compare([7, 17], [parse("999"), A])
    assert first.to_csv() == second.to_csv()
    assert json.dumps(first.as_json()) == json.dumps(second.as_json())


def test_json_mirrors_csv():
    table = compare([7], [A])
    doc = table.as_json()
    assert [list(row) for row in doc] == [CSV_HEADER.split(",")] * 3
    assert doc[0]["family"] == "binomial" and doc[2]["family"] == "trim"
    csv_line = table.to_csv().splitlines()[1]
    assert csv_line == ",".join(str(v) for v in doc[0].values())


def _row_from_trace(a, rule):
    """The cost row read off a whole recorded trace, with each family's weight and work written here."""
    steps = iterate(a, rule).steps
    family, q, base = rule.family, rule.q, rule.base
    lengths = [len(a)] + [len(step.collapsed) for step in steps]
    if family in ("trim", "sum"):
        inverse = pow(base, -1, q)  # the least absolute inverse of the base mod q
        weight = min(inverse, q - inverse)
    elif family in ("left_trim", "binomial"):
        weight = abs(base - q)
    else:
        weight = {"talmud": 2, "last_digits": 0}[family]
    if family in ("sum", "binomial"):  # one multiply-add per input digit beyond the first, per application
        ops = sum(n - 1 for n in lengths[:-1])
    else:  # one per step; last digits only reads its low digits
        ops = 0 if family == "last_digits" else len(steps)
    return CostReport(q, base, family, weight, len(steps), ops, max(lengths))


@pytest.mark.parametrize("base", [2, 10, 36])
@pytest.mark.parametrize("family", FAMILIES)
def test_cost_rows_match_the_recorded_trace(family, base):
    rng = random.Random(base * 100 + FAMILIES.index(family))
    rules = []
    for q in range(1, 120):
        try:
            rules.append(TestRule(family, q, base))
        except ValueError:
            pass
    cases = [(random_digit_string(rng, base, max_digits=80), rng.choice(rules)) for _ in range(40)]
    # long inputs: weighted digit sums of 1000 and 3000 digits, and a left trim whose values outgrow |a|
    for n in (1000, 3000) if family in ("sum", "binomial") else ():
        cases += [(_long_input(rng, base, n), TestRule(family, q, base)) for q in (7, 101, 10**6 + 3)]
    if family == "left_trim":
        a, rule = _long_input(rng, base, 1000), TestRule.left_trim(2 * base + 3, base)
        assert cost_profile(a, rule).max_intermediate_digits > len(a)
        cases.append((a, rule))
    for a, rule in cases:
        assert cost_profile(a, rule) == _row_from_trace(a, rule), (a, rule)


def _long_input(rng, base, n):
    return DigitString(1, base, tuple(rng.randrange(base) for _ in range(n - 1)) + (rng.randrange(1, base),))


def test_compare_rejects_inputs_that_are_not_digit_strings():
    for bad in ("32184", 32184):  # each raised AttributeError from the sort key
        with pytest.raises(ValueError):
            compare([7], [bad])


@pytest.mark.parametrize("q_list,a_list", [(7, [A]), ([7], 5), (None, [A]), ([7], None), ([], 5)])
def test_compare_rejects_lists_that_are_not_iterable(q_list, a_list):
    with pytest.raises(ValueError, match="must be iterable"):  # each raised TypeError
        compare(q_list, a_list)


@pytest.mark.parametrize(
    "run",
    [lambda a: compare([7], [a]), lambda a: cost_profile(a, TestRule.left_trim(7))],
    ids=["compare", "left_trim_cost_profile"],
)
def test_cost_rows_keep_no_trace(run):
    rng = random.Random(1000)
    a = parse(str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(999)))
    tracemalloc.start()
    try:
        run(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024  # a whole 1000-digit trace takes about 4 MiB


def test_cost_profile_counts_digits_without_converting(monkeypatch):
    from_int, converted = DigitString.from_int.__func__, []

    def counting_from_int(cls, value, base=10):
        converted.append(value)
        return from_int(cls, value, base)

    monkeypatch.setattr(DigitString, "from_int", classmethod(counting_from_int))
    counted = []  # a trim, Talmud, last-digits or left-trim row counts the digits of its peak alone

    def counting_digit_count(m, base):
        counted.append(m)
        return _digit_count(m, base)

    monkeypatch.setattr(analyzer, "_digit_count", counting_digit_count)
    rng = random.Random(300)
    a = parse(str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(299)))
    for rule in (TestRule.trim(7), TestRule.talmud(), TestRule.left_trim(7), TestRule.last_digits(8)):
        report = cost_profile(a, rule)
        assert converted == [] and len(counted) == 1
        assert report.iterations > 100 or rule.family == "last_digits"
        assert report == _row_from_trace(a, rule)  # which converts every step
        converted.clear()
        counted.clear()


def _dataclass_repr(value):
    """The repr the dataclass decorator would write: each repr field as name=repr(value)."""
    shown = ", ".join(f"{f.name}={getattr(value, f.name)!r}" for f in dataclasses.fields(value) if f.repr)
    return f"{type(value).__qualname__}({shown})"


def test_reprs_of_ordinary_values_are_the_dataclass_reprs():
    rule = TestRule.trim(7)
    assert repr(rule) == "TestRule(family='trim', q=7, base=10, omega=-2, k=None, split=(1, 1, -2))"
    stacked = iterate(A, rule, stacked=True)
    assert repr(stacked.steps[-1]) == "TraceStep(op='stack', value=3, coeffs=(3,), base=10)"  # a 1-tuple
    assert repr(stacked).startswith(f"Trace(rule={rule!r}, a=DigitString(sign=1, base=10, digits=(4, 8, 1, 2, 3))")
    for family in FAMILIES:
        trace = iterate(parse("-987654321"), TestRule(family, 8 if family == "last_digits" else 7))
        report = cost_profile(trace.a, trace.rule)
        for value in (trace.rule, trace, *trace.steps, report):
            assert repr(value) == _dataclass_repr(value), family


def test_reprs_write_ints_past_the_int_to_str_limit():
    """Under the default limit and under the least one (640 digits) alike."""
    q, a = 10**5000 + 3, parse("12345")
    rule = TestRule.trim(q)
    q_text, omega = _text(q, 10), _text(rule.omega, 10)
    assert repr(rule) == f"TestRule(family='trim', q={q_text}, base=10, omega={omega}, k=None, split=(1, 1, {omega}))"
    trace = iterate(a, rule)
    assert repr(trace) == f"Trace(rule={rule!r}, a={a!r}, stacked=False, verdict='not_divisible')"
    (step,) = trace.steps  # 1234 + 5 * omega: a first step that does not shrink |a|
    coeffs = ", ".join(map(str, step.coeffs))
    assert _digit_count(abs(step.value), 10) > 5000
    assert repr(step) == f"TraceStep(op='trim', value={_text(step.value, 10)}, coeffs=({coeffs}), base=10)"
    report = cost_profile(a, rule)
    assert repr(report) == (
        f"CostReport(q={q_text}, base=10, family='trim', weight_magnitude={_text(abs(rule.omega), 10)}, "
        f"iterations=1, digit_ops=1, max_intermediate_digits={report.max_intermediate_digits})"
    )
