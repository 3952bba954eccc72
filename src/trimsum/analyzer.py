"""Work accounting across the test families.

Cost is counted in single-digit multiply-adds: one unit per trimming
step, one unit per digit position when a summing test is evaluated by
running scale-and-add. Together with the weight magnitude and the peak
size of the intermediates this quantifies why small-weight summing beats
binomial summing, and why trimming beats both per decision.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import log2

from .digits import DigitString
from .families import BINOMIAL, FAMILY_TABLE, SUM, TRIM, TestRule, _values

CSV_HEADER = "q,base,family,weight_magnitude,iterations,digit_ops,max_intermediate_digits"

_COMPARE_FAMILIES = (BINOMIAL, SUM, TRIM)


@dataclass(frozen=True)
class CostReport:
    q: int
    base: int
    family: str
    weight_magnitude: int
    iterations: int
    digit_ops: int
    max_intermediate_digits: int

    # vars(self) holds the fields in declaration order; astuple and asdict would deep-copy each one
    def as_csv_row(self) -> str:
        return ",".join(map(str, vars(self).values()))

    def as_json(self) -> dict:
        return dict(vars(self))


def cost_profile(a: DigitString, rule: TestRule) -> CostReport:
    """Instrument one full run of the rule's verdict chain, keeping only its step lengths.

    The steps the chain's carried stack takes at once are counted as it takes them; each
    is shorter than |a|, so only the steps after them are measured.
    """
    carried, values = _values(a, rule)  # checks the operands before len(a) reads them
    family = FAMILY_TABLE[rule.family]
    lengths = [len(a), *_digit_counts(values, len(a), rule.base)]
    steps = carried + len(lengths) - 1
    weight, ops = abs(family.weight(rule)), family.digit_ops(steps, lengths)
    return CostReport(rule.q, rule.base, rule.family, weight, steps, ops, max(lengths))


def _digit_counts(values: Iterator[int], n: int, base: int) -> Iterator[int]:
    """The digit count of each value, moved from the previous count n by comparing with p = base**(n - 1).

    A value some 64 digits or more from p by bit length (a long input's digit sum, a large
    weight's step) restarts the count from one power of the base, not a multiply per digit.
    """
    p, far = base ** (n - 1), 64 * base.bit_length()
    for v in values:
        m = abs(v)
        if abs(m.bit_length() - p.bit_length()) > far:
            n = max(int(m.bit_length() / log2(base)), 1)  # m has n or n + 1 digits
            p = base ** (n - 1)
        while n > 1 and m < p:
            p //= base
            n -= 1
        while m >= p * base:
            p *= base
            n += 1
        yield n


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[CostReport, ...]

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER, *(r.as_csv_row() for r in self.rows)]) + "\n"

    def as_json(self) -> list[dict]:
        return [r.as_json() for r in self.rows]


def _checked_iter(name: str, values) -> Iterator:
    try:
        return iter(values)
    except TypeError:
        raise ValueError(f"{name} must be iterable, got {values!r:.60}") from None


def compare(q_list, a_list, base: int = 10) -> ComparisonTable:
    """One cost row per (q, a, family) with a test for q, sorted so output is reproducible."""
    q_list, a_list = _checked_iter("q_list", q_list), _checked_iter("a_list", a_list)
    rules = []
    for q in q_list:
        count = len(rules)
        for family in _COMPARE_FAMILIES:
            try:
                rules.append(TestRule(family, q, base))
            except ValueError as exc:
                error = exc  # raised if no family has a test for q
        if len(rules) == count:
            raise error
    keyed = []
    for a in a_list if rules else ():  # no rule reads the inputs, so neither does the sort
        reports = [cost_profile(a, rule) for rule in rules]  # each checks a before a.value reads it
        value = a.value
        keyed += [((r.q, value, r.family), r) for r in reports]
    keyed.sort(key=lambda pair: pair[0])
    return ComparisonTable(tuple(report for _, report in keyed))
