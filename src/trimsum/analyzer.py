"""Work accounting across the test families.

Cost is counted in single-digit multiply-adds: one unit per trimming
step, one per digit position beyond the first when a summing test is
evaluated by running scale-and-add, and none for a last-digits step.
Together with the weight magnitude and the peak size of the
intermediates this quantifies why small-weight summing beats binomial
summing, and why trimming beats both per decision.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .digits import DigitString, _digit_count, _shown, _text
from .families import BINOMIAL, FAMILY_TABLE, SUM, TRIM, TestRule, _digit_sum, _split, _values, _weight

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
        return ",".join(v if type(v) is str else _text(v, 10) for v in vars(self).values())

    def as_json(self) -> dict:
        return dict(vars(self))


def cost_profile(a: DigitString, rule: TestRule) -> CostReport:
    """Instrument one full run of the rule's verdict chain, counting as its values arrive.

    The steps its carried stack takes at once, each shorter than |a|, are counted as it takes
    them. A weighted digit sum step costs one multiply-add per input digit beyond the first,
    a last-digits split (alpha = 0) none, and any other step one; no value is converted.
    """
    carried, values = _values(a, rule)  # checks the operands before len(a) reads them
    base, step = rule.base, FAMILY_TABLE[rule.family].step
    steps, peak, ops, n = carried, 0, 0, len(a)
    for v in values:
        m = abs(v)
        steps, peak = steps + 1, max(peak, m)
        if step is _digit_sum:  # each application reads its input's n digits
            ops, n = ops + n - 1, _digit_count(m, base)
    if step is not _digit_sum:
        ops = 0 if step is _split and not rule.split[1] else steps
    digits = max(len(a), _digit_count(peak, base))  # the carried steps are shorter than |a|
    return CostReport(rule.q, base, rule.family, abs(_weight(rule)), steps, ops, digits)


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
        raise ValueError(f"{name} must be iterable, got {_shown(values)}") from None


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
