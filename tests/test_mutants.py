"""Mutants of the split verdict's fold: each is killed by a small fixed input set.

A mutant is one function of the library recompiled from its source with one snippet
replaced, and monkeypatched in. Every case is judged against ``oracle.remainder`` and
against the plain chain stepped here on ints; the unmutated code passes every case,
and each mutant fails at least one.
"""

import __future__
import inspect
import random

import pytest

from trimsum import digits, families
from trimsum.digits import DigitString
from trimsum.families import DIVISIBLE, TestRule, divides_via, iterate
from trimsum.oracle import remainder

# name: (module, function, snippet, its replacement)
MUTANTS = {
    "order_flipped": (families, "_split_fold", "fold(d, beta, -1)", "fold(d, beta)"),
    "alpha_beta_swapped": (families, "_split_fold", "base, (k, alpha, beta)", "base, (k, beta, alpha)"),
    # groups aligned to the top of an odd digit count, not to its last digit
    "talmud_top_group_misaligned": (families, "_split_fold", "d[j:top:k]", "d[j + top % k : top : k]"),
    "carried_steps_one_higher": (families, "_carried_steps", "-(-n // k) - 1 - keep", "-(-n // k) - keep"),
    # a reversed leaf read from the front of the coefficients, not from their back
    "reversed_leaf_misplaced": (digits, "_fold", "coeffs[n - hi : n - lo]", "coeffs[lo:hi]"),
}

RULES = [
    TestRule.trim(7),
    TestRule.trim(13),
    TestRule.talmud(),
    TestRule.last_digits(8),
    TestRule.trim(3, 2),
    TestRule.last_digits(4, 2),
    TestRule.trim(37, 36),
    TestRule("talmud", 647, 36),
]
# one digit, the lengths around the chain's carried steps, and fold's leaf and its multiples
LENGTHS = (1, 2, 3, 4, 5, 6, 7, 8, 13, 64, 65, 129, 200)


def _cases():
    """(rule, |a|) pairs: random values and the multiples of q below them, and 1 0 ... 0 r."""
    rng = random.Random(21)
    for rule in RULES:
        base = rule.base
        for n in LENGTHS:
            v = rng.randrange(base ** (n - 1), base**n) if n > 1 else rng.randrange(base)
            yield rule, v
            yield rule, v - v % rule.q
        for r in range(base):
            yield rule, base**3 + r


def _stepped(x, rule):
    """The plain split chain's last number from x = |a|, one int step at a time."""
    (k, alpha, beta), v = rule.split, x
    while x >= rule.base**2:
        high, low = divmod(x, rule.base**k)
        v = alpha * high + beta * low
        if abs(v) >= x:
            break
        x = abs(v)
    return v


def _failures():
    failures = []
    for rule, v in _cases():
        a = DigitString.from_int(v, rule.base)
        divisible = remainder(a, rule.q) == 0
        try:
            trace = iterate(a, rule)
            ok = divides_via(a, rule) is divisible and (trace.verdict == DIVISIBLE) is divisible
            ok = ok and trace.terminal.value == _stepped(v, rule)
        except Exception:  # a mutant that raises is caught too
            ok = False
        if not ok:
            failures.append((rule, v))
    return failures


def _mutant(module, name, old, new):
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), module.__file__, "exec", flags=flags, dont_inherit=True), namespace)
    return namespace[name]


def test_the_unmutated_code_passes_every_case():
    assert _failures() == []


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_every_mutant_is_killed(monkeypatch, mutant):
    module, name, old, new = MUTANTS[mutant]
    monkeypatch.setattr(module, name, _mutant(module, name, old, new))
    assert _failures(), mutant
