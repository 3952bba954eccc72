"""Mutants of the split verdict's fold, the trace buffer and the rule obligation: each is
killed by a small fixed input set.

A mutant is one function of the library recompiled from its source with one snippet
replaced, and monkeypatched in. Every case is judged against ``oracle.remainder``, and
its terminal and printed trace (every step value and the ``terminal:`` line) against
the plain chain stepped here on ints; the unmutated code passes every case, and each
mutant fails at least one. A rule the obligation rejects is skipped, so a mutant that
lets it build is judged by its verdicts.
"""

import __future__
import inspect
import random
import re
import textwrap

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
    # the trace buffer's borrow or carry never reaches the top digit
    "buffer_borrow_stops_early": (families, "_plain_texts", "while carry and i >= 0", "while carry and i > 0"),
    "buffer_top_carry_dropped": (families, "_plain_texts", "buf.insert(0, carry)", "None"),
    "obligation_skipped": (
        TestRule,
        "__post_init__",
        "not shaped or gcd(beta, self.q) != 1 or (alpha - beta * pow(self.base, width, self.q)) % self.q",
        "not shaped",
    ),
}

# Mutants no input can kill: each marks a bound that is not tight, as the mutated function's
# docstring shows.
SURVIVORS = {
    "carried_steps_constant_one_lower": (
        families,
        "_carried_steps",
        "2 * (abs(beta) + 1) + big",
        "2 * (abs(beta) + 1) - 1 + big",
    ),
}

# (family, q, base); talmud's q = 9 in base 10 and q = 5 in base 36 break the obligation base**2 = 2 (mod q)
RULES = [
    ("trim", 7, 10),
    ("trim", 13, 10),
    ("talmud", 7, 10),
    ("talmud", 9, 10),
    ("last_digits", 8, 10),
    ("trim", 3, 2),
    ("last_digits", 4, 2),
    ("trim", 37, 36),
    ("talmud", 647, 36),
    ("talmud", 5, 36),
]
# one digit, the lengths around the chain's carried steps, and fold's leaf and its multiples
LENGTHS = (1, 2, 3, 4, 5, 6, 7, 8, 13, 64, 65, 129, 200)


def _cases():
    """(rule, |a|) pairs: random values and the multiples of q below them, 1 0 ... 0 r, and
    1 0 ... 0 and all base - 1 of 5 to 13 digits, whose chains borrow or carry into the top digit.
    A rule the code rejects yields no case.
    """
    rng = random.Random(21)
    for spec in RULES:
        try:
            rule = TestRule(*spec)
        except ValueError:
            continue
        base = rule.base
        for n in LENGTHS:
            v = rng.randrange(base ** (n - 1), base**n) if n > 1 else rng.randrange(base)
            yield rule, v
            yield rule, v - v % rule.q
        for r in range(base):
            yield rule, base**3 + r
        for n in range(5, 14):
            yield rule, base ** (n - 1)
            yield rule, base**n - 1


def _stepped(x, rule):
    """The plain split chain's step values from x = |a|, one int step at a time."""
    (k, alpha, beta), chain = rule.split, []
    while x >= rule.base**2:
        high, low = divmod(x, rule.base**k)
        chain.append(alpha * high + beta * low)
        if abs(chain[-1]) >= x:
            break
        x = abs(chain[-1])
    return chain


def _printed(text, base):
    """The step values and the terminal a ``trace`` text prints, read back, if each is canonical text."""
    *steps, terminal = re.findall(r"^step \d+: \w+ -> (.*)$|^terminal: (.*)$", text, re.M)
    texts = [step for step, _ in steps] + [terminal[1]]
    if all(re.fullmatch(r"-?[1-9a-z][0-9a-z]*|0", t) for t in texts):
        return [int(t, base) for t in texts]
    return texts


def _failures():
    failures = []
    for rule, v in _cases():
        a = DigitString.from_int(v, rule.base)
        divisible = remainder(a, rule.q) == 0
        chain = _stepped(v, rule)
        last = chain[-1] if chain else v
        try:
            trace = iterate(a, rule)
            ok = divides_via(a, rule) is divisible and (trace.verdict == DIVISIBLE) is divisible
            ok = ok and trace.terminal.value == last
            ok = ok and _printed(iterate(a, rule).render(), rule.base) == [*chain, last]
        except Exception:  # a mutant that raises is caught too
            ok = False
        if not ok:
            failures.append((rule, v))
    return failures


def _mutant(owner, name, old, new):
    """owner's function ``name`` compiled from its source with old replaced by new, in its module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, (name, old)
    module = inspect.getmodule(owner)
    namespace = dict(vars(module))
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), module.__file__, "exec", flags=flags, dont_inherit=True), namespace)
    return namespace[name]


def test_the_unmutated_code_passes_every_case():
    assert _failures() == []


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_every_mutant_is_killed(monkeypatch, mutant):
    owner, name, old, new = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, _mutant(owner, name, old, new))
    assert _failures(), mutant


@pytest.mark.parametrize("mutant", sorted(SURVIVORS))
def test_each_survivor_passes_every_case(monkeypatch, mutant):
    owner, name, old, new = SURVIVORS[mutant]
    monkeypatch.setattr(owner, name, _mutant(owner, name, old, new))
    assert _failures() == [], mutant
