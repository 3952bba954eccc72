"""Mutants of the split verdict's fold and its residue mod q, the sum and binomial step, the chain's
proof bounds and the key that keeps them to ``_split`` chains, the trace buffer, the stacked chain's
fold, the join of a value's digit pieces and the rule obligation: each is killed by a small fixed input set.

A mutant is one function of the library recompiled from its source with one snippet
replaced, and monkeypatched in. Every case is judged against ``oracle.remainder``, and
its terminal and printed trace (every step's value and coefficients and the ``terminal:``
line) against its chain made here: a trim, Talmud or last-digits rule's splits, and a sum or
binomial rule's weighted digit sums, stepped on ints, a stacked-trim or left-trim rule's folded one digit at a time.
The unmutated code passes every case, and each mutant fails at least one. A rule the
obligation rejects is skipped, so a mutant that lets it build is judged by its verdicts.
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

# _folded's loop body: the value moves by the fold before the next digit, then that digit is folded in
_FOLD_STEP = """if order == 1:
            value = (value - acc) // base + weight * acc
        else:
            power //= base
            value += (weight - base) * acc * power
        acc = acc * weight + digit"""

# name: (module, function, snippet, its replacement)
MUTANTS = {
    "order_flipped": (families, "_split_fold", "-1 if k == alpha == 1 else 1", "1"),
    "alpha_beta_swapped": (families, "_split_fold", "base, (k, alpha, _)", "base, (k, _, alpha)"),
    # groups aligned to the top of an odd digit count, not to its last digit, where Talmud's weights do not recur
    "talmud_top_group_misaligned": (
        digits,
        "_residue",
        "fold(coeffs[j::k], x, 1, q)",
        "fold(coeffs[j + len(coeffs) % k :: k], x, 1, q)",
    ),
    "carried_steps_one_higher": (families, "_carried_steps", "-(-n // k) - 1 - keep", "-(-n // k) - keep"),
    # sum's (1, 1, omega) and binomial's (1, base - q, 1) carried as if their chain split like trim's
    "split_key_dropped": (
        families,
        "_carried_steps",
        "FAMILY_TABLE[rule.family].step is not _split or not 0 < alpha",
        "not 0 < alpha",
    ),
    # the carried stack's top groups not scaled by alpha**t, and Talmud's chain drifts from it
    "carried_scale_not_alpha": (families, "_values", "scale *= alpha", "scale *= 1"),
    # a first step as long as |a| taken as shorter by bit length: the chain steps on past |a|
    "smaller_bit_bound_one_high": (families, "_smaller", "n * (base.bit_length() - 1)", "n * base.bit_length()"),
    # the step's digits reversed: the sum test's weights attach from the last digit up, not from the top down
    "sum_folded_from_last_digit": (families, "_digit_sum", "_digits(x, r.base)", "_digits(x, r.base)[::-1]"),
    "binomial_weight_one_high": (families, "_split_fold", "_weight(rule)", "_weight(rule) + (rule.family == BINOMIAL)"),
    # the verdict's residue: the weights' period one short, the weight y**j of place j in a group one
    # power high, the preperiod's own weights left out, and the negative stride that reads a fold from
    # the top (order -1) starting one position off
    "residue_period_one_short": (digits, "_cycle", "weights[mu:]", "weights[mu:-1]"),
    "place_weight_one_power_high": (digits, "_cycle", "y**j % q", "y ** (j + 1) % q"),
    "residue_preperiod_dropped": (
        digits,
        "_residue",
        "total, step = sum(map(mul, head, ordered)), order * lam",
        "total, step = 0, order * lam",
    ),
    "residue_reversed_start_one_off": (digits, "_residue", "n - 1 - mu - r", "n - 2 - mu - r"),
    # the ladder's powers of a fold mod q whose weights do not recur, reduced by the wrong modulus
    "fold_power_reduced_mod_q_plus_one": (digits, "fold", "power % q", "power % (q + 1)"),
    # a value's digits read as pieces of text: joined high piece low, or by a power one digit short
    "int_of_pieces_joined_high_first": (digits, "_int_of", "low + high * power", "high + low * power"),
    "int_of_join_power_one_digit_short": (digits, "_int_of", "power = base**_CHUNK", "power = base**(_CHUNK - 1)"),
    # a reversed leaf read from the front of the coefficients, not from their back
    "reversed_leaf_misplaced": (digits, "_fold", "coeffs[n - hi : n - lo]", "coeffs[lo:hi]"),
    # the trace buffer's borrow or carry never reaches the top digit
    "buffer_borrow_stops_early": (families, "_plain_texts", "while carry and i >= 0", "while carry and i > 0"),
    "buffer_top_carry_dropped": (families, "_plain_texts", "buf.insert(0, carry)", "None"),
    # the stacked value moved by the fold that has taken in the next digit
    "value_from_new_fold": (
        families,
        "_folded",
        _FOLD_STEP,
        "acc = acc * weight + digit\n        " + _FOLD_STEP.rsplit("\n", 1)[0],
    ),
    "left_power_one_digit_off": (families, "_folded", "base ** (len(d) - 1)", "base ** len(d)"),
    "fold_with_base_not_weight": (families, "_folded", "acc = acc * weight + digit", "acc = acc * base + digit"),
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
    # no family has B / 2 < alpha <= B, so the guard alpha <= B / 2 never rejects a rule
    "carried_steps_guard_alpha_up_to_big": (families, "_carried_steps", "0 < alpha <= big // 2", "0 < alpha <= big"),
}

# (family, q, base); talmud's q = 9 in base 10 and q = 5 in base 36 break the obligation base**2 = 2 (mod q),
# and its q = 14 shares a factor with the base, so the weight of a digit's place in its group is no unit
RULES = [
    ("trim", 7, 10),
    ("trim", 13, 10),
    ("talmud", 7, 10),
    ("talmud", 9, 10),
    ("talmud", 14, 10),
    ("last_digits", 8, 10),
    ("trim", 3, 2),
    ("last_digits", 4, 2),
    ("trim", 37, 36),
    ("talmud", 647, 36),
    ("talmud", 5, 36),
]
RULES += [(family, q, base) for family in ("sum", "binomial") for q, base in ((7, 10), (13, 10), (3, 2), (37, 36))]
# a large weight: the first step of |a| = base**3 + r can outgrow |a| at its bit length
RULES += [("sum", 101, 36)]
# weights base - q that share a factor with q, so their powers mod q recur after a preperiod
RULES += [("binomial", 8, 10), ("binomial", 12, 10), ("binomial", 33, 36)]
# stacked trim and left trim, run stacked: (family, q, base)
STACKED = [(family, q, base) for family in ("trim", "left_trim") for q, base in ((7, 10), (13, 10), (3, 2), (37, 36))]
# one digit, the lengths around the chain's carried steps, and fold's leaf and its multiples
LENGTHS = (1, 2, 3, 4, 5, 6, 7, 8, 13, 64, 65, 129, 200)
# three of _int_of's 512-character pieces, read whole by a plain Talmud trace's first step; a stacked
# chain reads them too, but its printed steps, a coefficient list each, are slow to check at this length
PIECES = 1025


def _cases():
    """(rule, stacked, |a|): random values and the multiples of q below them, 1 0 ... 0 r, and
    1 0 ... 0 and all base - 1 of 5 to 13 digits, whose chains borrow or carry into the top digit.
    A rule the code rejects yields no case.
    """
    rng = random.Random(21)
    for spec, stacked in [(spec, False) for spec in RULES] + [(spec, True) for spec in STACKED]:
        try:
            rule = TestRule(*spec)
        except ValueError:
            continue
        base = rule.base
        for n in LENGTHS if stacked else (*LENGTHS, PIECES):
            v = rng.randrange(base ** (n - 1), base**n) if n > 1 else rng.randrange(base)
            yield rule, stacked, v
            yield rule, stacked, v - v % rule.q
        for r in range(base):
            yield rule, stacked, base**3 + r
        for n in range(5, 14):
            yield rule, stacked, base ** (n - 1)
            yield rule, stacked, base**n - 1


def _stepped(x, rule):
    """The plain split chain's steps from x = |a|, one int step at a time: each step's
    coefficient text ("", as a plain ``trace`` line shows none) and value.
    """
    (k, alpha, beta), chain = rule.split, []
    while x >= rule.base**2:
        high, low = divmod(x, rule.base**k)
        chain.append(("", alpha * high + beta * low))
        if abs(chain[-1][1]) >= x:
            break
        x = abs(chain[-1][1])
    return chain


def _summed(x, rule):
    """The sum or binomial chain's steps from x = |a|, one int step at a time, as ``_stepped``'s:
    the weighted digit sum of |x|'s digits, omega**j from the top digit down for sum and
    (base - q)**j from the last digit up for binomial.
    """
    base, chain = rule.base, []
    while x >= base**2:
        ds, m = [], x
        while m:
            m, d = divmod(m, base)
            ds.append(d)
        if rule.family == "sum":
            v = sum(d * rule.omega ** (len(ds) - 1 - i) for i, d in enumerate(ds))
        else:
            v = sum(d * (base - rule.q) ** i for i, d in enumerate(ds))
        chain.append(("", v))
        if abs(v) >= x:
            break
        x = abs(v)
    return chain


def _folds(x, rule):
    """The stacked chain's steps from x = |a|, each step's coefficient text and value.

    Trim folds from the last digit up with omega, left trim from the top digit down with
    base - q: acc = acc * weight + the next digit. After i digits are folded, the
    coefficients, least significant first, are acc in the slot of the last digit folded
    beside the digits not yet folded, which stand where they stood in |a|.
    """
    base, ds, m = rule.base, [], x
    while m:
        m, d = divmod(m, base)
        ds.append(d)
    n, top_first = len(ds), rule.family == "left_trim"
    weight = base - rule.q if top_first else rule.omega
    ordered = ds[::-1] if top_first else ds
    acc, chain = ordered[0] if ds else 0, []
    for i in range(2, n + 1):
        acc = acc * weight + ordered[i - 1]
        if top_first:  # the low n - i digits, then acc
            coeffs, value = ds[: n - i] + [acc], x % base ** (n - i) + acc * base ** (n - i)
        else:  # acc, then the digits above the low i
            coeffs, value = [acc] + ds[i:], acc + base * (x // base**i)
        chain.append((", ".join(map(str, coeffs)), value))
    return chain


def _read(text, base):
    """int(text, base), read 600 characters at a time from the top: under the least int->str digit limit."""
    sign, body, v = -1 if text.startswith("-") else 1, text.lstrip("-"), 0
    for i in range(0, len(body), 600):
        v = v * base ** len(body[i : i + 600]) + int(body[i : i + 600], base)
    return sign * v


def _printed(text, base):
    """Each step's coefficient text and value, and the terminal, a ``trace`` text prints; the
    values read back if each is canonical text.
    """
    *steps, terminal = re.findall(r"^step \d+: \w+ -> (?:\[(.*)\] = )?(.*)$|^terminal: (.*)$", text, re.M)
    texts = [value for _, value, _ in steps] + [terminal[2]]
    if all(re.fullmatch(r"-?[1-9a-z][0-9a-z]*|0", t) for t in texts):
        texts = [_read(t, base) for t in texts]
    return [coeffs for coeffs, _, _ in steps], texts


def _failures():
    """Each case the code fails, as (rule, stacked, |a|), lazily: a mutant needs only the first."""
    for rule, stacked, v in _cases():
        a = DigitString.from_int(v, rule.base)
        divisible = remainder(a, rule.q) == 0
        split = rule.family in ("trim", "talmud", "last_digits")
        chain = _folds(v, rule) if stacked else _stepped(v, rule) if split else _summed(v, rule)
        values = [value for _, value in chain]
        last = values[-1] if chain else v
        try:
            trace = iterate(a, rule, stacked=stacked)
            ok = divides_via(a, rule) is divisible and (trace.verdict == DIVISIBLE) is divisible
            ok = ok and trace.terminal.value == last
            printed = _printed(iterate(a, rule, stacked=stacked).render(), rule.base)
            ok = ok and printed == ([coeffs for coeffs, _ in chain], [*values, last])
        except Exception:  # a mutant that raises is caught too
            ok = False
        if not ok:
            yield rule, stacked, v


def _mutant(owner, name, old, new):
    """owner's function ``name`` compiled from its source with old replaced by new, in its module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, (name, old)
    module = inspect.getmodule(owner)
    namespace = dict(vars(module))
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), module.__file__, "exec", flags=flags, dont_inherit=True), namespace)
    return namespace[name]


def _patch(monkeypatch, owner, name, old, new):
    """Monkeypatch the mutant in, in ``families`` if it imports the function (``fold``) and in the
    ``FAMILY_TABLE`` records that hold the function as their step too."""
    original, mutant = getattr(owner, name), _mutant(owner, name, old, new)
    monkeypatch.setattr(owner, name, mutant)
    if getattr(families, name, None) is original:
        monkeypatch.setattr(families, name, mutant)
    for family, record in families.FAMILY_TABLE.items():
        if record.step is original:
            fields = (record.order, record.chain_op, record.always_stacked, record.default_q)
            monkeypatch.setitem(families.FAMILY_TABLE, family, families.Family(record.derive, mutant, *fields))


def test_the_unmutated_code_passes_every_case():
    assert list(_failures()) == []


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_every_mutant_is_killed(monkeypatch, mutant):
    _patch(monkeypatch, *MUTANTS[mutant])
    assert next(_failures(), None), mutant


@pytest.mark.parametrize("mutant", sorted(SURVIVORS))
def test_each_survivor_passes_every_case(monkeypatch, mutant):
    _patch(monkeypatch, *SURVIVORS[mutant])
    assert list(_failures()) == [], mutant
