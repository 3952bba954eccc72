import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trimsum import analyzer, digits, oracle
from trimsum.digits import DigitString, fold, parse
from trimsum.families import TestRule, TraceStep, apply_once, divides_via, iterate
from trimsum.oracle import random_digit_string

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


# int(text, base) accepts "+", whitespace, "_" and non-ASCII decimal digits; parse accepts none
# of them, and names the rightmost bad character, as a scan from the last digit up finds it
@pytest.mark.parametrize(
    "text,base,bad",
    [
        ("+5", 10, "+"),
        (" 5", 10, " "),
        ("5 ", 10, " "),
        ("1_000", 10, "_"),
        ("--5", 10, "-"),
        ("5-", 10, "-"),
        ("\x00", 10, "\x00"),
        ("\u0663", 10, "\u0663"),  # Arabic-Indic three
        ("\uff15", 10, "\uff15"),  # fullwidth five
        ("\u212a", 36, "\u212a"),  # the Kelvin sign, which str.lower() folds to k
        ("1\ud800", 10, "\ud800"),  # a lone surrogate, which str.encode() cannot encode
        ("a", 10, "a"),
        ("z", 35, "z"),
        ("Z", 35, "Z"),
        ("1" * 5000 + "x" + "2" * 4999, 10, "x"),
        ("1x2\u06633", 10, "\u0663"),
        ("\u06631x23", 10, "x"),
    ],
)
def test_parse_rejections_name_the_rightmost_bad_character(text, base, bad):
    with pytest.raises(ValueError) as e:
        parse(text, base)
    assert str(e.value) == f"invalid digit {bad!r} for base {base}"
    assert parse("1x", 36).value == 69  # x is a digit from base 34 up


@pytest.mark.parametrize("text", ["", "-"])
def test_parse_rejects_empty_bodies(text):
    with pytest.raises(ValueError) as e:
        parse(text)
    assert str(e.value) == "empty digit string"


class _Int(int):
    pass


@pytest.mark.parametrize(
    "sign,base,ds,message",
    [
        (1, 10, (True,), "digits must be a non-empty tuple of ints, got (True,)"),
        (1, 10, (_Int(1),), "digits must be a non-empty tuple of ints, got (1,)"),
        (1, 10, (-1,), "digit out of range for base 10: (-1,)"),
        (1, 10, (10,), "digit out of range for base 10: (10,)"),
        (1, 10, (256,), "digit out of range for base 10: (256,)"),  # bytes() rejects it with its own message
        (1, 10, (10**30,), f"digit out of range for base 10: {(10**30,)!r}"),
        (1, 256, (3, 256), "digit out of range for base 256: (3, 256)"),
        (1, 1000, (1000,), "digit out of range for base 1000: (1000,)"),
        (1, 1000, (-1, 1), "digit out of range for base 1000: (-1, 1)"),
        (1, 10, (1, 0), "leading zero digit"),
        (1, 1000, (1, 0), "leading zero digit"),
        (-1, 10, (0,), "zero must have positive sign"),
        # the base is one exact-int check, which names the type: these printed "base must be an int >= 2"
        (1, True, (1,), "base must be an integer, got bool True"),
        (1, _Int(10), (1,), "base must be an integer, got _Int 10"),
        (1, 10.0, (1,), "base must be an integer, got float 10.0"),
        (1, 1, (0,), "base must be >= 2, got 1"),
    ],
)
def test_digit_validation_keeps_every_rejection_and_its_message(sign, base, ds, message):
    with pytest.raises(ValueError) as e:
        DigitString(sign, base, ds)
    assert str(e.value) == message


def test_digit_validation_accepts_every_digit_below_the_base():
    assert DigitString(1, 1000, (999, 1)).value == 1999
    assert DigitString(-1, 256, (255, 0, 1)).value == -(2**16 + 255)
    assert DigitString(1, 257, (256,)).value == 256
    assert DigitString(1, 10, tuple(range(10))).value == 9876543210


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
    assert apply_once(a, TestRule.last_digits(100)) == parse("84")
    assert apply_once(a, TestRule.talmud()) == parse(str(2 * 321 + 84))
    assert apply_once(a, TestRule.last_digits(10)) == parse("4")
    assert apply_once(a, TestRule.trim(1)) == parse("3218")
    assert apply_once(parse("5"), TestRule.last_digits(10)) == parse("5")
    assert apply_once(parse("5"), TestRule.trim(1)) == parse("0")


@given(v=st.integers(min_value=0, max_value=10**40), base=bases)
def test_split_identity_every_k(v, base):
    a = DigitString.from_int(v, base)
    for k in range(len(a) + 2):
        rule = TestRule.last_digits(base**k, base)
        assert rule.k == k
        low = apply_once(a, rule)
        assert (v - low.value) % base**k == 0 and 0 <= low.value < base**k
        assert len(low) <= max(k, 1)


def test_split_rejects_bad_input():
    # a last-digits step reads |a|, and takes only a rule in the value's base
    assert apply_once(parse("-5"), TestRule.last_digits(10)) == parse("5")
    with pytest.raises(ValueError):
        apply_once(parse("5", 16), TestRule.last_digits(8))


def _collapsed(coeffs, base=10):
    """Collapse: the canonical form of a stacked step with these coefficients, their fold."""
    return DigitString.from_int(fold(coeffs, base), base)


def test_collapse_examples():
    assert _collapsed((12, 1, 2, 3)) == parse("3222")
    assert _collapsed((4, 8, 1, 1, 1)) == parse("11184")
    assert _collapsed((0,)) == parse("0")
    assert _collapsed((-14,)) == parse("-14")


@given(
    base=bases,
    coeffs=st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=12),
)
def test_collapse_preserves_value(base, coeffs):
    step = TraceStep("stack", fold(tuple(coeffs), base), tuple(coeffs), base)
    expected = sum(c * base**i for i, c in enumerate(coeffs))
    assert step.stacked is step
    assert fold(step.coeffs, base) == step.value == expected
    assert step.collapsed.value == expected


def test_collapse_soundness_seeded_bulk():
    rng = random.Random(40894)
    for _ in range(10_000):
        base = rng.choice([2, 7, 10, 16])
        coeffs = tuple(rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 10)))
        assert _collapsed(coeffs, base).value == sum(c * base**i for i, c in enumerate(coeffs))


@given(v=ints, base=bases)
def test_collapse_after_lift_is_identity(v, base):
    ds = DigitString.from_int(v, base)
    coeffs = tuple(ds.sign * d for d in ds.digits)  # the lift: a plain step's coefficients
    assert _collapsed(coeffs, base) == ds


@given(
    coeffs=st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=10),
    q=st.integers(min_value=1, max_value=997),
)
def test_divisibility_is_representation_invariant(coeffs, q):
    assert (fold(tuple(coeffs), 10) % q == 0) == (_collapsed(tuple(coeffs)).value % q == 0)


def test_base_mismatch_rejected():
    # apply_once and iterate refuse a value whose base differs from its rule's
    with pytest.raises(ValueError):
        apply_once(parse("10", 16), TestRule.trim(7))
    with pytest.raises(ValueError):
        iterate(parse("10", 16), TestRule.trim(7), stacked=True)
    with pytest.raises(ValueError):
        apply_once(parse("10", 16), TestRule.talmud())


def test_digit_string_validation():
    for bad in [
        lambda: DigitString(1, 10, ()),
        lambda: DigitString(1, 10, (10,)),
        lambda: DigitString(1, 10, (1, 0)),  # leading zero
        lambda: DigitString(-1, 10, (0,)),  # negative zero
        lambda: DigitString(2, 10, (1,)),
        lambda: DigitString(1, 1, (0,)),
        # values must be ints and digits a tuple: these built, or raised TypeError
        lambda: DigitString(1, 10, (1.5,)),
        lambda: DigitString(1, 10, (True,)),
        lambda: DigitString(1.0, 10, (1,)),
        lambda: DigitString(True, 10, (1,)),
        lambda: DigitString(1, 10.0, (1,)),
        lambda: DigitString(1, True, (1,)),
        lambda: DigitString(1, 10, [1, 2]),
        lambda: DigitString(1, 10, "12"),
    ]:
        with pytest.raises(ValueError):
            bad()


def test_stacked_number_validation_and_json():
    # a stacked number is its coefficient tuple, and its value their fold
    assert fold((8 + (-2) * 4, 1, 2, 3), 10) == 3210
    step = iterate(parse("32184"), TestRule.trim(7), stacked=True).as_json()["steps"][0]
    assert step == {"op": "stack", "coeffs": [0, 1, 2, 3], "collapsed": "3210"}


def test_from_int_rejects_values_that_are_not_ints():
    # "5" raised TypeError, True returned 1 and 5.0 failed with a digits message; an int
    # subclass printed "value must be an int, got 5", and a long list its whole repr
    for bad in ("5", True, 5.0, None, _Int(5), [0] * 3400):
        for name, args in (("value", (bad,)), ("base", (5, bad))):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {type(bad).__name__} ") as e:
                DigitString.from_int(*args)
            assert len(str(e.value)) < 200
    with pytest.raises(ValueError, match="^base must be >= 2, got 1$"):  # was "base must be an int >= 2, got 1"
        DigitString.from_int(5, 1)


@pytest.mark.parametrize("base", ["10", 10.0, True, None])
def test_parse_rejects_a_base_that_is_not_an_int(base):
    with pytest.raises(ValueError, match="text form supports bases"):  # "10" raised TypeError
        parse("5", base)


def _conversion_lengths():
    """The leaf size and its neighbours, and every power of two +-1, up to 10**4 digits."""
    lengths = {digits._LEAF - 1, digits._LEAF, digits._LEAF + 1, 10**4}
    p = 1
    while p <= 10**4:
        lengths |= {p - 1, p, p + 1}
        p *= 2
    return sorted(n for n in lengths if 1 <= n <= 10**4)


def _horner(coeffs, x, modulus=None):
    """The test's own fold, one coefficient at a time from the top, optionally mod a modulus."""
    v = 0
    for c in reversed(coeffs):
        v = v * x + c if modulus is None else (v * x + c) % modulus
    return v


@pytest.mark.parametrize("base", range(2, 37))
def test_divide_and_conquer_round_trips(base):
    prime = 2**61 - 1  # values checked mod a prime: the test's own loop stays linear
    rng = random.Random(base)
    for n in _conversion_lengths():
        top = (rng.randrange(1, base),)
        mixed = tuple(rng.choices(range(base), k=n - 1)) + top
        zeros = (0,) * (n - 1) + top  # a run of zeros under the top digit
        for ds in (mixed, zeros, (base - 1,) * n):
            v = digits.fold(ds, base)
            assert v % prime == _horner(ds, base, prime), (base, n)
            assert DigitString.from_int(v, base).digits == ds, (base, n)
        assert DigitString.from_int(-digits.fold(mixed, base), base) == DigitString(-1, base, mixed)


@pytest.mark.parametrize("base", [*range(2, 37), 37, 1000])
def test_int_of_is_the_fold_of_a_values_own_digits(base):
    """Up to base 36 the digits are read as text in pieces of _CHUNK characters, joined pairwise;
    37 and 1000 have no text form and fall back to fold. Lengths: none, the leaf and one, two and
    three pieces, each +-1, and 3 * 10**4."""
    rng = random.Random(f"int-of-{base}")
    assert digits._int_of((), base) == 0
    for n in (1, 2, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025, 3 * 10**4):
        top = (rng.randrange(1, base),)
        mixed = tuple(rng.choices(range(base), k=n - 1)) + top
        for ds in (mixed, (0,) * (n - 1) + top, (base - 1,) * n):
            assert digits._int_of(ds, base) == fold(ds, base), (base, n)


@pytest.mark.parametrize("x", [0, 1, -1, -7])
def test_fold_with_signed_coefficients(x):
    rng = random.Random(x)
    for n in [0] + _conversion_lengths():
        coeffs = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
        assert digits.fold(coeffs, x) == _horner(coeffs, x), n


@pytest.mark.parametrize("x", [-5, -1, 0, 1, 2, 36])
def test_fold_reads_its_coefficients_in_either_order(x):
    rng = random.Random(f"order-{x}")
    for n in [1, 1000] + [(digits._LEAF << j) + e for j in range(5) for e in (-1, 1)]:
        coeffs = tuple(rng.randint(-(10**6), 10**6) for _ in range(n))
        assert digits.fold(coeffs, x, -1) == digits.fold(coeffs[::-1], x) == _horner(coeffs[::-1], x), n


# the leaf, the 512-digit base-10 piece and the 4300-digit default int->str limit, each +-1
_BOUNDARY_LENGTHS = (1, 63, 64, 65, 511, 512, 513, 4299, 4300, 4301, 10**4)
_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _round_trips(base):
    prime = 2**61 - 1
    rng = random.Random(base)
    for n in _BOUNDARY_LENGTHS:
        top = (rng.randrange(1, base),)
        mixed = tuple(rng.choices(range(base), k=n - 1)) + top
        for ds in (mixed, (0,) * (n - 1) + top, (base - 1,) * n):
            text = "".join(_CHARS[d] for d in reversed(ds))
            v = digits.fold(ds, base)
            assert v % prime == _horner(ds, base, prime), (base, n)
            assert digits._digits_of(v, base) == ds, (base, n)
            for sign, prefix in ((1, ""), (1, "000"), (-1, "-"), (-1, "-00")):
                a = parse(prefix + text, base)
                assert a == DigitString(sign, base, ds) == DigitString.from_int(sign * v, base), (base, n)
                assert a.render() == "-" * (sign < 0) + text
                assert parse(prefix + text.upper(), base) == a
    assert digits._digits_of(0, base) == DigitString.from_int(0, base).digits == (0,)
    for text, canonical in (("000", "0"), ("-0", "0"), ("-000", "0"), ("0001", "1"), ("-0001", "-1")):
        assert parse(text, base).render() == canonical
        assert parse(text, base).sign == (-1 if canonical.startswith("-") else 1)
    if base > 7:
        assert parse("0007", base) == DigitString(1, base, (7,))


@pytest.mark.parametrize("base", range(2, 37))
def test_conversions_round_trip_at_the_chunk_and_limit_boundaries(base):
    _round_trips(base)


# the least limit Python allows: a base-10 value splits into pieces from 640 digits up
@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("base", [2, 8, 10, 16, 36])
def test_conversions_round_trip_under_the_least_int_to_str_limit(base):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        _round_trips(base)
    finally:
        sys.set_int_max_str_digits(saved)


# the text bases, the first base without text, each side of 256 (where the range check leaves bytes), and two above
_MADE_BASES = (*range(2, 37), 37, 256, 257, 1000, 2**32 + 5)


@pytest.mark.parametrize("base", _MADE_BASES)
def test_made_digit_strings_pass_the_check_they_skip(base):
    """parse, from_int and abs build their values without __post_init__; each one is exactly
    what DigitString(...) builds from its parts, and passes every check on the way."""
    rng = random.Random(f"made-{base}")
    made = [DigitString.from_int(0, base)]
    for n in (1, 63, 64, 65, 4301):
        top = (rng.randrange(1 if n > 1 else 0, base),)
        for ds in (tuple(rng.randrange(base) for _ in range(n - 1)) + top, (base - 1,) * n):
            for v in (fold(ds, base), -fold(ds, base)):
                a = DigitString.from_int(v, base)
                made += [a, abs(a)]
            if base <= digits.MAX_TEXT_BASE:
                text = "".join(_CHARS[d] for d in reversed(ds))
                made += [parse(prefix + text, base) for prefix in ("", "0", "000", "-", "-0", "-000")]
                made.append(abs(parse("-" + text, base)))
    if base <= digits.MAX_TEXT_BASE:
        made += [parse(text, base) for text in ("0", "-0", "000", "-000")]
    for s in made:
        assert type(s) is DigitString and DigitString(s.sign, s.base, s.digits) == s, (base, s.sign, len(s))


def test_the_makers_of_checked_digits_do_not_check_them_again(monkeypatch):
    """A value that parse, from_int, abs or a random.Random's draws make skips __post_init__, its
    second pass over the digits; a caller's own tuple is still checked."""
    checked = []
    monkeypatch.setattr(DigitString, "__post_init__", lambda self: checked.append(self))
    DigitString(1, 10, (1,))
    assert len(checked) == 1
    rng = random.Random(3)
    for base in (2, 10, 36, 1000):
        a = DigitString.from_int(-(base**70) + 1, base)
        made = [a, abs(a), DigitString.from_int(0, base), random_digit_string(rng, base, 100)]
        if base <= digits.MAX_TEXT_BASE:
            made += [parse("-0011", base), parse("0", base), abs(parse("-1", base))]
        assert all(type(s) is DigitString for s in made)
    assert len(checked) == 1


def test_a_subclass_built_by_from_int_still_runs_its_own_checks():
    class Even(DigitString):
        def __post_init__(self):
            super().__post_init__()
            if self.digits[0] % 2:
                raise ValueError("odd")

    a = Even.from_int(-12)
    assert type(a) is Even and (a.sign, a.base, a.digits) == (-1, 10, (2, 1))
    with pytest.raises(ValueError, match="^odd$"):
        Even.from_int(13)


def test_an_error_message_shows_a_long_int_by_its_digit_count():
    """An int of up to 60 digits is written out as before; a longer one, which could pass the
    int->str digit limit, by how many digits it has. Other values keep their repr, cut to 60 characters."""
    for value, shown in [
        (0, "0"),
        (-7, "-7"),
        (10**60 - 1, "9" * 60),
        (-(10**60) + 1, "-" + "9" * 60),
        (10**60, "<61-digit int>"),
        (-(10**60), "-<61-digit int>"),
        (10**5000 - 1, "<5000-digit int>"),
        (-(10**5000), "-<5001-digit int>"),
        (2**100000, "<30103-digit int>"),
        (True, "True"),
        (_Int(7), "7"),
        (_Int(10**80), "<81-digit int>"),
        (7.5, "7.5"),
        ([0] * 3400, repr([0] * 3400)[:60]),
        ((10**5000,), "<tuple>"),  # a repr that raises past the int->str limit
    ]:
        assert digits._shown(value) == shown, shown
    # a long tuple or list of ints, or a DigitString's digits, is written from its first items alone
    holds_itself = [0]
    holds_itself.append(holds_itself)
    values = [(1,) * n for n in (20, 21, 22, 23)] + [[9] * 22, list(range(1000)), (7,), [], (True,) * 30]
    values += [[holds_itself] * 30, [[0]] * 30, (1.5,) * 30, (-(10**50),) * 30]
    values += [parse(text) for text in ("0", "-12", "9" * 21, "9" * 22, "1" * 1000)] + [DigitString.from_int(-(36**50), 36)]
    for value in values:
        assert digits._shown(value) == repr(value)[:60], value


_BIG = 10**5000  # past the int->str limit, so its repr raises


@pytest.mark.parametrize(
    "refuse,named",
    [
        (lambda: DigitString(1, 10, (_BIG,)), "^digit out of range"),
        (lambda: DigitString(1, 10, [_BIG]), "^digits must be"),
        (lambda: DigitString(_BIG, 10, (1,)), "^sign must be"),
        (lambda: DigitString("x" * 10**5, 10, (1,)), "^sign must be"),
        (lambda: parse("5", _BIG), "supports bases"),
        (lambda: TestRule.trim(Fraction(_BIG)), "^q must be"),
        (lambda: TestRule("x" * 10**5, 7), "^unknown family"),
        (lambda: iterate(parse("5"), TestRule.trim(7), stacked=(_BIG,)), "^stacked must be"),
        (lambda: apply_once((_BIG,), TestRule.trim(7)), "^expected a DigitString and a TestRule"),
        (lambda: analyzer.compare(_BIG, [parse("5")]), "^q_list must be"),
        (lambda: oracle.remainder((_BIG,), 7), "^expected a DigitString"),
        (lambda: oracle.fuzz_equivalence((_BIG,), 1), "^expected a TestRule"),
        (lambda: random_digit_string((_BIG,)), "^rng must be"),
    ],
    ids=[
        "digit", "digit_list", "sign", "long_sign", "parse_base", "fraction_q", "long_family",
        "stacked", "apply_once", "q_list", "remainder", "fuzz_rule", "rng",
    ],
)
def test_a_refused_value_past_the_int_to_str_limit_or_long_is_shown_short(refuse, named):
    """Each raised the interpreter's int->str limit error, which names no argument, or wrote out ~100 kB."""
    with pytest.raises(ValueError, match=named) as refused:
        refuse()
    assert len(str(refused.value)) < 200


def test_a_refusal_writes_only_the_head_of_a_long_value():
    """Each wrote out the whole repr before cutting it to 60 characters: about 0.6 and 2.9 MiB at peak."""
    a, many = parse("9" + "0123456789" * 10**4), [0] * 10**6
    for refuse, message in [
        (lambda: divides_via(a, "x"), f"expected a DigitString and a TestRule, got {repr(a)[:60]} and 'x'"),
        (lambda: DigitString(1, 10, many), f"digits must be a non-empty tuple of ints, got {repr(many)[:60]}"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as refused:
                refuse()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(refused.value) == message and peak < 64 * 1024, peak


def test_digit_count_is_exact_at_the_powers_of_the_base():
    for base in (2, 10, 36, 1000):
        assert digits._digit_count(0, base) == digits._digit_count(1, base) == 1
        power = 1
        for k in range(1, 5001):
            power *= base  # base**k has k + 1 digits, base**k - 1 has k
            counts = [digits._digit_count(m, base) for m in (power - 1, power, power + 1)]
            assert counts == [k, k + 1, k + 1], (base, k)
