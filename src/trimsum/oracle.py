"""Ground truth: remainders by schoolbook long division over the digits.

Nothing here calls into the test families when computing a remainder;
this module referees them. The seeded fuzzer checks that one application
of a rule keeps the remainder congruence its family promises. Its inputs
are ``random.Random``'s own ``randrange`` draws, taken straight from
``getrandbits``, so a seed gives the same inputs on Python 3.10-3.13; it
draws from an exact ``random.Random`` and refuses any other rng.
Each modulus, base, count and seed goes through ``digits._check_int``:
exactly an int (not bool), in range, or ``ValueError`` naming it.
``remainder`` and ``random_digit_string`` check their arguments and hand
the work to ``_remainder`` and ``_draw``; ``fuzz_equivalence`` checks its
own once and then calls only those two in each trial.
"""

from __future__ import annotations

import random

from .digits import DigitString, _check_int, _Record, _shown
from .families import SUM, TRIM, TestRule, apply_once

# fuzz_equivalence's caps: a run's time grows with trials * max_digits
MAX_TRIALS = 10**6
MAX_DIGITS = 10**4


def remainder(a: DigitString, q: int) -> int:
    """value(a) mod q, in [0, q), by the left-to-right digit fold; q is an exact int >= 1."""
    if not isinstance(a, DigitString):
        raise ValueError(f"expected a DigitString, got {_shown(a)}")
    _check_int("modulus", q, 1)
    return _remainder(a, q)


def _remainder(a: DigitString, q: int) -> int:
    """remainder(a, q) for a DigitString a and an exact int q >= 1, checked by the caller."""
    r = 0
    base = a.base
    for d in reversed(a.digits):
        r = (r * base + d) % q
    return (-r) % q if a.sign < 0 else r


def _below(draw, n: int, count: int) -> list[int]:
    """count draws of randrange(n), made as CPython 3.10-3.13 makes them.

    Each is getrandbits(n.bit_length()), drawn again while it is >= n.
    """
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = draw(k)
        while r >= n:
            r = draw(k)
        out.append(r)
    return out


def random_digit_string(rng: random.Random, base: int = 10, max_digits: int = 60) -> DigitString:
    """A uniform-length random canonical value of 1..max_digits digits in base >= 2, occasionally negative.

    The draws are randint(1, max_digits), randrange(base) per digit,
    randrange(1, base) for the top digit and random() for the sign, made as
    ``random.Random`` makes them, straight from its own getrandbits. So rng must
    be exactly a ``random.Random`` with no getrandbits set on the instance; any
    other rng, a subclass included, is refused before any draw. The digits are
    below the base by construction, so they are not checked again.
    """
    _check_int("base", base, 2)  # getrandbits(0) is 0: a base <= 0 would redraw forever
    _check_int("max_digits", max_digits, 1, MAX_DIGITS)
    if type(rng) is not random.Random or "getrandbits" in vars(rng):
        raise ValueError(f"rng must be a random.Random drawing from its own getrandbits, got {_shown(rng)}")
    return _draw(rng, base, max_digits)


def _draw(rng: random.Random, base: int, max_digits: int) -> DigitString:
    """random_digit_string(rng, base, max_digits) for arguments its caller has checked.

    The length and the top digit are single draws, each a getrandbits loop as ``_below`` makes.
    """
    draw = rng.getrandbits
    k = max_digits.bit_length()
    n = draw(k)  # the length less one: randint(1, max_digits) is 1 + randrange(max_digits)
    while n >= max_digits:
        n = draw(k)
    digits = _below(draw, base, n + 1)
    if n:
        k = (base - 1).bit_length()
        top = draw(k)
        while top >= base - 1:
            top = draw(k)
        digits[-1] = 1 + top
    sign = -1 if rng.random() < 0.2 and digits != [0] else 1  # random() is drawn for zero too
    return DigitString._unchecked(sign, base, tuple(digits))


class FuzzReport(_Record):
    __slots__ = _fields = ("rule", "trials", "mismatches", "mean_length_drop", "seed")

    def __init__(self, rule: TestRule, trials: int, mismatches: int, mean_length_drop: float, seed: int) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "mismatches", mismatches)
        object.__setattr__(self, "mean_length_drop", mean_length_drop)
        object.__setattr__(self, "seed", seed)

    def as_json(self) -> dict:
        return dict(zip(self._fields, self._astuple()), rule=self.rule.as_json())


def fuzz_equivalence(rule: TestRule, trials: int, max_digits: int = 60, seed: int = 0) -> FuzzReport:
    """Seeded, deterministic fuzz: f(|a|) = lam * |a| (mod q) must hold on every trial.

    lam, a unit mod q worked out here, is base**-1 for trim, base**-(n - 1) for sum
    on n digits and 1 otherwise. mean_length_drop averages length(a) - length(f(a)).
    trials runs 1..MAX_TRIALS, max_digits 1..MAX_DIGITS, and seed is any exact int; each is
    checked once, and its own ``random.Random(seed)`` needs no rng check, so a trial makes no check of its own.
    """
    if not isinstance(rule, TestRule):
        raise ValueError(f"expected a TestRule, got {_shown(rule)}")
    _check_int("seed", seed)
    _check_int("trials", trials, 1, MAX_TRIALS)
    _check_int("max_digits", max_digits, 1, MAX_DIGITS)
    q, base = rule.q, rule.base
    # trim and sum rules exist only for gcd(base, q) = 1, so the inverse does too
    inverse = pow(base, -1, q) if rule.family in (TRIM, SUM) else 1
    rng = random.Random(seed)
    mismatches = total_drop = 0
    for _ in range(trials):
        a = _draw(rng, base, max_digits)
        image = apply_once(a, rule)
        lam = pow(inverse, len(a) - 1, q) if rule.family == SUM else inverse
        if _remainder(image, q) != lam * a.sign * _remainder(a, q) % q:
            mismatches += 1
        total_drop += len(a.digits) - len(image.digits)
    return FuzzReport(rule, trials, mismatches, total_drop / trials, seed)
