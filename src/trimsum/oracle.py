"""Ground truth: remainders by schoolbook long division over the digits.

Nothing here calls into the test families when computing a remainder;
this module referees them. The seeded fuzzer checks that one application
of a rule keeps the remainder congruence its family promises. Its inputs
are ``random.Random``'s own ``randrange`` draws, taken straight from
``getrandbits``, so a seed gives the same inputs on Python 3.10-3.13; it
draws from an exact ``random.Random`` and refuses any other rng.
Each modulus, base, count and seed goes through ``digits._check_int``:
exactly an int (not bool), in range, or ``ValueError`` naming it.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from .digits import DigitString, _check_int, _shown
from .families import SUM, TRIM, TestRule, apply_once

# fuzz_equivalence's caps: a run's time grows with trials * max_digits
MAX_TRIALS = 10**6
MAX_DIGITS = 10**4


def remainder(a: DigitString, q: int) -> int:
    """value(a) mod q, in [0, q), by the left-to-right digit fold; q is an exact int >= 1."""
    if not isinstance(a, DigitString):
        raise ValueError(f"expected a DigitString, got {_shown(a)}")
    _check_int("modulus", q, 1)
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
    n = 1 + _below(rng.getrandbits, max_digits, 1)[0]
    digits = _below(rng.getrandbits, base, n)
    if n > 1:
        digits[-1] = 1 + _below(rng.getrandbits, base - 1, 1)[0]
    sign = -1 if rng.random() < 0.2 and digits != [0] else 1  # random() is drawn for zero too
    return DigitString._unchecked(sign, base, tuple(digits))


@dataclass(frozen=True)
class FuzzReport:
    rule: TestRule
    trials: int
    mismatches: int
    mean_length_drop: float
    seed: int

    def as_json(self) -> dict:
        return {**asdict(self), "rule": self.rule.as_json()}


def fuzz_equivalence(rule: TestRule, trials: int, max_digits: int = 60, seed: int = 0) -> FuzzReport:
    """Seeded, deterministic fuzz: f(|a|) = lam * |a| (mod q) must hold on every trial.

    lam, a unit mod q worked out here, is base**-1 for trim, base**-(n - 1) for sum
    on n digits and 1 otherwise. mean_length_drop averages length(a) - length(f(a)).
    trials runs 1..MAX_TRIALS, max_digits 1..MAX_DIGITS, and seed is any exact int.
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
        a = random_digit_string(rng, base, max_digits)
        image = apply_once(a, rule)
        lam = pow(inverse, len(a) - 1, q) if rule.family == SUM else inverse
        if remainder(image, q) != lam * a.sign * remainder(a, q) % q:
            mismatches += 1
        total_drop += len(a.digits) - len(image.digits)
    return FuzzReport(rule, trials, mismatches, total_drop / trials, seed)
