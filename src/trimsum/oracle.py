"""Ground truth: remainders by schoolbook long division over the digits.

Nothing here calls into the test families when computing a remainder;
this module referees them. The seeded fuzzer checks that one application
of a rule keeps the remainder congruence its family promises.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from .digits import DigitString
from .families import SUM, TRIM, TestRule, apply_once

# fuzz_equivalence's caps: a run's time grows with trials * max_digits
MAX_TRIALS = 10**6
MAX_DIGITS = 10**4


def remainder(a: DigitString, q: int) -> int:
    """value(a) mod q, in [0, q), by the left-to-right digit fold."""
    if not isinstance(a, DigitString):
        raise ValueError(f"expected a DigitString, got {a!r:.60}")
    if type(q) is not int:
        raise ValueError(f"modulus must be an int, got {q!r}")
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    r = 0
    base = a.base
    for d in reversed(a.digits):
        r = (r * base + d) % q
    return (-r) % q if a.sign < 0 else r


def divides(a: DigitString, q: int) -> bool:
    return remainder(a, q) == 0


def random_digit_string(
    rng: random.Random, base: int = 10, max_digits: int = 60, signed: bool = True
) -> DigitString:
    """A uniform-length random canonical value, occasionally negative."""
    n = rng.randint(1, max_digits)
    digits = [rng.randrange(base) for _ in range(n)]
    if n > 1:
        digits[-1] = rng.randrange(1, base)
    sign = -1 if signed and rng.random() < 0.2 else 1
    if digits == [0]:
        sign = 1
    return DigitString(sign, base, tuple(digits))


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
    """
    if not isinstance(rule, TestRule):
        raise ValueError(f"expected a TestRule, got {rule!r:.60}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r:.60}")
    for name, value, cap in (("trials", trials, MAX_TRIALS), ("max_digits", max_digits, MAX_DIGITS)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
        if value > cap:
            raise ValueError(f"{name} must be <= {cap}, got {value}")
    rng = random.Random(seed)
    mismatches = total_drop = 0
    for _ in range(trials):
        a = random_digit_string(rng, rule.base, max_digits)
        image = apply_once(a, rule)
        lam = pow(rule.base, {TRIM: -1, SUM: 1 - len(a)}.get(rule.family, 0), rule.q)
        if remainder(image, rule.q) != lam * a.sign * remainder(a, rule.q) % rule.q:
            mismatches += 1
        total_drop += len(a.digits) - len(image.digits)
    return FuzzReport(rule, trials, mismatches, total_drop / trials, seed)
