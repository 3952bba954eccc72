"""Ground truth: remainders by schoolbook long division over the digits.

Nothing here calls into the test families when computing a remainder;
this module referees them. The seeded fuzzer checks that one application
of a rule preserves divisibility against that referee.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .digits import DigitString
from .families import TestRule, apply_once


def remainder(a: DigitString, q: int) -> int:
    """value(a) mod q, in [0, q), by the left-to-right digit fold."""
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
        return {
            "rule": self.rule.as_json(),
            "trials": self.trials,
            "mismatches": self.mismatches,
            "mean_length_drop": self.mean_length_drop,
            "seed": self.seed,
        }


def fuzz_equivalence(rule: TestRule, trials: int, max_digits: int = 60, seed: int = 0) -> FuzzReport:
    """Seeded equivalence fuzz: q | a must match q | f(a) on every trial.

    Deterministic for a given seed. mean_length_drop is the average of
    length(a) - length(f(a)), the measurable shrink per application.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if max_digits < 1:
        raise ValueError(f"max_digits must be >= 1, got {max_digits}")
    rng = random.Random(seed)
    mismatches = total_drop = 0
    for _ in range(trials):
        a = random_digit_string(rng, rule.base, max_digits)
        image = apply_once(a, rule)
        if divides(a, rule.q) != divides(image, rule.q):
            mismatches += 1
        total_drop += len(a.digits) - len(image.digits)
    return FuzzReport(rule, trials, mismatches, total_drop / trials, seed)
