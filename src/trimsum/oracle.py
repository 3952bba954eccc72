"""Ground truth: remainders by schoolbook long division over the digits.

Nothing here calls into the test families when computing a remainder;
this module referees them. The seeded fuzzer checks that one application
of a rule keeps the remainder congruence its family promises. Its inputs
are ``random.Random``'s own ``randrange`` draws, taken straight from
``getrandbits``, so a seed gives the same inputs on Python 3.10-3.13.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import partial

from .digits import DigitString, _check_base
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


def _check_count(name: str, value: int, cap: int) -> None:
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if value > cap:
        raise ValueError(f"{name} must be <= {cap}, got {value}")


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


def _randranges(rng, n: int, count: int) -> list[int]:
    """count draws of rng.randrange(n), made as rng makes them."""
    return [rng.randrange(n) for _ in range(count)]


def random_digit_string(
    rng: random.Random, base: int = 10, max_digits: int = 60, signed: bool = True
) -> DigitString:
    """A uniform-length random canonical value, occasionally negative.

    The draws are randint(1, max_digits), randrange(base) per digit,
    randrange(1, base) for the top digit and random() for the sign. A
    ``random.Random`` has them made straight from getrandbits; any other rng,
    a subclass included, makes them through its own randrange, which may draw
    otherwise (through its own random(), say).
    """
    _check_base(base)  # getrandbits(0) is 0: a base <= 0 would redraw forever
    _check_count("max_digits", max_digits, MAX_DIGITS)
    if type(rng) is not random.Random and not all(callable(getattr(rng, m, None)) for m in ("randrange", "random")):
        raise ValueError(f"rng must have randrange and random methods, like random.Random, got {rng!r:.60}")
    if type(signed) is not bool:
        raise ValueError(f"signed must be a bool, got {signed!r:.60}")
    below = partial(_below, rng.getrandbits) if type(rng) is random.Random else partial(_randranges, rng)
    n = 1 + below(max_digits, 1)[0]
    digits = below(base, n)
    if n > 1:
        digits[-1] = 1 + below(base - 1, 1)[0]
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
    _check_count("trials", trials, MAX_TRIALS)
    _check_count("max_digits", max_digits, MAX_DIGITS)
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
