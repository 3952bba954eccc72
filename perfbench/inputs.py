"""Seeded inputs and the benchmark's own reference arithmetic.

Nothing here imports trimsum: the inputs, the exact multiples of q and
the reference remainders come from digit lists (least significant digit
first) handled with single-digit steps, so a defect in trimsum cannot
cancel out in its own check. No number is ever converted with int(text)
or str(n), so the interpreter's int-to-str digit limit never applies.
"""

from __future__ import annotations

import math

CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
CHAR_VALUES = {c: i for i, c in enumerate(CHARS)}

SHAPES = ("random", "random", "random", "zeros", "max")


def log_uniform_strata(lo: int, hi: int, k: int, phase: float) -> list[int]:
    """k lengths log-uniform over [lo, hi]: one per equal slice, each at `phase` within its slice.

    Workloads advance the phase by the golden ratio from block to block,
    so the blocks of any run fill every slice evenly. The phases do not
    depend on the seed: two seeds differ by the digits drawn, not by
    where the long inputs happened to fall. With a seeded starting phase,
    the CPU time of a run's first blocks moved by up to 18% between seeds.
    """
    span = math.log(hi) - math.log(lo)
    return [round(math.exp(math.log(lo) + span * (i + phase) / k)) for i in range(k)]


def make_digits(rng, n: int, base: int, shape: str) -> list[int]:
    """n digits, least significant first, with a nonzero top digit when n > 1.

    "zeros" and "max" put a run of 0s or of base-1 digits under the top
    digit, above a short random tail, so carries and borrows run long.
    """
    if n == 1:
        return [rng.randrange(base)]
    tail = rng.randrange(n // 8 + 1)
    if shape == "zeros":
        return rng.choices(range(base), k=tail) + [0] * (n - 1 - tail) + [rng.randrange(1, base)]
    if shape == "max":
        return rng.choices(range(base), k=tail) + [base - 1] * (n - tail)
    return rng.choices(range(base), k=n - 1) + [rng.randrange(1, base)]


def remainder(digits: list[int], base: int, q: int) -> int:
    """Value mod q by the left-to-right digit fold."""
    r = 0
    for d in reversed(digits):
        r = (r * base + d) % q
    return r


def round_down_to_multiple(digits: list[int], base: int, q: int) -> list[int]:
    """The largest multiple of q not above the value: subtract the remainder digit by digit."""
    out = list(digits)
    r, borrow, i = remainder(digits, base, q), 0, 0
    while r or borrow:
        r, d = divmod(r, base)
        x = out[i] - d - borrow
        borrow = x < 0
        out[i] = x + base if borrow else x
        i += 1
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def make_number(rng, n: int, base: int, q: int, multiple: bool) -> list[int]:
    digits = make_digits(rng, n, base, rng.choice(SHAPES))
    return round_down_to_multiple(digits, base, q) if multiple else digits


def to_text(digits: list[int], negative: bool = False) -> str:
    body = "".join(CHARS[d] for d in reversed(digits))
    return "-" + body if negative and body != "0" else body


def from_text(text: str) -> tuple[int, list[int]]:
    """(sign, digits least significant first) of canonical text."""
    sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
    return sign, [CHAR_VALUES[c] for c in reversed(body)]


def small_value(digits: list[int], base: int) -> int:
    """Exact value of a short digit list (a few hundred digits at most)."""
    v = 0
    for d in reversed(digits):
        v = v * base + d
    return v


def small_digits(value: int, base: int) -> list[int]:
    """Digits of |value|, least significant first, for values of a few hundred digits."""
    value, out = abs(value), []
    while value:
        value, d = divmod(value, base)
        out.append(d)
    return out or [0]


def omega(q: int, base: int) -> int:
    """Least absolute residue of the inverse of the base modulo q."""
    inv = pow(base, -1, q)
    return inv - q if 2 * inv > q else inv


def last_digits_k(q: int, base: int) -> int:
    k = 0
    while base**k % q:
        k += 1
    return k


def reference_image(family: str, digits: list[int], base: int, q: int) -> int:
    """One application of the family's reduction to |a|, from its definition.

    Written from the closed forms (for instance the sum test as
    sum d_i * w**(n-1-i)), not from the fold order trimsum uses.
    """
    n = len(digits)
    if family == "trim":
        return small_value(digits[1:], base) + omega(q, base) * digits[0]
    if family == "sum":
        w = omega(q, base)
        return sum(d * w ** (n - 1 - i) for i, d in enumerate(digits))
    if family == "binomial":
        return sum(d * (base - q) ** i for i, d in enumerate(digits))
    if family == "talmud":
        return 2 * small_value(digits[2:], base) + small_value(digits[:2], base)
    if family == "last_digits":
        return small_value(digits[: last_digits_k(q, base)], base)
    if family == "left_trim":
        if n == 1:
            return digits[0]
        top = digits[n - 2] + (base - q) * digits[n - 1]
        return small_value(digits[: n - 2], base) + top * base ** (n - 2)
    raise ValueError(f"unknown family {family!r}")


def plain_chain(family: str, digits: list[int], base: int, q: int) -> list[int]:
    """The signed values of a plain chain, one per step, built from reference_image.

    It stops, as the plain chain is defined to, once the magnitude is
    below base**2 or a step fails to shrink it.
    """
    current, values = small_value(digits, base), []
    while current >= base * base:
        out = reference_image(family, small_digits(current, base), base, q)
        values.append(out)
        if abs(out) >= current:
            break
        current = abs(out)
    return values


def stacked_chain(family: str, digits: list[int], base: int, q: int) -> list[tuple[int, ...]]:
    """The coefficients (least significant first) after each step of a stacked chain.

    A right trim folds omega times the low coefficient into the next one
    up; a left trim folds (base - q) times the top coefficient into the
    next one down. Either chain runs until one coefficient is left.
    """
    c, out = tuple(digits), []
    w = omega(q, base) if family == "trim" else base - q
    while len(c) > 1:
        c = (c[1] + w * c[0],) + c[2:] if family == "trim" else c[:-2] + (c[-2] + w * c[-1],)
        out.append(c)
    return out


def compare_row(family: str, digits: list[int], base: int, q: int) -> str:
    """The expected `trimsum compare` CSV row for one (q, family) on one input.

    digit_ops counts one unit per trim step, and for the summing tests one
    unit per digit position beyond the first in each value summed.
    """
    values = plain_chain(family, digits, base, q)
    lengths = [len(digits)] + [len(small_digits(v, base)) for v in values]
    if family == "trim":
        weight, ops = abs(omega(q, base)), len(values)
    else:
        weight = abs(omega(q, base)) if family == "sum" else abs(base - q)
        ops = sum(n - 1 for n in lengths[:-1]) if values else 0
    return f"{q},{base},{family},{weight},{len(values)},{ops},{max(lengths)}"
