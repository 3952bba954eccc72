"""Signed integers as digit vectors in an arbitrary base.

Two representations. ``DigitString`` is the canonical positional form:
digits in [0, base), least significant first, no leading zeros.
``StackedNumber`` relaxes that: any signed integer may sit in a digit
position (the "fifteen hundred" reading of 1500), which is the form the
trimming chains manipulate.

Digits are stored least significant first so that dropping the last
digit and dropping the top digit are both cheap slices.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

MAX_TEXT_BASE = 36

_DIGIT_CHARS = string.digits + string.ascii_lowercase
# both ASCII cases, and nothing else: str.lower() would fold the Kelvin sign to k
_CHAR_VALUES = {c: i for chars in (_DIGIT_CHARS, _DIGIT_CHARS.upper()) for i, c in enumerate(chars)}


def fold(coeffs: tuple[int, ...], x: int) -> int:
    """sum(coeffs[i] * x**i), by Horner's rule from the top coefficient down."""
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _check_ints(name: str, values: tuple[int, ...]) -> None:
    # one C-level pass: a non-empty tuple whose items are all exactly int (bool is not)
    if type(values) is not tuple or set(map(type, values)) != {int}:
        raise ValueError(f"{name} must be a non-empty tuple of ints, got {values!r:.60}")


def _check_base(base: int) -> None:
    if type(base) is not int or base < 2:
        raise ValueError(f"base must be an int >= 2, got {base!r}")


@dataclass(frozen=True)
class DigitString:
    """Canonical form: sign * sum(digits[i] * base**i).

    Zero is the single digit 0 with positive sign.
    """

    sign: int
    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_base(self.base)
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be the int +1 or -1, got {self.sign!r}")
        _check_ints("digits", self.digits)
        if min(self.digits) < 0 or max(self.digits) >= self.base:
            raise ValueError(f"digit out of range for base {self.base}: {self.digits!r:.60}")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise ValueError("leading zero digit")
        if self.digits == (0,) and self.sign < 0:
            raise ValueError("zero must have positive sign")

    @classmethod
    def from_int(cls, value: int, base: int = 10) -> DigitString:
        _check_base(base)
        mag = abs(value)
        digits = []
        while mag:
            mag, d = divmod(mag, base)
            digits.append(d)
        return cls(1 if value >= 0 else -1, base, tuple(digits) or (0,))

    @property
    def value(self) -> int:
        return self.sign * fold(self.digits, self.base)

    def __len__(self) -> int:
        return len(self.digits)

    def __abs__(self) -> DigitString:
        return self if self.sign > 0 else DigitString(1, self.base, self.digits)

    def render(self) -> str:
        """Text form: optional '-', then digits 0-9a-z, most significant first."""
        if self.base > MAX_TEXT_BASE:
            raise ValueError(f"text form supports bases 2..{MAX_TEXT_BASE}, got {self.base}")
        body = "".join(_DIGIT_CHARS[d] for d in reversed(self.digits))
        return "-" + body if self.sign < 0 else body


@dataclass(frozen=True)
class StackedNumber:
    """Positional form whose coefficients may be any signed integers.

    value = sum(coeffs[i] * base**i); coefficients least significant first.
    """

    base: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_base(self.base)
        _check_ints("coefficients", self.coeffs)

    @property
    def value(self) -> int:
        return fold(self.coeffs, self.base)


def parse(text: str, base: int = 10) -> DigitString:
    """Parse an optional '-' followed by base-``base`` digit characters.

    Accepts 0-9 and ASCII a-z (either case) up to the base; leading zeros are
    dropped so the result is canonical.
    """
    if not isinstance(text, str):
        raise ValueError(f"text must be a str, got {text!r:.60}")
    if not 2 <= base <= MAX_TEXT_BASE:
        raise ValueError(f"text form supports bases 2..{MAX_TEXT_BASE}, got {base}")
    body, sign = text, 1
    if body.startswith("-"):
        body, sign = body[1:], -1
    if not body:
        raise ValueError("empty digit string")
    digits = []
    for ch in reversed(body):
        d = _CHAR_VALUES.get(ch)
        if d is None or d >= base:
            raise ValueError(f"invalid digit {ch!r} for base {base}")
        digits.append(d)
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    if digits == [0]:
        sign = 1
    return DigitString(sign, base, tuple(digits))


def lift(a: DigitString) -> StackedNumber:
    """The stacked view of a canonical digit string (same value)."""
    coeffs = a.digits if a.sign > 0 else tuple(-d for d in a.digits)
    return StackedNumber(a.base, coeffs)


def collapse(s: StackedNumber) -> DigitString:
    """Carry-propagate a stacked number back to its unique canonical form."""
    return DigitString.from_int(s.value, s.base)
