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


@dataclass(frozen=True)
class DigitString:
    """Canonical form: sign * sum(digits[i] * base**i).

    Zero is the single digit 0 with positive sign.
    """

    sign: int
    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not self.digits:
            raise ValueError("digit vector must not be empty")
        if any(not 0 <= d < self.base for d in self.digits):
            raise ValueError(f"digit out of range for base {self.base}: {self.digits}")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise ValueError("leading zero digit")
        if self.digits == (0,) and self.sign < 0:
            raise ValueError("zero must have positive sign")

    @classmethod
    def from_int(cls, value: int, base: int = 10) -> DigitString:
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        mag = abs(value)
        digits = []
        while mag:
            mag, d = divmod(mag, base)
            digits.append(d)
        return cls(1 if value >= 0 else -1, base, tuple(digits) or (0,))

    @property
    def value(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.base + d
        return self.sign * v

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
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if not self.coeffs:
            raise ValueError("stacked number needs at least one coefficient")

    @property
    def value(self) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.base + c
        return v

    def as_json(self) -> dict:
        return {"base": self.base, "coeffs": list(self.coeffs)}


def _canonical(sign: int, base: int, digits: list[int]) -> DigitString:
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    if not digits:
        digits = [0]
    if digits == [0]:
        sign = 1
    return DigitString(sign, base, tuple(digits))


def parse(text: str, base: int = 10) -> DigitString:
    """Parse an optional '-' followed by base-``base`` digit characters.

    Accepts 0-9 and ASCII a-z (either case) up to the base; leading zeros are
    dropped so the result is canonical.
    """
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
    return _canonical(sign, base, digits)


def lift(a: DigitString) -> StackedNumber:
    """The stacked view of a canonical digit string (same value)."""
    coeffs = a.digits if a.sign > 0 else tuple(-d for d in a.digits)
    return StackedNumber(a.base, coeffs)


def collapse(s: StackedNumber) -> DigitString:
    """Carry-propagate a stacked number back to its unique canonical form."""
    return DigitString.from_int(s.value, s.base)
