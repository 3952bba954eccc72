"""Signed integers as digit vectors in an arbitrary base.

One number type. ``DigitString`` is the canonical positional form:
digits in [0, base), least significant first, no leading zeros. A
stacked number, where any signed integer may sit in a digit position
(the "fifteen hundred" reading of 1500), is just its coefficient tuple;
its value is ``fold(coeffs, base)``.

Digits are stored least significant first so that dropping the last
digit and dropping the top digit are both cheap slices.

Text and digits convert in C. ``parse`` maps characters to digit values
with one ``bytes.translate`` and range-checks them with another, and
``DigitString`` checks its digits the same way up to base 256. ``_text``
prints an int with ``str`` in base 10 and ``format`` in bases 2, 8 and 16,
and ``_digits_of`` (``from_int``, and the sum and binomial steps) maps
that text back to digit values. A base-10 value past the interpreter's
int->str digit limit is split into pieces of ``_CHUNK`` < 640 digits (the
least limit Python allows), each printed by ``str``; nothing here reads
or sets the limit itself.

Other conversions between digits and ``int`` are divide and conquer
(Brent and Zimmermann, *Modern Computer Arithmetic*, section 1.7):
``fold`` splits the index range in half and joins the halves with a
power x**h (``fold(coeffs, x, -1)`` reads the coefficients top first, as
``fold(coeffs[::-1], x)`` would, without the copy), and ``_expand_all``
(other bases, and the base-10 pieces) splits the value with divmod by
base**h, each squaring its powers once per call. Below ``_LEAF`` digits
they fall back to Horner's rule and to one divmod per digit.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

MAX_TEXT_BASE = 36

_DIGIT_CHARS = string.digits + string.ascii_lowercase

# bytes.translate tables: a digit value to its character, and an ASCII character of either
# case to its value, with 255 (find's -1) for every other byte; parse checks str.isascii()
# before it encodes, so no other character reaches the table
_CHAR_TABLE = _DIGIT_CHARS.encode().ljust(256, b"?")
_VALUE_TABLE = bytes(_DIGIT_CHARS.find(chr(c).lower()) % 256 for c in range(128)).ljust(256, b"\xff")
# deleting _ALL_BYTES[:base] from digit values leaves exactly those >= base
_ALL_BYTES = bytes(range(256))
_FORMATS = {2: "b", 8: "o", 16: "x"}

# a leaf: the most digits a conversion handles with one plain loop
_LEAF = 64
# decimal digits per str() call past the int->str limit: under 640, the least limit Python allows
_CHUNK = 512


def fold(coeffs: tuple[int, ...], x: int, order: int = 1) -> int:
    """sum(coeffs[i] * x**i), or with order -1 fold(coeffs[::-1], x) with no reversed copy.

    Halves of the (reversed) index range are joined by powers of x, down to Horner's
    rule on _LEAF coefficients; a leaf of the reversed range is read forwards, in place.
    """
    powers: list[int] = []  # powers[i] = x**(_LEAF * 2**i)
    while _LEAF << len(powers) < len(coeffs):
        powers.append(powers[-1] * powers[-1] if powers else x**_LEAF)
    return _fold(coeffs, 0, len(coeffs), x, powers, len(powers), order)


def _fold(coeffs: tuple[int, ...], lo: int, hi: int, x: int, powers: list[int], level: int, order: int) -> int:
    """fold(coeffs, x, order) restricted to indices lo..hi - 1 of the (reversed) range, where
    hi - lo <= _LEAF * 2**level, slicing coeffs only at a leaf."""
    if level == 0:
        v, n = 0, len(coeffs)
        for c in reversed(coeffs[lo:hi]) if order == 1 else coeffs[n - hi : n - lo]:
            v = v * x + c
        return v
    mid = lo + (_LEAF << (level - 1))
    if hi <= mid:
        return _fold(coeffs, lo, hi, x, powers, level - 1, order)
    low = _fold(coeffs, lo, mid, x, powers, level - 1, order)
    return low + powers[level - 1] * _fold(coeffs, mid, hi, x, powers, level - 1, order)


def _expand(out: list[int], v: int, base: int, powers: list[int], level: int, pad: bool) -> None:
    """Append the digits of 0 <= v < base**(_LEAF * 2**level) to out, least significant first.

    With pad, exactly _LEAF * 2**level of them; without, none above the top nonzero
    digit. powers[i] = base**(_LEAF * 2**i). Module level and handed the list, so no
    closure cycle keeps the list alive after the call.
    """
    if level == 0:
        if pad:
            for _ in range(_LEAF):
                v, d = divmod(v, base)
                out.append(d)
        else:
            while v:
                v, d = divmod(v, base)
                out.append(d)
        return
    high, low = divmod(v, powers[level - 1])
    _expand(out, low, base, powers, level - 1, pad or high > 0)
    if high:
        _expand(out, high, base, powers, level - 1, pad)
    elif pad:
        out.extend([0] * (_LEAF << (level - 1)))


def _expand_all(mag: int, base: int) -> list[int]:
    """The digits of mag >= 0 in base, least significant first; none for 0."""
    # powers[i] = base**(_LEAF * 2**i), until mag < base**(_LEAF * 2**len(powers)) is sure from bit
    # lengths: base >= 2**(base.bit_length() - 1), and p * p >= 2**(2 * p.bit_length() - 2)
    powers: list[int] = []
    while mag.bit_length() > (2 * powers[-1].bit_length() - 2 if powers else _LEAF * (base.bit_length() - 1)):
        powers.append(powers[-1] * powers[-1] if powers else base**_LEAF)
    digits: list[int] = []
    _expand(digits, mag, base, powers, len(powers), False)
    return digits


def _digits_of(mag: int, base: int) -> tuple[int, ...]:
    """The digits of mag >= 0 in base, least significant first; (0,) for 0."""
    if base == 10 or base in _FORMATS:
        return tuple(_text(mag, base).encode().translate(_VALUE_TABLE)[::-1])
    return tuple(_expand_all(mag, base)) or (0,)


def _chars(digits) -> str:
    """Digit values in [0, 36) as their characters, in the order given."""
    return bytes(digits).translate(_CHAR_TABLE).decode()


def _text(v: int, base: int) -> str:
    """The text form of the int v in base 2..36, as ``DigitString.from_int(v, base).render()``."""
    if base == 10:
        try:
            return str(v)
        except ValueError:  # more digits than the interpreter's int->str limit
            pieces = _expand_all(abs(v), 10**_CHUNK)
            body = str(pieces[-1]) + "".join(str(p).zfill(_CHUNK) for p in reversed(pieces[:-1]))
    elif base in _FORMATS:
        return format(v, _FORMATS[base])
    else:
        body = _chars(_expand_all(abs(v), base)[::-1]) or "0"
    return "-" + body if v < 0 else body


def _check_base(base: int) -> None:
    if type(base) is not int or base < 2:
        raise ValueError(f"base must be an int >= 2, got {base!r}")


def _in_range(digits: tuple[int, ...], base: int) -> bool:
    if base > 256:
        return min(digits) >= 0 and max(digits) < base
    try:  # one C pass to bytes, one to delete every digit below the base
        return not bytes(digits).translate(None, _ALL_BYTES[:base])
    except ValueError:  # a digit outside range(256)
        return False


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
        # one C-level pass: a non-empty tuple whose items are all exactly int (bool is not)
        if type(self.digits) is not tuple or set(map(type, self.digits)) != {int}:
            raise ValueError(f"digits must be a non-empty tuple of ints, got {self.digits!r:.60}")
        if not _in_range(self.digits, self.base):
            raise ValueError(f"digit out of range for base {self.base}: {self.digits!r:.60}")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise ValueError("leading zero digit")
        if self.digits == (0,) and self.sign < 0:
            raise ValueError("zero must have positive sign")

    @classmethod
    def from_int(cls, value: int, base: int = 10) -> DigitString:
        if type(value) is not int:
            raise ValueError(f"value must be an int, got {value!r:.60}")
        _check_base(base)
        return cls(1 if value >= 0 else -1, base, _digits_of(abs(value), base))

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
        body = _chars(self.digits[::-1])
        return "-" + body if self.sign < 0 else body


def parse(text: str, base: int = 10) -> DigitString:
    """Parse an optional '-' followed by base-``base`` digit characters.

    Accepts 0-9 and ASCII a-z (either case) up to the base; leading zeros are
    dropped so the result is canonical.
    """
    if not isinstance(text, str):
        raise ValueError(f"text must be a str, got {text!r:.60}")
    if type(base) is not int or not 2 <= base <= MAX_TEXT_BASE:
        raise ValueError(f"text form supports bases 2..{MAX_TEXT_BASE}, got {base!r}")
    body, sign = text, 1
    if body.startswith("-"):
        body, sign = body[1:], -1
    if not body:
        raise ValueError("empty digit string")
    values = body.encode().translate(_VALUE_TABLE) if body.isascii() else b""
    if not values or values.translate(None, _ALL_BYTES[:base]):
        ch = next(ch for ch in reversed(body) if not ch.isascii() or _VALUE_TABLE[ord(ch)] >= base)
        raise ValueError(f"invalid digit {ch!r} for base {base}")
    digits = tuple(values.lstrip(b"\0")[::-1]) or (0,)
    return DigitString(1 if digits == (0,) else sign, base, digits)

