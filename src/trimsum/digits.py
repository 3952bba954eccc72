"""Signed integers as digit vectors in an arbitrary base.

One number type. ``DigitString`` is the canonical positional form:
digits in [0, base), least significant first, no leading zeros. A
stacked number, where any signed integer may sit in a digit position
(the "fifteen hundred" reading of 1500), is just its coefficient tuple;
its value is ``fold(coeffs, base)``.

Digits are stored least significant first so that dropping the last
digit and dropping the top digit are both cheap slices.

Each digit is checked once, where it enters. ``parse`` maps characters
to digit values with one ``bytes.translate`` and range-checks them with
another; ``DigitString(...)`` checks a caller's tuple the same way up to
base 256; and the digits that ``from_int``, ``abs`` and the fuzzer's
``random.Random`` draws make are canonical by construction. These four
build their values with ``DigitString._unchecked``, with no second pass.

Text and digits convert in C. ``_text`` prints an int with ``str`` in
base 10 and ``format`` in bases 2, 8 and 16, and ``_digits_of``
(``from_int``, and the sum and binomial steps) maps
that text back to digit values. ``_int_of`` (``.value``, and every step
that reads |a| from its digits) goes the other way in every text base:
it writes the digits as text and reads pieces of it with ``int(text, base)``.
A value past the interpreter's int->str digit limit is split into pieces
of ``_CHUNK`` < 640 digits (the least limit Python allows), each printed
by ``str`` or read by ``int``; nothing here reads or sets the limit itself.

Other conversions between digits and ``int`` are divide and conquer
(Brent and Zimmermann, *Modern Computer Arithmetic*, section 1.7):
``_int_of`` joins its pieces pairwise by squared powers of base**_CHUNK;
``fold`` (the weighted digit sums, stacked coefficients, and digits above
base 36) splits the index range in half and joins the halves with a
power x**h (``fold(coeffs, x, -1)`` reads the coefficients top first, as
``fold(coeffs[::-1], x)`` would, without the copy), and ``_expand_all``
(other bases, and the base-10 pieces) splits the value with divmod by
base**h, each squaring its powers once per call. Below ``_LEAF`` digits
they fall back to Horner's rule and to one divmod per digit.

``fold(coeffs, x, order, q)`` is that number mod q: the same divide and
conquer with each power and each join reduced mod q, building no big
number. A split verdict is one ``_residue``: a single pass over a value's
own digits, digit p of the fold order weighing y**(p % k) * x**(p // k)
mod q. Where x**i % q recurs, ``_cycle`` lists those weights once per
(x, q, y, k), and the verdict is one C-level dot product with the list
or, for longer folds, a few C-level sums of strided slices, each class of
equal weights summed on its own and a class of weight 0 not read at all;
up to _LEAF digits (k = 1), or where the weights do not recur, it is
``fold`` mod q.

Every value type of the package (``DigitString``; ``TestRule``, ``TraceStep``,
``Trace``, ``Family``; ``CostReport``, ``ComparisonTable``; ``FuzzReport``) is a
``_Record``: a frozen, slotted class that names its fields in ``_fields`` and sets
them in its own ``__init__`` with ``object.__setattr__``. ``_Record`` gives them a
frozen dataclass's semantics (equality and a hash over the compared fields, no
assignment or deletion, the dataclass repr, which ``_repr`` writes, and copies and
pickles, by way of ``_rebuilt``) without ``dataclasses``, whose import, with the
``inspect`` it loads, took longer than all the rest of ``import trimsum``.
"""

from __future__ import annotations

import string
from functools import lru_cache
from itertools import chain, cycle
from math import log2
from operator import mul

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
# the fewest coefficients per class of equal weights mod q for which a fold sums its classes, not Horner's rule
_PER_CLASS = 16
# digits per str() or int() call past the int->str limit: under 640, the least limit Python allows
_CHUNK = 512
# an error message writes out an int of magnitude below this, and gives only the digit count of any other
_SHOWN_BELOW = 10**60
_SHOWN_ITEMS = 21


def fold(coeffs: tuple[int, ...], x: int, order: int = 1, q: int | None = None) -> int:
    """sum(coeffs[i] * x**i), or with order -1 fold(coeffs[::-1], x) with no reversed copy; with q, that sum mod q.

    For the weighted sums that verdicts and the sum and binomial steps fold, and for stacked
    coefficients, which are not digits; a value's own digits become an int by ``_int_of``.

    Halves of the (reversed) index range are joined by powers of x, down to Horner's
    rule on _LEAF coefficients; a leaf of the reversed range is read forwards, in place.
    With q, each power and each join is reduced mod q, so it builds no number much past
    q times a leaf's: a verdict's fold of last digits' low k digits, of up to _LEAF digits, or of
    weights that do not recur (``_residue``).
    """
    powers: list[int] = []  # powers[i] = x**(_LEAF * 2**i), mod q with q
    while _LEAF << len(powers) < len(coeffs):
        power = powers[-1] * powers[-1] if powers else x**_LEAF
        powers.append(power if q is None else power % q)
    v = _fold(coeffs, 0, len(coeffs), x, powers, len(powers), order, q)
    return v if q is None else v % q


def _fold(
    coeffs: tuple[int, ...], lo: int, hi: int, x: int, powers: list[int], level: int, order: int, q: int | None
) -> int:
    """fold(coeffs, x, order, q) restricted to indices lo..hi - 1 of the (reversed) range, where hi - lo <=
    _LEAF * 2**level, slicing coeffs only at a leaf; with q, reduced mod q at each join, not at a leaf."""
    if level == 0:
        v, n = 0, len(coeffs)
        for c in reversed(coeffs[lo:hi]) if order == 1 else coeffs[n - hi : n - lo]:
            v = v * x + c
        return v
    mid = lo + (_LEAF << (level - 1))
    if hi <= mid:
        return _fold(coeffs, lo, hi, x, powers, level - 1, order, q)
    low = _fold(coeffs, lo, mid, x, powers, level - 1, order, q)
    v = low + powers[level - 1] * _fold(coeffs, mid, hi, x, powers, level - 1, order, q)
    return v if q is None else v % q


@lru_cache(maxsize=256)
def _cycle(x: int, q: int, y: int = 1, k: int = 1) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The weights w_p = y**(p % k) * x**(p // k) % q of a fold's coefficients p = 0, 1, ... in fold order, as
    their preperiod w_0 .. w_{mu - 1} and one period w_mu .. w_{mu + lam - 1} (w_{p + lam} = w_p for p >= mu),
    mu and lam multiples of k; None if the powers x**i % q do not recur within _LEAF steps.
    Cached: every verdict of a rule has the same weights.
    """
    first: dict[int, int] = {}  # each power x**i % q, in order, to the first i it appears at
    w = 1 % q
    while w not in first:
        if len(first) == _LEAF:
            return None
        first[w] = len(first)
        w = w * x % q
    places = [y**j % q for j in range(k)]  # the weight y**j of place j < k within a group
    # tuple() of a list: of a generator, it over-allocates, and a rule's first verdict peaks higher
    weights, mu = tuple([power * place % q for power in first for place in places]), k * first[w]
    return weights[:mu], weights[mu:]


def _residue(coeffs: tuple[int, ...], order: int, q: int | None, x: int, y: int = 1, k: int = 1) -> int:
    """sum(coeffs[p] * y**(p % k) * x**(p // k)) % q, p counted in fold order: from the first coefficient
    (order 1), or with k = 1 from the last (order -1); with q None, the sum itself. Every split verdict
    with alpha != 0 is one of these, one pass over coeffs in place.

    The sum itself, up to _LEAF coefficients with k = 1, and weights whose powers x**i % q do not recur
    are ``fold``'s, one fold of the coefficients p = j (mod k) per place j < k. Any other fold reads its
    weights off ``_cycle``: under _PER_CLASS * lam coefficients, one C-level dot product with the
    preperiod and then the period over and over; from there the first mu coefficients take their own
    weights, and the coefficients p = mu + r (mod lam) of each class r < lam share w_{mu + r}, which
    multiplies the C-level ``sum`` of their strided slices, at most _LEAF coefficients each (order -1
    slices down from the top). A class of weight 0 is not read, so a cycle that ends in 0 (binomial's
    1, 2, 4, 0, ... for q = 8 in base 10) reads only its first mu coefficients.
    """
    n = len(coeffs)
    if q is None or k == 1 and n <= _LEAF or not (weights := _cycle(x, q, y, k)):
        if k == 1:
            return fold(coeffs, x, order, q)
        total = 0
        for j in range(k):  # not sum() over a generator, whose closure and frame raise the peak heap
            total += y**j * fold(coeffs[j::k], x, 1, q)
        return total if q is None else total % q
    head, period = weights
    mu, lam = len(head), len(period)
    ordered = coeffs if order == 1 else reversed(coeffs)
    if n < _PER_CLASS * lam:
        return sum(map(mul, chain(head, cycle(period)), ordered)) % q
    total, step = sum(map(mul, head, ordered)), order * lam  # the preperiod
    for r, weight in enumerate(period):
        if weight:
            part = 0
            for lo in range(mu + r if order == 1 else n - 1 - mu - r, n if order == 1 else -1, _LEAF * step):
                end = lo + _LEAF * step
                part += sum(coeffs[lo : end if end >= 0 else None : step])
            total += weight * part
    return total % q


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


def _int_of(digits, base: int) -> int:
    """fold(digits, base) for digits in [0, base), least significant first: the inverse of ``_digits_of``; 0 for none.

    Up to base 36 the digits are written as text, read in pieces of _CHUNK characters by
    ``int(text, base)``, low piece first, and the pieces joined pairwise, each round by
    the square of the last round's power of base**_CHUNK. Above base 36, ``fold``.
    """
    if base > MAX_TEXT_BASE:
        return fold(digits, base)
    text = _chars(digits[::-1])
    if len(text) <= _CHUNK:
        return int(text, base) if text else 0
    pieces = [int(text[max(i - _CHUNK, 0) : i], base) for i in range(len(text), 0, -_CHUNK)]
    power = base**_CHUNK
    while True:
        if len(pieces) % 2:
            pieces.append(0)
        pieces = [low + high * power for low, high in zip(pieces[::2], pieces[1::2])]
        if len(pieces) == 1:
            return pieces[0]
        power *= power


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


def _digit_count(m: int, base: int) -> int:
    """How many base-``base`` digits m >= 0 has (1 for 0), with no text: floor((L - 1) / log2(base)) + 1
    from its bit length L, less a float margin, is at most that, and powers of the base add the rest (<= 2)."""
    count = max(int((m.bit_length() - 1) / log2(base) * (1 - 1e-12)), 0) + 1
    power = base**count
    while m >= power:
        power *= base
        count += 1
    return count


def _shown(value: object) -> str:
    """value as an error message writes it: an exact int in full, another value as its repr cut to
    60 characters (its type's name, "<tuple>", if the repr raises), and an int past 60 digits
    (which could pass the int->str limit) as its digit count, "<5001-digit int>" or "-<5001-digit int>".
    A long tuple or list of ints, alone or as a DigitString's digits, is written from its ``_head``."""
    if isinstance(value, int) and not -_SHOWN_BELOW < value < _SHOWN_BELOW:
        return f"{'-' if value < 0 else ''}<{_digit_count(abs(value), 10)}-digit int>"
    try:
        if type(value) is DigitString:  # its repr
            return f"DigitString(sign={value.sign!r}, base={value.base!r}, digits={_head(value.digits)!r})"[:60]
        return str(value) if type(value) is int else f"{_head(value)!r:.60}"
    except Exception:  # a caller's repr may raise anything; a tuple holding an int past the int->str limit does
        return f"<{type(value).__name__}>"


def _head(value: object) -> object:
    """value, or a tuple or list of over _SHOWN_ITEMS ints cut to its first _SHOWN_ITEMS, whose repr begins with
    the same 60 characters, each item writing at least "0, ". Only ints: an item may hold the list itself."""
    cut = type(value) in (tuple, list) and len(value) > _SHOWN_ITEMS and set(map(type, value[:_SHOWN_ITEMS])) == {int}
    return value[:_SHOWN_ITEMS] if cut else value


def _repr_of(value: object) -> str:
    """repr(value), but an int, alone or in a tuple, is written by ``_text``: no int->str digit limit applies."""
    if type(value) is int:
        return _text(value, 10)
    if type(value) is tuple:
        return f"({', '.join(map(_repr_of, value))}{',' if len(value) == 1 else ''})"
    return repr(value)


def _repr(self: _Record) -> str:
    """A ``_Record``'s repr, as a dataclass writes it, but each of its ``_fields`` written by ``_repr_of``: an int
    past the int->str digit limit (in a ``TestRule``, ``Trace``, ``TraceStep`` or ``CostReport``) does not raise."""
    shown = (f"{name}={_repr_of(value)}" for name, value in zip(self._fields, self._astuple()))
    return f"{type(self).__qualname__}({', '.join(shown)})"


def _rebuilt(cls: type[_Record], values: tuple, state: dict | None) -> _Record:
    """The cls record with these field values and ``__dict__`` state, as ``_Record.__reduce__`` hands it to
    ``copy`` and ``pickle``: set as ``__init__`` sets them, with no check run again."""
    self = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(self, name, value)
    if state:
        self.__dict__.update(state)
    return self


class _Record:
    """A frozen value with the named ``_fields``, compared, hashed, written and copied as a frozen dataclass is.

    A subclass declares ``__slots__``, its ``_fields`` in order, and an ``__init__`` that sets
    them with ``object.__setattr__`` and then calls its ``__post_init__``, if it has checks.
    Records are equal when they are of one class and their ``_key()`` values are equal,
    every field unless the class says otherwise; another type compares as NotImplemented.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        """The field values, in order."""
        return tuple(map(self.__getattribute__, self._fields))

    _key = _astuple  # what == and hash() compare

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return _rebuilt, (type(self), self._astuple(), getattr(self, "__dict__", None))

    __repr__ = _repr


def _check_int(name: str, value: int, least: int | None = None, most: int | None = None) -> None:
    """Refuse value unless it is exactly an int (not bool, nor an int subclass) in [least, most]."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {type(value).__name__} {_shown(value)}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {_shown(value)}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {_shown(value)}")


def _in_range(digits: tuple[int, ...], base: int) -> bool:
    if base > 256:
        return min(digits) >= 0 and max(digits) < base
    try:  # one C pass to bytes, one to delete every digit below the base
        return not bytes(digits).translate(None, _ALL_BYTES[:base])
    except ValueError:  # a digit outside range(256)
        return False


class DigitString(_Record):
    """Canonical form: sign * sum(digits[i] * base**i).

    Zero is the single digit 0 with positive sign.
    """

    __slots__ = _fields = ("sign", "base", "digits")

    def __init__(self, sign: int, base: int, digits: tuple[int, ...]) -> None:
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_int("base", self.base, 2)
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be the int +1 or -1, got {_shown(self.sign)}")
        # one C-level pass: a non-empty tuple whose items are all exactly int (bool is not)
        if type(self.digits) is not tuple or set(map(type, self.digits)) != {int}:
            raise ValueError(f"digits must be a non-empty tuple of ints, got {_shown(self.digits)}")
        if not _in_range(self.digits, self.base):
            raise ValueError(f"digit out of range for base {self.base}: {_shown(self.digits)}")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise ValueError("leading zero digit")
        if self.digits == (0,) and self.sign < 0:
            raise ValueError("zero must have positive sign")

    @classmethod
    def _unchecked(cls, sign: int, base: int, digits: tuple[int, ...]) -> DigitString:
        """The DigitString of these parts, built without ``__post_init__``.

        Every caller must already have checked its parts exactly as ``__post_init__`` would:
        base an exact int >= 2, sign the int +1 or -1, digits a non-empty tuple of exact ints
        in [0, base) with no leading zero, and sign +1 for zero.
        """
        if cls is not DigitString:  # a subclass (from_int's cls) may add fields or checks of its own
            return cls(sign, base, digits)
        self = object.__new__(cls)
        # set as __init__ sets them, past the frozen __setattr__
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)
        return self

    @classmethod
    def from_int(cls, value: int, base: int = 10) -> DigitString:
        _check_int("value", value)
        _check_int("base", base, 2)
        # _digits_of's digits are canonical: below the base, no leading zero, (0,) for 0
        return cls._unchecked(1 if value >= 0 else -1, base, _digits_of(abs(value), base))

    @property
    def value(self) -> int:
        return self.sign * _int_of(self.digits, self.base)

    def __len__(self) -> int:
        return len(self.digits)

    def __abs__(self) -> DigitString:
        return self if self.sign > 0 else DigitString._unchecked(1, self.base, self.digits)

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
        raise ValueError(f"text must be a str, got {_shown(text)}")
    if type(base) is not int or not 2 <= base <= MAX_TEXT_BASE:
        raise ValueError(f"text form supports bases 2..{MAX_TEXT_BASE}, got {_shown(base)}")
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
    return DigitString._unchecked(1 if digits == (0,) else sign, base, digits)

