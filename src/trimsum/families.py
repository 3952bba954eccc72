"""The divisibility-test families and their iteration driver.

Families: right trimming, Talmud (any q with base**2 = 2 mod q; 7 in base
10 is the historical case) and last digits, which are one test, ``_split``,
run with the (k, alpha, beta) each rule derives; left trimming (weight
base - q on the top digit, always run on stacked coefficients); weighted
summing; and binomial summing.

Two conventions are easy to transpose and are fixed here once:

* summing weights w**j attach from the MOST significant digit down
  (j = 0 on the top digit);
* binomial weights (base - q)**j attach from the LEAST significant digit
  up (j = 0 on the last digit), with (base - q)**0 = 1 even when
  base == q.

Each family is one integer formula in its ``FAMILY_TABLE`` record, read
off |a| given as its digits or as an int; divisibility does not depend on
sign, and a result may go negative (trimming 49 by sevens gives -14).
A plain chain takes its first step on the digits of |a| and every later
step on the previous step's int: trim, Talmud and last digits split it
with divmod, sum and binomial expand it to digits, and nothing converts
to a ``DigitString`` but a trace. The stacked trim and left-trim chains
are the sum and binomial formulas run one digit at a time: a running
Horner fold that rewrites no digits. ``_chain`` yields each chain's step
results as ints, and ``_folded`` carries a stacked step's value beside its
fold; from that one stream ``_steps`` makes the trace steps, and
``_step_texts`` the text a stacked trace prints, one at a time. A plain
trace's text comes from ``_plain_texts``: a trim step drops the last digit
and adds omega times it at the low end, so the steps ``_carried`` proves
it takes run on a buffer of the digits, each step's text one ``translate``,
and the chain finishes on ints.

``iterate`` and ``divides_via`` read only a chain's last number, as an int,
from ``_terminal``. A stacked chain's last number is its whole fold, made in
one call. A plain trim or Talmud chain is a stacked chain whose low
coefficient carries: ``_carried`` makes the steps the chain provably takes,
as many as ``_carried_steps`` counts, in one pass over the digit groups with
the rule's (k, alpha, beta), and reports that count to the cost table
(``_values``); the steps after them are taken one at a time.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, islice
from math import gcd
from operator import add

from .digits import _CHAR_TABLE, _DIGIT_CHARS, DigitString, _digits_of, _text, fold
from .weights import weight_inverse

TRIM = "trim"
LEFT_TRIM = "left_trim"
SUM = "sum"
BINOMIAL = "binomial"
TALMUD = "talmud"
LAST_DIGITS = "last_digits"
FAMILIES = (TRIM, LEFT_TRIM, SUM, BINOMIAL, TALMUD, LAST_DIGITS)

DIVISIBLE = "divisible"
NOT_DIVISIBLE = "not_divisible"


@dataclass(frozen=True)
class TestRule:
    """A divisibility test: a family plus the divisor it decides.

    The family's record in ``FAMILY_TABLE`` checks (q, base) and derives the weight omega, k and,
    for trim, Talmud and last digits, the (k, alpha, beta) of ``_split``; every such ``split`` is
    checked here against Zbikowski's condition, so a rule that builds is a sound test.
    """

    family: str
    q: int
    base: int = 10
    omega: int | None = field(init=False)
    k: int | None = field(init=False)  # set for last digits only
    split: tuple[int, int, int] | None = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in FAMILY_TABLE:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("q", "base"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.q < 1:
            raise ValueError(f"divisor must be >= 1, got {self.q}")
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        omega, k, split = FAMILY_TABLE[self.family].derive(self.q, self.base)
        if split:
            width, alpha, beta = split
            if gcd(beta, self.q) != 1 or (alpha - beta * pow(self.base, width, self.q)) % self.q:
                raise ValueError(
                    f"the {self.family} split (k, alpha, beta) = {split} needs gcd(beta, q) = 1 and "
                    f"alpha = beta * base**k (mod q), got q={self.q} base={self.base}"
                )
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "split", split)

    def as_json(self) -> dict:
        return {"family": self.family, "q": self.q, "base": self.base, "omega": self.omega}

    @classmethod
    def trim(cls, q: int, base: int = 10) -> TestRule:
        return cls(TRIM, q, base)

    @classmethod
    def sum(cls, q: int, base: int = 10) -> TestRule:
        return cls(SUM, q, base)

    @classmethod
    def binomial(cls, q: int, base: int = 10) -> TestRule:
        return cls(BINOMIAL, q, base)

    @classmethod
    def left_trim(cls, q: int, base: int = 10) -> TestRule:
        return cls(LEFT_TRIM, q, base)

    @classmethod
    def talmud(cls) -> TestRule:
        return cls(TALMUD, FAMILY_TABLE[TALMUD].default_q)

    @classmethod
    def last_digits(cls, q: int, base: int = 10) -> TestRule:
        """Rule returning the low k digits, for the least k with q | base**k."""
        return cls(LAST_DIGITS, q, base)


@dataclass(frozen=True)
class TraceStep:
    """One chain step: its int value and its coefficients, least significant first, which fold to it.

    A stacked or left-trim step's coefficients are its fold beside the digits not yet
    folded; a plain step's are its value's digits, negated with it. ``stacked`` and
    ``collapsed`` are views the benchmark harness (perfbench/spans.py) still reads.
    """

    op: str
    value: int
    coeffs: tuple[int, ...]
    base: int

    @property
    def stacked(self) -> TraceStep:
        return self

    @property
    def collapsed(self) -> DigitString:
        return DigitString.from_int(self.value, self.base)


@dataclass(frozen=True)
class Trace:
    """A chain's verdict and last number; ``terminal`` and ``steps`` are built the first time they are read.

    ``render()`` and ``_json_chunks()`` (what ``trace`` and ``trace --json`` print) also
    run it again, making their text a step at a time with ``_step_texts`` (from the step
    ints, or a long plain trim chain's digit buffer); they build no ``TraceStep`` and
    leave ``steps`` unread. ``as_json()``
    builds the same document from ``steps``. Traces are equal when their rule, input
    and chain kind (``stacked``) are.
    """

    rule: TestRule
    a: DigitString
    stacked: bool
    last: int = field(compare=False)
    verdict: str = field(compare=False)

    @cached_property
    def terminal(self) -> DigitString:
        return DigitString.from_int(self.last, self.rule.base)

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        return tuple(_steps(self.a, self.rule, self.stacked))

    def as_json(self) -> dict:
        terminal = self.terminal.render()  # rejects a base without a text form before any step is built
        base = self.rule.base
        return {
            "rule": self.rule.as_json(),
            "steps": [{"op": s.op, "coeffs": list(s.coeffs), "collapsed": _text(s.value, base)} for s in self.steps],
            "terminal": terminal,
            "verdict": self.verdict,
        }

    def render(self) -> str:
        """The ``trace`` command's text; a stacked chain step also shows its coefficients."""
        return "\n".join(self._lines())

    def _lines(self) -> Iterator[str]:
        """``render()`` a line at a time, from the chain's step ints; checks the base first."""
        rule, terminal = self.rule, self.terminal.render()  # checks the base, as in as_json
        omega = "" if rule.omega is None else f" omega={rule.omega:+d}"
        yield f"rule: family={rule.family} q={rule.q} base={rule.base}{omega}"
        sep = ", " if self.stacked else None  # a plain step's line shows no coefficients
        for i, (op, coeffs, value) in enumerate(_step_texts(self.a, rule, self.stacked, sep), start=1):
            yield f"step {i}: {op} -> [{coeffs}] = {value}" if sep else f"step {i}: {op} -> {value}"
        yield f"terminal: {terminal}"
        yield f"verdict: {self.verdict.replace('_', ' ')}"

    def _json_chunks(self) -> Iterator[str]:
        """``json.dumps(self.as_json(), indent=2) + "\\n"`` a step at a time; checks the base first.

        Names, the verdict and digit text never need JSON escaping, so each chunk is
        formatted directly, in the indenting encoder's layout.
        """
        rule, terminal = self.rule, self.terminal.render()
        omega = "null" if rule.omega is None else rule.omega
        yield (
            f'{{\n  "rule": {{\n    "family": "{rule.family}",\n    "q": {rule.q},\n'
            f'    "base": {rule.base},\n    "omega": {omega}\n  }},\n  "steps": ['
        )
        lead, close = "\n", "]"  # an empty list stays on one line
        for op, coeffs, value in _step_texts(self.a, rule, self.stacked, ",\n        "):
            yield (
                f'{lead}    {{\n      "op": "{op}",\n      "coeffs": [\n        {coeffs}\n      ],\n'
                f'      "collapsed": "{value}"\n    }}'
            )
            lead, close = ",\n", "\n  ]"
        yield f'{close},\n  "terminal": "{terminal}",\n  "verdict": "{self.verdict}"\n}}\n'


# a step's input: |a| as its digit tuple (apply_once, a plain chain's first step) or as an int
_Magnitude = tuple[int, ...] | int


def _digits(x: _Magnitude, base: int) -> tuple[int, ...]:
    return _digits_of(x, base) if type(x) is int else x


def _split(x: _Magnitude, r: TestRule) -> int:
    """Split |a| = h * base**k + l and return alpha * h + beta * l, for the rule's (k, alpha, beta).

    Trim is (k, alpha, beta) = (1, 1, omega), Talmud (2, 2, 1), last digits (k, 0, 1),
    which reads only the low k digits. It is a test for q when beta is a unit mod q
    and alpha = beta * base**k (mod q), for then the result is beta * |a| (mod q).
    """
    k, alpha, beta = r.split
    if not alpha:
        return beta * (x % r.base**k if type(x) is int else fold(x[:k], r.base))
    high, low = divmod(x if type(x) is int else fold(x, r.base), r.base**k)
    return alpha * high + beta * low


def _left_trim(d: tuple[int, ...], r: TestRule) -> int:
    """Left trim, |a| less q * top * base**(n - 2): (base - q) * top folded one digit down."""
    top = r.q * d[-1] * r.base ** (len(d) - 2) if len(d) > 1 else 0
    return fold(d, r.base) - top


def _sum(x: _Magnitude, r: TestRule) -> int:
    """Weighted digit sum with omega**j applied from the top digit down."""
    return fold(_digits(x, r.base)[::-1], r.omega)


def _binomial(x: _Magnitude, r: TestRule) -> int:
    """Weighted digit sum with (base - q)**j applied from the last digit up."""
    return fold(_digits(x, r.base), r.base - r.q)


_Derived = tuple[int | None, int | None, tuple[int, int, int] | None]


def _derive_trim(q: int, base: int) -> _Derived:
    omega = weight_inverse(q, base)
    return omega, None, (1, 1, omega)


def _derive_binomial(q: int, base: int) -> _Derived:
    if q < 2:
        raise ValueError(f"binomial weights base - q need q >= 2, got {q}")
    return None, None, None


def _derive_last_digits(q: int, base: int) -> _Derived:
    k, power = 0, 1
    # if every prime of q divides the base, k never exceeds log2(q)
    while power % q and k <= q.bit_length():
        k += 1
        power *= base
    if power % q:
        raise ValueError(f"q={q} divides no power of base {base}; no last-digits test")
    return None, k, (k, 0, 1)


def _per_step(steps: int, lengths: list[int]) -> int:
    return steps


def _per_digit(steps: int, lengths: list[int]) -> int:
    # one multiply-add per digit position beyond the first, per application; a summing
    # chain carries no steps, so lengths are its input's and every step's
    return sum(n - 1 for n in lengths[:-1])


@dataclass(frozen=True)
class Family:
    """What sets one test family apart; ``FAMILY_TABLE`` has one record each."""

    derive: Callable[[int, int], _Derived]  # checks (q, base), returns (omega, k, split)
    step: Callable[[_Magnitude, TestRule], int]  # one application to |a|: digits, or a plain chain's int
    weight: Callable[[TestRule], int]  # a stacked chain folds with it; the cost table shows |weight|
    digit_ops: Callable[[int, list[int]], int]  # multiply-adds, from the step count and the lengths measured
    chain_order: int | None = None  # the stacked chain folds digits[::chain_order], if it has one
    chain_op: str | None = None  # the op name of the stacked chain's trace steps
    always_stacked: bool = False  # _chain runs it stacked even without stacked=True
    default_q: int | None = None  # the divisor the family is fixed at, if any


FAMILY_TABLE = {
    TRIM: Family(_derive_trim, _split, lambda r: r.omega, _per_step, chain_order=1, chain_op="stack"),
    LEFT_TRIM: Family(
        _derive_binomial,
        _left_trim,
        lambda r: r.base - r.q,
        _per_step,
        chain_order=-1,
        chain_op="left_trim",
        always_stacked=True,
    ),
    SUM: Family(lambda q, base: (weight_inverse(q, base), None, None), _sum, lambda r: r.omega, _per_digit),
    BINOMIAL: Family(_derive_binomial, _binomial, lambda r: r.base - r.q, _per_digit),
    TALMUD: Family(lambda q, base: (None, None, (2, 2, 1)), _split, lambda r: 2, _per_step, default_q=7),
    LAST_DIGITS: Family(_derive_last_digits, _split, lambda r: 0, lambda steps, lengths: 0),
}


def _check_operands(a: DigitString, rule: TestRule) -> None:
    if not isinstance(a, DigitString) or not isinstance(rule, TestRule):
        raise ValueError(f"expected a DigitString and a TestRule, got {a!r:.60} and {rule!r:.60}")
    if a.base != rule.base:
        raise ValueError(f"base mismatch: value in base {a.base}, rule in base {rule.base}")


def apply_once(a: DigitString, rule: TestRule) -> DigitString:
    """One application of the rule's reduction to |a|, as a canonical value."""
    _check_operands(a, rule)
    return DigitString.from_int(FAMILY_TABLE[rule.family].step(a.digits, rule), a.base)


# perfbench/ladder.py times one trim step under this name
trim = apply_once


def _chain(a: DigitString, rule: TestRule, stacked: bool) -> tuple[int | None, Iterator[int]]:
    """The stacked chain's fold order (None if plain), and the chain's step results.

    A stacked chain is the running fold acc = acc * weight + next digit, made
    one step at a time: trim's from the last digit up with omega (ending at the
    sum test), left trim's from the top digit down with base - q (the binomial test).
    """
    order, family = _chain_kind(a, rule, stacked)
    if order:
        weight = family.weight(rule)
        return order, islice(accumulate(a.digits[::order], lambda acc, d: acc * weight + d), 1, None)
    return None, _plain_chain(a.digits, rule)


def _chain_kind(a: DigitString, rule: TestRule, stacked: bool) -> tuple[int | None, Family]:
    """The stacked chain's fold order (None if plain) and the rule's family; checks the operands first."""
    _check_operands(a, rule)
    family = FAMILY_TABLE[rule.family]
    if family.chain_order and (stacked or family.always_stacked):
        return family.chain_order, family
    if stacked:
        chained = " and ".join(repr(name) for name, f in FAMILY_TABLE.items() if f.chain_order)
        raise ValueError(f"stacked iteration applies to {chained} rules only")
    return None, family


def _plain_chain(x: _Magnitude, rule: TestRule) -> Iterator[int]:
    """Each step's int from x = |a|, stepping while |v| >= base**2 until a step fails to shrink |v|.

    Given as digits, |a| takes no step below three of them, and the first step reads
    them: trim and Talmud fold them once, last digits only its low k, sum and binomial
    use them as they are. Every later step reads the previous step's int; only sum and
    binomial expand it to digits.
    """
    base, step = rule.base, FAMILY_TABLE[rule.family].step
    if type(x) is not int and len(x) < 3:
        return
    while True:
        v = step(x, rule)
        yield v
        m = abs(v)
        if m < base * base or not _smaller(m, x, base):
            return
        x = m


def _smaller(m: int, x: _Magnitude, base: int) -> bool:
    """m < |a|, for |a| given as an int or as its digits.

    n digits make |a| >= base**(n - 1), so a shorter m needs no fold: bit lengths
    settle most cases (base >= 2**(bit_length(base) - 1)), base**(n - 1) the rest
    but an m as long as |a|.
    """
    if type(x) is int:
        return m < x
    n = len(x) - 1
    return m.bit_length() <= n * (base.bit_length() - 1) or m < base**n or m < fold(x, base)


def _steps(a: DigitString, rule: TestRule, stacked: bool) -> Iterator[TraceStep]:
    """Each of the chain's steps as a ``TraceStep``, made from the stream ``_step_texts`` prints.

    A stacked chain's step i holds the fold of i + 1 digits in the last folded digit's
    slot, beside the digits not yet folded, so its last step is the 1-tuple of the fold.
    """
    base, (order, numbers) = rule.base, _chain(a, rule, stacked)
    if order is None:
        for v in numbers:
            ds = _digits_of(abs(v), base)
            yield TraceStep(rule.family, v, ds if v >= 0 else tuple(-d for d in ds), base)
        return
    d, family = a.digits[::order], FAMILY_TABLE[rule.family]
    for folded, (acc, value) in enumerate(_folded(numbers, a, order, family.weight(rule)), 2):
        yield TraceStep(family.chain_op, value, ((acc,) + d[folded:])[::order], base)


def _step_texts(
    a: DigitString, rule: TestRule, stacked: bool, sep: str | None
) -> Iterator[tuple[str, str | None, str]]:
    """Each trace step's op, its coefficients' decimal texts joined by sep, and its value's text.

    A plain step's value text comes from ``_plain_texts``, and its coefficients (None if
    sep is None) are read off that text in one loop: its digits, low first, each mapped
    to its decimal text above base 10, and negated with it. A stacked step's value
    comes from the chain's step ints, converted once by ``digits._text`` and carried
    from the step before, with no fold per step; its coefficients are its fold beside
    the digits not yet folded, whose texts are joined once per trace.
    """
    base = rule.base
    order, numbers = _chain(a, rule, stacked)
    if order is None:
        texts = _plain_texts(a.digits, rule)
        if sep is None:
            yield from ((rule.family, None, text) for text in texts)
            return
        decimal = {c: str(d) for d, c in enumerate(_DIGIT_CHARS[:base])}.__getitem__ if base > 10 else None
        for text in texts:
            low_first = text.lstrip("-")[::-1]
            coeffs = map(decimal, low_first) if decimal else low_first
            if text[0] == "-":  # every coefficient negated; a negated 0 prints as 0
                yield rule.family, ("-" + (sep + "-").join(coeffs)).replace("-0", "0"), text
            else:
                yield rule.family, sep.join(coeffs), text
        return
    family = FAMILY_TABLE[rule.family]
    texts = [str(d) for d in a.digits]
    ends = list(accumulate((len(t) + len(sep) for t in texts), initial=0))
    steps = enumerate(_folded(numbers, a, order, family.weight(rule)), start=2)
    if order == 1:  # the fold of the low digits, then the digits not yet folded
        tail = "".join(sep + t for t in texts)
        for folded, (acc, value) in steps:
            yield family.chain_op, _text(acc, 10) + tail[ends[folded] :], _text(value, base)
    else:  # the digits not yet folded, then the fold of the top ones
        head, n = "".join(t + sep for t in texts), len(texts)
        magnitude = abs(a).render()
        for folded, (acc, value) in steps:
            coeff = _text(acc, 10)
            if acc > 0:  # the value's text is acc's, then the digits not yet folded
                value_text = (coeff if base == 10 else _text(acc, base)) + magnitude[folded:]
            else:
                value_text = _text(value, base)
            yield family.chain_op, head[: ends[n - folded]] + coeff, value_text


def _plain_texts(d: tuple[int, ...], rule: TestRule) -> Iterator[str]:
    """Each plain step's value text, from the digits d of |a|, least significant first.

    A trim step (the split (k, alpha, beta) = (1, 1, omega)) drops the last digit d_0
    of x and adds omega * d_0 at the low end. The chain takes its first ``_carried_steps``
    steps as they are, as ``_carried`` proves: each is positive, at least base**2 and
    shrinking, so a carry past the top digit is one digit. They run on a buffer of x's
    digits, most significant first, carrying or borrowing only as far as it runs, and
    each text is one ``translate``. The chain steps on from the buffer's number (in every
    other family, from |a|) with ``_plain_chain``, each value converted once by ``digits._text``.
    """
    base, (k, alpha, beta) = rule.base, rule.split or (0, 0, 0)
    x: _Magnitude = d
    if (k, alpha) == (1, 1) and (steps := _carried_steps(len(d), rule)):
        buf = bytearray(d[::-1])
        for _ in range(steps):
            carry, i = beta * buf.pop(), len(buf) - 1
            while carry and i >= 0:
                carry, buf[i] = divmod(buf[i] + carry, base)
                i -= 1
            if carry:
                buf.insert(0, carry)
            elif not buf[0]:  # a borrow reached the top digit
                del buf[: len(buf) - len(buf.lstrip(b"\0"))]
            yield buf.translate(_CHAR_TABLE).decode()
        x = int(buf.translate(_CHAR_TABLE), base)
    yield from (_text(v, base) for v in _plain_chain(x, rule))


def _values(a: DigitString, rule: TestRule) -> tuple[int, Iterator[int]]:
    """How many steps of the rule's verdict chain ``_carried`` takes at once, and each later
    step's value; checks the operands first. Each carried step shrinks, so it is shorter than |a|.
    """
    order, folds = _chain(a, rule, False)
    if order is None:
        x, carried = _carried(a.digits, rule)
        return carried, _plain_chain(x, rule)
    return 0, (value for _, value in _folded(folds, a, order, FAMILY_TABLE[rule.family].weight(rule)))


def _folded(folds: Iterator[int], a: DigitString, order: int, weight: int) -> Iterator[tuple[int, int]]:
    """Each stacked step's fold and value, the value carried from the step before.

    Trim folds from the last digit up: v' = (v - acc) / base + weight * acc, the
    slot of acc dropped and its fold moved into the next. Left trim folds from the
    top digit down: folding in the digit below acc moves the value by
    (weight - base) * acc * base**r, where r digits are still unfolded.
    """
    base, d = a.base, a.digits
    value = fold(d, base)
    if order == 1:
        acc = d[0]
        for following in folds:
            value = (value - acc) // base + weight * acc
            yield following, value
            acc = following
        return
    acc, power = d[-1], base ** (len(d) - 1)
    for following in folds:
        power //= base
        value += (weight - base) * acc * power
        yield following, value
        acc = following


def _terminal(a: DigitString, rule: TestRule, stacked: bool) -> tuple[bool, int]:
    """Whether the chain ran stacked, and its last number: |a| if it takes no step.

    Nothing steps a stacked chain: its last number is its whole fold, the sum test's
    value for trim and the binomial test's for left trim. A plain split chain
    (trim, Talmud) takes the steps ``_carried`` proves it takes as one carried stack,
    then steps on from that number with ``_plain_chain``'s stopping rule.
    """
    (order, family), d = _chain_kind(a, rule, stacked), a.digits
    if order:
        return True, fold(d[::-order], family.weight(rule))
    last = deque(_plain_chain(_carried(d, rule)[0], rule), maxlen=1)
    return False, last[0] if last else fold(d, a.base)


def _carried(d: tuple[int, ...], rule: TestRule) -> tuple[_Magnitude, int]:
    """The split chain's number after the steps it provably takes on |a| = fold(d, base),
    without abs or a stop, and how many they are; (d, 0) if it takes none of them.

    Take B = base**k, |a|'s base-B digit groups D_0 .. D_{N-1} (D_{N-1} > 0), and
    H_t = sum(D_i * B**(i - t - 1) for i > t), the groups above group t. A step is
    f(x) = alpha * (x // B) + beta * (x % B), and f(s + alpha**t * B * H) =
    alpha * (s // B) + beta * (s % B) + alpha**(t + 1) * H, since B divides the
    second term. With H_t = D_{t+1} + B * H_{t+1}, t steps (without abs or a stop)
    give x_t = s_t + alpha**t * B * H_t, where s_0 = D_0 and

        s_{t+1} = alpha * (s_t // B) + beta * (s_t % B) + alpha**(t + 1) * D_{t+1}.

    Let 1 <= alpha <= B / 2 (trim: alpha = 1 <= base / 2; Talmud: alpha = 2 <= base**2 / 2)
    and c = 2 * (|beta| + 1). Then |s_t| <= c * B * alpha**t. It holds at t = 0 (D_0 < B).
    As |s // B| <= |s| / B + 1, with A = alpha**(t + 1) >= alpha,
    |s_{t+1}| <= c * A + alpha + |beta| * (B - 1) + A * (B - 1), which falls short of
    c * B * A by (B - 1) * (A * (2|beta| + 1) - |beta|) - alpha
    >= (B - 1) * (|beta| + 1) * A - alpha >= A - alpha >= 0.

    The ``_carried_steps`` steps replaced are those that leave ``keep`` or more groups unread, with
    B**(keep - 1) >= c + B. In such a step t -> t + 1, H_{t+1} >= B**(keep - 1), so
    x_{t+1} >= alpha**(t + 1) * B * (B**(keep - 1) - c) >= B**2 >= base**2: the step
    is positive, so abs changes nothing, and too large to stop. Its input has
    H_t >= B**keep >= 2 * (c + B), so x_t >= B * (c + 2 * B) > 2 * |beta| * (B - 1);
    and as f(x) <= alpha * x / B + |beta| * (B - 1) <= x / 2 + |beta| * (B - 1) for
    x > 0, the step shrinks: f(x_t) < x_t. So the real chain takes each of these
    steps exactly, and it goes on from their last value as it would have.
    The groups are read lazily, and the fold sees only the ``keep`` unread top groups.
    """
    if not (steps := _carried_steps(len(d), rule)):
        return d, 0
    base, (k, alpha, beta) = rule.base, rule.split
    big = base**k
    groups = islice(d, 0, None, k)
    for j in range(1, k):
        groups = map(add, groups, map((base**j).__mul__, islice(d, j, None, k)))
    s, scale = next(groups), 1
    for group in islice(groups, steps):
        high, low = divmod(s, big)
        scale *= alpha
        s = alpha * high + beta * low + scale * group
    return s + scale * big * fold(d[k * (steps + 1) :], base), steps


def _carried_steps(n: int, rule: TestRule) -> int:
    """How many steps ``_carried`` proves the split chain takes exactly on an |a| of n digits."""
    base, (k, alpha, beta) = rule.base, rule.split or (0, 0, 0)
    big = base**k
    if not 0 < alpha <= big // 2:
        return 0
    keep, power, least = 1, 1, 2 * (abs(beta) + 1) + big
    while power < least:  # power = B**(keep - 1)
        keep, power = keep + 1, power * big
    return max(-(-n // k) - 1 - keep, 0)


def iterate(a: DigitString, rule: TestRule, *, stacked: bool = False) -> Trace:
    """Drive a rule to a verdict from its chain's terminal, stepping no more than ``_terminal`` must.

    The verdict is the terminal mod q. ``stacked=True`` (trim only) runs the
    stacked chain, as left trimming always does. The trace's terminal is converted,
    and its steps built from a run of the stepped chain, only if they are read.
    """
    if type(stacked) is not bool:
        raise ValueError(f"stacked must be a bool, got {stacked!r:.60}")
    stacked, value = _terminal(a, rule, stacked)
    verdict = DIVISIBLE if value % rule.q == 0 else NOT_DIVISIBLE
    return Trace(rule, a, stacked, value, verdict)


def divides_via(a: DigitString, rule: TestRule) -> bool:
    """Decide q | a from the rule's chain's terminal, as ``iterate`` does, converting nothing."""
    return _terminal(a, rule, False)[1] % rule.q == 0
