"""The divisibility-test families and their iteration driver.

Every family is Zbikowski's test, split |a| = h * base**k + l and keep
alpha * h + beta * l, with the (k, alpha, beta) its rule derives: right
trimming and weighted summing (1, 1, omega), Talmud (2, 2, 1; any q with
base**2 = 2 mod q, 7 in base 10 being the historical case), last digits
(k, 0, 1), and binomial summing and left trimming (1, base - q, 1). Trim,
Talmud and last digits step with ``_split``; sum and binomial step with
that split run stacked, their weighted digit sum; left trimming (weight
base - q on the top digit) always runs on stacked coefficients.

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
Horner fold that rewrites no digits. ``_folded`` takes each stacked step's
fold and carries its value beside it, and ``_plain_chain`` yields each plain
step's int; from these ``_steps`` makes the trace steps, and ``_step_texts``
the text a stacked trace prints, one at a time. A plain
trace's text comes from ``_plain_texts``: a trim step drops the last digit
and adds omega times it at the low end, so the steps ``_values`` proves
it takes run on a buffer of the digits, each step's text one ``translate``,
and the chain finishes on ints.

Every verdict is ``divides_via``'s one pass over the digits of |a|, the rule's split chain
run stacked as one ``_split_fold`` taken mod q, read off each digit's recurring weight mod q with
no big number built; a ``Trace`` decides its own with it when built. No verdict
runs a chain or reads the chain kind: stacking changes what a trace prints, not what it
decides. ``Trace.terminal`` reads a stacked chain's ``_split_fold`` too, and a plain chain's
last value from ``_values``, the one runner of a plain chain, which the cost table reads as well:
it takes the steps a ``_split`` chain provably takes, as many as ``_carried_steps`` counts, in
one pass over the digit groups with the rule's (k, alpha, beta), reports that count, and yields
each later step's value, taken one at a time. A printed trace reads neither: it ends at its own
last step, so it runs its chain once.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from functools import cached_property
from itertools import accumulate, islice
from math import gcd
from operator import add

from .digits import (
    _CHAR_TABLE, _DIGIT_CHARS, DigitString, _chars, _digits_of, _int_of, _Record, _residue, _shown, _text, fold
)
from .weights import _check_divisor, weight_inverse

TRIM = "trim"
LEFT_TRIM = "left_trim"
SUM = "sum"
BINOMIAL = "binomial"
TALMUD = "talmud"
LAST_DIGITS = "last_digits"
FAMILIES = (TRIM, LEFT_TRIM, SUM, BINOMIAL, TALMUD, LAST_DIGITS)

DIVISIBLE = "divisible"
NOT_DIVISIBLE = "not_divisible"


class TestRule(_Record):
    """A divisibility test: a family plus the divisor it decides.

    The family's record in ``FAMILY_TABLE`` checks (q, base) and derives the weight omega, k and the
    (k, alpha, beta) of Zbikowski's test; each ``split`` is checked here against his condition, so a
    rule that builds is a sound test, and must have a shape ``_split_fold`` folds.
    """

    # omega, k (set for last digits only) and split are derived from the family, q and base
    __slots__ = _fields = ("family", "q", "base", "omega", "k", "split")

    def __init__(self, family: str, q: int, base: int = 10) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "base", base)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in FAMILY_TABLE:
            raise ValueError(f"unknown family {_shown(self.family)}")
        _check_divisor(self.q, self.base)
        omega, k, split = FAMILY_TABLE[self.family].derive(self.q, self.base)
        width, alpha, beta = split
        shaped = beta == 1 or (width, alpha) == (1, 1)
        if not shaped or gcd(beta, self.q) != 1 or (alpha - beta * pow(self.base, width, self.q)) % self.q:
            raise ValueError(
                f"the {self.family} split (k, alpha, beta) = {split} needs gcd(beta, q) = 1, "
                f"alpha = beta * base**k (mod q), and beta = 1 or k = alpha = 1, "
                f"got q={_shown(self.q)} base={_shown(self.base)}"
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


class TraceStep(_Record):
    """One chain step: its int value and its coefficients, least significant first, which fold to it.

    A stacked or left-trim step's coefficients are its fold beside the digits not yet
    folded; a plain step's are its value's digits, negated with it. ``stacked`` and
    ``collapsed`` are views the benchmark harness (perfbench/spans.py) still reads.
    """

    __slots__ = _fields = ("op", "value", "coeffs", "base")

    def __init__(self, op: str, value: int, coeffs: tuple[int, ...], base: int) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "base", base)

    @property
    def stacked(self) -> TraceStep:
        return self

    @property
    def collapsed(self) -> DigitString:
        return DigitString.from_int(self.value, self.base)


class Trace(_Record):
    """A rule's chain on a; its ``terminal`` and ``steps`` are built the first time they are read.

    Building one checks its operands and ``stacked``, decides the ``verdict`` with ``divides_via``, which
    does not read ``stacked``, and sets ``stacked`` for left trim, whose chain always stacks. ``render()`` and
    ``_json_chunks()`` (what ``trace`` and ``trace --json`` print) run the chain once, making their
    text a step at a time with ``_step_texts`` (from the step ints, or a long plain trim chain's
    digit buffer); they build no ``TraceStep`` and leave ``steps`` unread. ``as_json()`` builds the
    same document from ``steps``. Each printed form ends at its own last step, whose value is the
    terminal (|a| if the chain takes no step), so none reads ``terminal``.
    Traces are equal when their rule, input and chain kind (``stacked``) are.
    """

    _fields = ("rule", "a", "stacked", "verdict")
    __slots__ = (*_fields, "__dict__")  # the __dict__ holds terminal and steps once read

    def __init__(self, rule: TestRule, a: DigitString, stacked: bool = False) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "stacked", stacked)
        self.__post_init__()

    def _key(self) -> tuple:
        return self.rule, self.a, self.stacked  # not the verdict, which they decide

    def __post_init__(self) -> None:
        if type(self.stacked) is not bool:
            raise ValueError(f"stacked must be a bool, got {type(self.stacked).__name__} {_shown(self.stacked)}")
        object.__setattr__(self, "verdict", DIVISIBLE if divides_via(self.a, self.rule) else NOT_DIVISIBLE)
        family = FAMILY_TABLE[self.rule.family]
        if self.stacked and not family.order:
            chained = " and ".join(repr(name) for name, f in FAMILY_TABLE.items() if f.order)
            raise ValueError(f"stacked iteration applies to {chained} rules only")
        object.__setattr__(self, "stacked", self.stacked or family.always_stacked)

    @cached_property
    def terminal(self) -> DigitString:
        """Where the chain ends: a stacked chain's ``_split_fold``, or the last value ``_values`` yields
        for a plain chain, each converted once; |a| itself if the plain chain takes no step."""
        if self.stacked:
            return DigitString.from_int(_split_fold(self.a.digits, self.rule), self.rule.base)
        last = deque(_values(self.a, self.rule)[1], maxlen=1)
        return DigitString.from_int(last[0], self.rule.base) if last else abs(self.a)

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        return tuple(_steps(self))

    def as_json(self) -> dict:
        """The ``trace --json`` document: each step's ``coeffs`` are ints, its value and the terminal digit text.

        A stacked or left-trim fold of over 4300 decimal digits is an int that ``json.dumps``
        refuses to write under Python's default int-to-str limit, and that ``json.loads`` refuses
        to read from ``trace --json``, which prints it as a JSON integer all the same.
        """
        terminal = abs(self.a).render()  # rejects a base without a text form before any step is built
        base, plain = self.rule.base, not self.stacked  # a non-negative plain step's coeffs are its digits
        texts = (_chars(s.coeffs[::-1]) if plain and s.value >= 0 else _text(s.value, base) for s in self.steps)
        steps = [{"op": s.op, "coeffs": list(s.coeffs), "collapsed": t} for s, t in zip(self.steps, texts)]
        terminal = steps[-1]["collapsed"] if steps else terminal  # where the chain ends: its last step, or |a|
        return {"rule": self.rule.as_json(), "steps": steps, "terminal": terminal, "verdict": self.verdict}

    def render(self) -> str:
        """The ``trace`` command's text; a stacked chain step also shows its coefficients."""
        return "\n".join(self._lines())

    def _lines(self) -> Iterator[str]:
        """``render()`` a line at a time, from the chain's step ints; checks the base first.

        Each step's value text is bound to ``terminal``, so the ``terminal:`` line prints the last one.
        """
        rule, terminal = self.rule, abs(self.a).render()  # checks the base, as in as_json
        omega = "" if rule.omega is None else f" omega={'+' if rule.omega >= 0 else ''}{_text(rule.omega, 10)}"
        yield f"rule: family={rule.family} q={_text(rule.q, 10)} base={rule.base}{omega}"
        sep = ", " if self.stacked else None  # a plain step's line shows no coefficients
        for i, (op, coeffs, terminal) in enumerate(_step_texts(self, sep), start=1):
            yield f"step {i}: {op} -> [{coeffs}] = {terminal}" if sep else f"step {i}: {op} -> {terminal}"
        yield f"terminal: {terminal}"
        yield f"verdict: {self.verdict.replace('_', ' ')}"

    def _json_chunks(self) -> Iterator[str]:
        """``json.dumps(self.as_json(), indent=2) + "\\n"`` a step at a time; checks the base first.

        Names, the verdict and digit text never need JSON escaping, so each chunk is
        formatted directly, in the indenting encoder's layout. As in ``_lines``, the
        ``"terminal"`` is the last step's value text, or |a|'s.
        """
        rule, terminal = self.rule, abs(self.a).render()
        omega = "null" if rule.omega is None else _text(rule.omega, 10)
        yield (
            f'{{\n  "rule": {{\n    "family": "{rule.family}",\n    "q": {_text(rule.q, 10)},\n'
            f'    "base": {rule.base},\n    "omega": {omega}\n  }},\n  "steps": ['
        )
        lead, close = "\n", "]"  # an empty list stays on one line
        for op, coeffs, terminal in _step_texts(self, ",\n        "):
            yield (
                f'{lead}    {{\n      "op": "{op}",\n      "coeffs": [\n        {coeffs}\n      ],\n'
                f'      "collapsed": "{terminal}"\n    }}'
            )
            lead, close = ",\n", "\n  ]"
        yield f'{close},\n  "terminal": "{terminal}",\n  "verdict": "{self.verdict}"\n}}\n'


# a step's input: |a| as its digit tuple (apply_once, a plain chain's first step) or as an int
_Magnitude = tuple[int, ...] | int


def _digits(x: _Magnitude, base: int) -> tuple[int, ...]:
    return _digits_of(x, base) if type(x) is int else x


def _split(x: _Magnitude, r: TestRule) -> int:
    """Split |a| = h * base**k + l and return alpha * h + beta * l, for the rule's (k, alpha, beta):
    trim's (1, 1, omega), Talmud's (2, 2, 1), or last digits' (k, 0, 1), which reads only the low k digits.
    """
    k, alpha, beta = r.split
    if not alpha:
        return beta * (x % r.base**k if type(x) is int else _int_of(x[:k], r.base))
    high, low = divmod(x if type(x) is int else _int_of(x, r.base), r.base**k)
    return alpha * high + beta * low


def _left_trim(d: tuple[int, ...], r: TestRule) -> int:
    """Left trim, |a| less q * top * base**(n - 2): (base - q) * top folded one digit down."""
    top = r.q * d[-1] * r.base ** (len(d) - 2) if len(d) > 1 else 0
    return _int_of(d, r.base) - top


def _digit_sum(x: _Magnitude, r: TestRule) -> int:
    """A sum or binomial step: the ``_split_fold`` of |a|'s digits, their weighted digit sum
    (sum's omega**j from the top digit down, binomial's (base - q)**j from the last digit up)."""
    return _split_fold(_digits(x, r.base), r)


_Derived = tuple[int | None, int | None, tuple[int, int, int]]


def _derive_trim(q: int, base: int) -> _Derived:
    omega = weight_inverse(q, base)
    return omega, None, (1, 1, omega)


def _derive_binomial(q: int, base: int) -> _Derived:
    if q < 2:
        raise ValueError(f"binomial weights base - q need q >= 2, got {_shown(q)}")
    return None, None, (1, base - q, 1)


def _derive_last_digits(q: int, base: int) -> _Derived:
    k, power = 0, 1 % q  # power = base**k mod q
    # if every prime of q divides the base, k never exceeds log2(q)
    while power and k <= q.bit_length():
        k += 1
        power = power * base % q
    if power:
        raise ValueError(f"q={_shown(q)} divides no power of base {_shown(base)}; no last-digits test")
    return None, k, (k, 0, 1)


def _weight(rule: TestRule) -> int:
    """The weight ``_split_fold`` folds with: beta when k = alpha = 1, else alpha. A stacked chain folds
    its digits with it, and the cost table shows its magnitude."""
    k, alpha, beta = rule.split
    return beta if k == alpha == 1 else alpha


class Family(_Record):
    """What sets one test family apart; ``FAMILY_TABLE`` has one record each. A family whose chain can
    stack has an ``order``: at q = base - 1 both fold shapes apply, so the split cannot say it.
    The cost table reads a family's work off its ``step`` and split, so the record carries no cost."""

    __slots__ = _fields = ("derive", "step", "order", "chain_op", "always_stacked", "default_q")

    def __init__(
        self,
        derive: Callable[[int, int], _Derived],  # checks (q, base), returns (omega, k, split)
        step: Callable[[_Magnitude, TestRule], int],  # one application to |a|: digits, or a plain chain's int
        order: int | None = None,  # its stacked chain folds digits[::order] (low digit first), if it can stack
        chain_op: str | None = None,  # the op name of the stacked chain's trace steps, if its chain can stack
        always_stacked: bool = False,  # its chain runs stacked even without stacked=True
        default_q: int | None = None,  # the divisor the family is fixed at, if any
    ) -> None:
        object.__setattr__(self, "derive", derive)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "chain_op", chain_op)
        object.__setattr__(self, "always_stacked", always_stacked)
        object.__setattr__(self, "default_q", default_q)


FAMILY_TABLE = {
    TRIM: Family(_derive_trim, _split, order=1, chain_op="stack"),
    LEFT_TRIM: Family(_derive_binomial, _left_trim, order=-1, chain_op="left_trim", always_stacked=True),
    SUM: Family(_derive_trim, _digit_sum),
    BINOMIAL: Family(_derive_binomial, _digit_sum),
    TALMUD: Family(lambda q, base: (None, None, (2, 2, 1)), _split, default_q=7),
    LAST_DIGITS: Family(_derive_last_digits, _split),
}


def _check_operands(a: DigitString, rule: TestRule) -> None:
    if not isinstance(a, DigitString) or not isinstance(rule, TestRule):
        raise ValueError(f"expected a DigitString and a TestRule, got {_shown(a)} and {_shown(rule)}")
    if a.base != rule.base:
        raise ValueError(f"base mismatch: value in base {a.base}, rule in base {rule.base}")


def apply_once(a: DigitString, rule: TestRule) -> DigitString:
    """One application of the rule's reduction to |a|, as a canonical value."""
    _check_operands(a, rule)
    return DigitString.from_int(FAMILY_TABLE[rule.family].step(a.digits, rule), a.base)


# perfbench/ladder.py times one trim step under this name
trim = apply_once


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
    return m.bit_length() <= n * (base.bit_length() - 1) or m < base**n or m < _int_of(x, base)


def _steps(trace: Trace) -> Iterator[TraceStep]:
    """Each of the trace's chain steps as a ``TraceStep``, from ``_plain_chain``'s ints or ``_folded``'s folds.

    A stacked chain's step i holds the fold of i + 1 digits in the last folded digit's
    slot, beside the digits not yet folded, so its last step is the 1-tuple of the fold.
    """
    a, rule, family = trace.a, trace.rule, FAMILY_TABLE[trace.rule.family]
    if not trace.stacked:
        for v in _plain_chain(a.digits, rule):
            ds = _digits_of(abs(v), rule.base)
            yield TraceStep(rule.family, v, ds if v >= 0 else tuple(-d for d in ds), rule.base)
        return
    d = a.digits[:: family.order]
    for folded, (acc, value) in enumerate(_folded(a, rule), 2):
        yield TraceStep(family.chain_op, value, ((acc,) + d[folded:])[:: family.order], rule.base)


def _step_texts(trace: Trace, sep: str | None) -> Iterator[tuple[str, str | None, str]]:
    """Each trace step's op, its coefficients' decimal texts joined by sep, and its value's text.

    A plain step's value text comes from ``_plain_texts``, and its coefficients (None if
    sep is None) are read off that text in one loop: its digits, low first, each mapped
    to its decimal text above base 10, and negated with it. A stacked step's value
    comes from ``_folded``, converted once by ``digits._text`` and carried from the
    step before, with no fold per step; its coefficients are its fold beside the
    digits not yet folded, whose texts are joined once per trace.
    """
    a, rule, base = trace.a, trace.rule, trace.a.base
    if not trace.stacked:
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
    texts = [str(d) for d in a.digits]
    ends = list(accumulate((len(t) + len(sep) for t in texts), initial=0))
    family = FAMILY_TABLE[rule.family]
    steps = enumerate(_folded(a, rule), start=2)
    if family.order == 1:  # the fold of the low digits, then the digits not yet folded
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

    A trim step (``_split`` with (k, alpha, beta) = (1, 1, omega)) drops the last digit d_0
    of x and adds omega * d_0 at the low end. The chain takes its first ``_carried_steps``
    steps as they are, as ``_values`` proves: each is positive, at least base**2 and
    shrinking, so a carry past the top digit is one digit. They run on a buffer of x's
    digits, most significant first, carrying or borrowing only as far as it runs, and
    each text is one ``translate``. The chain steps on from the buffer's number (in every
    other family, from |a|) with ``_plain_chain``, each value converted once by ``digits._text``.
    """
    base, (k, alpha, beta) = rule.base, rule.split
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
        x = _int_of(buf[::-1], base)
    yield from (_text(v, base) for v in _plain_chain(x, rule))


def _values(a: DigitString, rule: TestRule) -> tuple[int, Iterator[int]]:
    """How many steps of the chain ``iterate(a, rule)`` runs are taken at once, and each later step's
    value; checks the operands first. A ``_split`` chain provably takes its first ``_carried_steps``
    steps exactly, without abs or a stop, each shrinking, so shorter than |a|: they are taken at once,
    in one pass over the digit groups of |a| = _int_of(d, base), and ``_plain_chain`` steps on from there.

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
    _check_operands(a, rule)
    if FAMILY_TABLE[rule.family].always_stacked:
        return 0, (value for _, value in _folded(a, rule))
    d = a.digits
    if not (steps := _carried_steps(len(d), rule)):
        return 0, _plain_chain(d, rule)
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
    return steps, _plain_chain(s + scale * big * _int_of(d[k * (steps + 1) :], base), rule)


def _folded(a: DigitString, rule: TestRule) -> Iterator[tuple[int, int]]:
    """Each stacked step's fold, acc * weight + the next of a.digits[::order], and its value, carried step to step.

    Trim folds from the last digit up with omega, ending at the sum test:
    v' = (v - acc) / base + weight * acc, the slot of acc dropped and its fold moved
    into the next. Left trim folds from the top digit down with base - q, ending at
    the binomial test: folding in the digit below acc moves the value by
    (weight - base) * acc * base**r, where r digits are still unfolded.
    """
    base, d, order, weight = a.base, a.digits, FAMILY_TABLE[rule.family].order, _weight(rule)
    value, power = _int_of(d, base), base ** (len(d) - 1)
    digits = iter(d[::order])
    acc = next(digits)
    for digit in digits:
        if order == 1:
            value = (value - acc) // base + weight * acc
        else:
            power //= base
            value += (weight - base) * acc * power
        acc = acc * weight + digit
        yield acc, value


def _split_fold(d: tuple[int, ...], rule: TestRule, q: int | None = None) -> int:
    """The split chain run on stacked base-B groups D_i of |a| (B = base**k) to one coefficient,
    F(a) = sum(alpha**i * beta**(N - 1 - i) * D_i): beta**(N - 1) * |a| (mod q), for alpha = beta * B.
    With q, F(a) mod q; either is one ``_residue`` pass over d itself, which mod q builds no F(a).

    Trim and sum (k = alpha = 1) are Horner from the top digit with beta, Khare's sum: digit p from the
    top weighs beta**p. With beta = 1, digit p from the last weighs base**(p % k) * alpha**(p // k), and
    F(a) is sum(base**j * fold(d[j::k], alpha)): binomial's and left trim's fold(d, base - q). Last digits
    (alpha = 0) is its first group alone, fold(d[:k], base), as binomial is at q = base. ``TestRule``
    admits no other shape.
    """
    base, (k, alpha, _) = rule.base, rule.split
    if not alpha:
        return fold(d[:k], base, 1, q)
    return _residue(d, -1 if k == alpha == 1 else 1, q, _weight(rule), base, k)


def _carried_steps(n: int, rule: TestRule) -> int:
    """How many steps ``_values`` proves a ``_split`` chain takes exactly on an |a| of n digits; none
    in a family that steps otherwise, as sum's (1, 1, omega) is trim's split but not its chain.

    The bound is not tight: ``least`` one lower gives the same keep for every rule. That keep
    differs only if some B**m = least - 1, that is B**m - B = 2 * |beta| + 1, and B**m - B is even.
    Widening the guard alpha <= B / 2 to alpha <= B changes no count: no ``_split`` family has B / 2 < alpha.
    """
    base, (k, alpha, beta) = rule.base, rule.split
    big = base**k
    if FAMILY_TABLE[rule.family].step is not _split or not 0 < alpha <= big // 2:
        return 0
    keep, power, least = 1, 1, 2 * (abs(beta) + 1) + big
    while power < least:  # power = B**(keep - 1)
        keep, power = keep + 1, power * big
    return max(-(-n // k) - 1 - keep, 0)


def iterate(a: DigitString, rule: TestRule, *, stacked: bool = False) -> Trace:
    """The ``Trace`` of the rule's chain on a, ``Trace(rule, a, stacked)``, which decides its verdict when built.

    ``stacked=True`` (trim only) runs the stacked chain, as left trimming always does; the verdict
    does not read it. A chain runs, the terminal is converted and the steps are built only when
    they are read, so reading a stacked or left-trim terminal folds |a| once more.
    """
    return Trace(rule, a, stacked)


def divides_via(a: DigitString, rule: TestRule) -> bool:
    """Decide q | a, as a ``Trace`` does when built: F(a) mod q from one pass over |a|'s digits, read off each
    digit's recurring weight (``_split_fold`` with q: one ``_residue`` of a.digits itself, or last digits'
    low k), skipping digits of weight 0, running no chain, building no big number, converting none."""
    _check_operands(a, rule)
    return _split_fold(a.digits, rule, rule.q) == 0
