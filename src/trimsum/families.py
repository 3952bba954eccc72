"""The divisibility-test families and their iteration driver.

Families: right trimming (weight on the last digit), left trimming
(weight base - q on the top digit, always run on stacked coefficients),
weighted summing, binomial summing, the historical base-10 test for 7,
and last-digits tests for divisors of a power of the base.

Two conventions are easy to transpose and are fixed here once:

* summing weights w**j attach from the MOST significant digit down
  (j = 0 on the top digit);
* binomial weights (base - q)**j attach from the LEAST significant digit
  up (j = 0 on the last digit), with (base - q)**0 = 1 even when
  base == q.

Each family is one integer formula in its ``FAMILY_TABLE`` record, read
off the digits of |a| with ``digits.fold``. Divisibility does not depend
on sign, and intermediate results may themselves go negative (trimming
49 by sevens gives -14); a DigitString's digits are those of its
magnitude, so the next step reads |value|. Only ``apply_once`` and
``iterate`` turn the formulas' integers back into digits; a stacked chain
keeps bare coefficient tuples and collapses only its terminal.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .digits import DigitString, StackedNumber, collapse, fold, lift
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

    The family's record in ``FAMILY_TABLE`` checks (q, base) and derives
    the weight omega and k, so a rule that builds is a sound test.
    """

    family: str
    q: int
    base: int = 10
    omega: int | None = field(init=False)
    k: int | None = field(init=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILY_TABLE:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("q", "base"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.q < 1:
            raise ValueError(f"divisor must be >= 1, got {self.q}")
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        omega, k = FAMILY_TABLE[self.family].derive(self.q, self.base)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "k", k)

    @property
    def binomial_weight(self) -> int:
        return self.base - self.q

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
    """One chain step: only the number it built, in the form it built it.

    A stacked or left-trim step stores its coefficient tuple, a plain step its
    DigitString; ``stacked`` and ``collapsed`` build the other form on request.
    """

    op: str
    number: tuple[int, ...] | DigitString
    base: int

    @property
    def stacked(self) -> StackedNumber:
        n = self.number
        return lift(n) if isinstance(n, DigitString) else StackedNumber(self.base, n)

    @property
    def collapsed(self) -> DigitString:
        n = self.number
        return n if isinstance(n, DigitString) else collapse(self.stacked)


@dataclass(frozen=True)
class Trace:
    rule: TestRule
    steps: tuple[TraceStep, ...]
    terminal: DigitString
    verdict: str

    def as_json(self) -> dict:
        return {
            "rule": self.rule.as_json(),
            "steps": [
                {"op": s.op, "coeffs": list(s.stacked.coeffs), "collapsed": s.collapsed.render()}
                for s in self.steps
            ],
            "terminal": self.terminal.render(),
            "verdict": self.verdict,
        }


def _trim(d: tuple[int, ...], r: TestRule) -> int:
    """Right trim: everything but the last digit, plus omega times it."""
    return fold(d[1:], r.base) + r.omega * d[0]


def _stack_trim(c: tuple[int, ...], r: TestRule) -> tuple[int, ...]:
    """Right trim on stacked coefficients: fold omega * c[0] into c[1].

    Higher coefficients are untouched, so iterating never propagates a
    carry; that is what keeps the chain's terminal equal to the weighted
    digit sum.
    """
    return (c[1] + r.omega * c[0],) + c[2:]


def _left_trim_chain(c: tuple[int, ...], r: TestRule) -> tuple[int, ...]:
    """Left trim: fold (base - q) * top coefficient into the next slot down."""
    return c[:-2] + (c[-2] + r.binomial_weight * c[-1],)


def _left_trim(d: tuple[int, ...], r: TestRule) -> int:
    # left trim of a single digit has nothing to trim; the empty chain is |a|
    return fold(_left_trim_chain(d, r), r.base) if len(d) > 1 else d[0]


def _sum(d: tuple[int, ...], r: TestRule) -> int:
    """Weighted digit sum with omega**j applied from the top digit down."""
    return fold(d[::-1], r.omega)


def _binomial(d: tuple[int, ...], r: TestRule) -> int:
    """Weighted digit sum with (base - q)**j applied from the last digit up."""
    return fold(d, r.binomial_weight)


def _talmud(d: tuple[int, ...], r: TestRule) -> int:
    """Twice the hundreds part plus the last two digits (base 10, q = 7)."""
    return 2 * fold(d[2:], 10) + fold(d[:2], 10)


def _last_digits(d: tuple[int, ...], r: TestRule) -> int:
    """The low k digits; a test for q whenever q divides base**k."""
    return fold(d[: r.k], r.base)


def _derive_inverse(q: int, base: int) -> tuple[int | None, int | None]:
    return weight_inverse(q, base).omega, None


def _derive_binomial(q: int, base: int) -> tuple[int | None, int | None]:
    if q < 2:
        raise ValueError(f"binomial weights base - q need q >= 2, got {q}")
    return None, None


def _derive_talmud(q: int, base: int) -> tuple[int | None, int | None]:
    if (q, base) != (7, 10):
        raise ValueError(f"the Talmud test is fixed at q=7 in base 10, got q={q} base={base}")
    return None, None


def _derive_last_digits(q: int, base: int) -> tuple[int | None, int | None]:
    k, power = 0, 1
    # if every prime of q divides the base, k never exceeds log2(q)
    while power % q and k <= q.bit_length():
        k += 1
        power *= base
    if power % q:
        raise ValueError(f"q={q} divides no power of base {base}; no last-digits test")
    return None, k


def _per_step(lengths: list[int]) -> int:
    return len(lengths) - 1


def _per_digit(lengths: list[int]) -> int:
    # one multiply-add per digit position beyond the first, per application
    return sum(n - 1 for n in lengths[:-1])


@dataclass(frozen=True)
class Family:
    """What sets one test family apart; ``FAMILY_TABLE`` has one record each."""

    derive: Callable[[int, int], tuple[int | None, int | None]]  # checks (q, base), returns (omega, k)
    step: Callable[[tuple[int, ...], TestRule], int]  # one application, from the digits of |a|
    magnitude: Callable[[TestRule], int]  # the |weight| the cost table reports
    digit_ops: Callable[[list[int]], int]  # multiply-adds, from the input and step lengths
    chain: Callable[[tuple[int, ...], TestRule], tuple[int, ...]] | None = None  # the stacked step
    chain_op: str | None = None  # the op name of the stacked chain's trace steps
    always_stacked: bool = False  # iterate runs the stacked chain even without stacked=True
    default_q: int | None = None  # the divisor the family is fixed at, if any


FAMILY_TABLE = {
    TRIM: Family(
        _derive_inverse, _trim, lambda r: abs(r.omega), _per_step, chain=_stack_trim, chain_op="stack"
    ),
    LEFT_TRIM: Family(
        _derive_binomial,
        _left_trim,
        lambda r: abs(r.binomial_weight),
        _per_step,
        chain=_left_trim_chain,
        chain_op="left_trim",
        always_stacked=True,
    ),
    SUM: Family(_derive_inverse, _sum, lambda r: abs(r.omega), _per_digit),
    BINOMIAL: Family(_derive_binomial, _binomial, lambda r: abs(r.binomial_weight), _per_digit),
    TALMUD: Family(_derive_talmud, _talmud, lambda r: 2, _per_step, default_q=7),
    LAST_DIGITS: Family(_derive_last_digits, _last_digits, lambda r: 0, lambda lengths: 0),
}


def apply_once(a: DigitString, rule: TestRule) -> DigitString:
    """One application of the rule's reduction to |a|, as a canonical value."""
    if a.base != rule.base:
        raise ValueError(f"base mismatch: value in base {a.base}, rule in base {rule.base}")
    return DigitString.from_int(FAMILY_TABLE[rule.family].step(a.digits, rule), a.base)


# perfbench/ladder.py times one trim step under this name
trim = apply_once


def iterate(a: DigitString, rule: TestRule, *, stacked: bool = False) -> Trace:
    """Drive a rule to a verdict, recording every step.

    Plain mode applies the rule to canonical values and stops once the
    magnitude falls below base**2 or a step fails to shrink it; the
    verdict is then the last value mod q. With ``stacked=True``
    (trim only) the chain instead runs on stacked coefficients for
    exactly length-1 steps, whose terminal single coefficient is the
    weighted digit sum. Left trimming always runs its stacked chain.
    """
    if a.base != rule.base:
        raise ValueError(f"base mismatch: value in base {a.base}, rule in base {rule.base}")
    family = FAMILY_TABLE[rule.family]
    if family.chain is not None and (stacked or family.always_stacked):
        return _chain_stacked(a, rule, family.chain, family.chain_op)
    if stacked:
        chained = " and ".join(repr(name) for name, f in FAMILY_TABLE.items() if f.chain)
        raise ValueError(f"stacked iteration applies to {chained} rules only")
    return _iterate_plain(a, rule, family.step)


def _verdict(value: int, q: int) -> str:
    return DIVISIBLE if value % q == 0 else NOT_DIVISIBLE


def _chain_stacked(a: DigitString, rule: TestRule, chain, op: str) -> Trace:
    c = a.digits  # the digits of |a|, read as coefficients
    steps = []
    while len(c) > 1:
        c = chain(c, rule)
        steps.append(TraceStep(op, c, rule.base))
    return Trace(rule, tuple(steps), collapse(StackedNumber(rule.base, c)), _verdict(c[0], rule.q))


def _iterate_plain(a: DigitString, rule: TestRule, step) -> Trace:
    current = abs(a)
    steps = []
    while len(current.digits) > 2:  # |v| >= base**2
        d = current.digits
        current = DigitString.from_int(step(d, rule), rule.base)
        steps.append(TraceStep(rule.family, current, rule.base))
        e = current.digits  # canonical: a longer tuple is larger; ties compare from the top
        if len(e) > len(d) or len(e) == len(d) and e[::-1] >= d[::-1]:
            break
    return Trace(rule, tuple(steps), current, _verdict(current.value, rule.q))


def divides_via(a: DigitString, rule: TestRule) -> bool:
    """Decide q | a by iterating the rule."""
    return iterate(a, rule).verdict == DIVISIBLE
