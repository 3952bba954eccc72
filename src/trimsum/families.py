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

All families act on |a|. Divisibility does not depend on sign, and
intermediate results may themselves go negative (trimming 49 by sevens
gives -14); the driver renormalises to the magnitude before the next
step.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .digits import DigitString, StackedNumber, _canonical, collapse, lift
from .weights import Weight, weight_inverse

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
    the weight and k, so a rule that builds is a sound test.
    """

    family: str
    q: int
    base: int = 10
    weight: Weight | None = field(init=False)
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
        weight, k = FAMILY_TABLE[self.family].derive(self.q, self.base)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "k", k)

    @property
    def binomial_weight(self) -> int:
        return self.base - self.q

    @property
    def omega(self) -> int | None:
        return self.weight.omega if self.weight is not None else None

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

    A stacked or left-trim step stores a StackedNumber, a plain step a
    DigitString; ``stacked`` and ``collapsed`` derive the other form on request.
    """

    op: str
    number: StackedNumber | DigitString

    @property
    def stacked(self) -> StackedNumber:
        n = self.number
        return n if isinstance(n, StackedNumber) else lift(n)

    @property
    def collapsed(self) -> DigitString:
        n = self.number
        return collapse(n) if isinstance(n, StackedNumber) else n


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


def _expect(rule: TestRule, *families: str) -> None:
    if rule.family not in families:
        raise ValueError(f"rule family {rule.family!r} not usable here (need {' or '.join(families)})")


def _expect_base(base: int, rule: TestRule) -> None:
    if base != rule.base:
        raise ValueError(f"base mismatch: value in base {base}, rule in base {rule.base}")


def trim(a: DigitString, rule: TestRule) -> DigitString:
    """One right trim: everything but the last digit, plus omega times it."""
    _expect(rule, TRIM)
    _expect_base(a.base, rule)
    high, low = divmod(abs(a.value), a.base)
    return DigitString.from_int(high + rule.weight.omega * low, a.base)


def stack_trim(s: StackedNumber, rule: TestRule) -> StackedNumber:
    """Right trim on stacked coefficients: fold omega * coeffs[0] into coeffs[1].

    Higher coefficients are untouched, so iterating never propagates a
    carry; that is what keeps the chain's terminal equal to the weighted
    digit sum.
    """
    _expect(rule, TRIM)
    _expect_base(s.base, rule)
    w = rule.weight.omega
    c = s.coeffs
    if len(c) == 1:
        return StackedNumber(s.base, (w * c[0],))
    return StackedNumber(s.base, (c[1] + w * c[0],) + c[2:])


def left_trim(s: StackedNumber, rule: TestRule) -> StackedNumber:
    """Left trim: fold (base - q) * top coefficient into the next slot down."""
    _expect(rule, LEFT_TRIM)
    _expect_base(s.base, rule)
    if len(s.coeffs) < 2:
        raise ValueError("left trim needs at least two coefficients")
    c = s.coeffs
    return StackedNumber(s.base, c[:-2] + (c[-2] + rule.binomial_weight * c[-1],))


def sum_test(a: DigitString, rule: TestRule) -> DigitString:
    """Weighted digit sum with omega**j applied from the top digit down."""
    _expect(rule, SUM)
    _expect_base(a.base, rule)
    w = rule.weight.omega
    digits = abs(a).digits
    acc = digits[0]
    for d in digits[1:]:
        acc = d + w * acc
    return DigitString.from_int(acc, a.base)


def binomial_test(a: DigitString, rule: TestRule) -> DigitString:
    """Weighted digit sum with (base - q)**j applied from the last digit up."""
    _expect(rule, BINOMIAL)
    _expect_base(a.base, rule)
    w = rule.binomial_weight
    digits = abs(a).digits
    acc = digits[-1]
    for d in reversed(digits[:-1]):
        acc = d + w * acc
    return DigitString.from_int(acc, a.base)


def talmud(a: DigitString) -> DigitString:
    """Twice the hundreds part plus the last two digits (base 10, q = 7)."""
    if a.base != 10:
        raise ValueError("the Talmud test is a base-10 test")
    high, low = divmod(abs(a.value), 100)
    return DigitString.from_int(2 * high + low, 10)


def last_digits(a: DigitString, rule: TestRule) -> DigitString:
    """The low k digits of |a|; a test for q whenever q divides base**k."""
    _expect(rule, LAST_DIGITS)
    _expect_base(a.base, rule)
    return _canonical(1, a.base, list(a.digits[: rule.k]))


def _left_trim_once(a: DigitString, rule: TestRule) -> DigitString:
    s = lift(abs(a))
    # left trim of a single digit has nothing to trim; the empty chain is |a|
    return collapse(left_trim(s, rule)) if len(s.coeffs) > 1 else abs(a)


def _derive_inverse(q: int, base: int) -> tuple[Weight | None, int | None]:
    return weight_inverse(q, base), None


def _derive_binomial(q: int, base: int) -> tuple[Weight | None, int | None]:
    if q < 2:
        raise ValueError(f"binomial weights base - q need q >= 2, got {q}")
    return None, None


def _derive_talmud(q: int, base: int) -> tuple[Weight | None, int | None]:
    if (q, base) != (7, 10):
        raise ValueError(f"the Talmud test is fixed at q=7 in base 10, got q={q} base={base}")
    return None, None


def _derive_last_digits(q: int, base: int) -> tuple[Weight | None, int | None]:
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

    derive: Callable[[int, int], tuple[Weight | None, int | None]]  # checks (q, base), returns (weight, k)
    step: Callable[[DigitString, TestRule], DigitString]  # one application to a canonical value
    magnitude: Callable[[TestRule], int]  # the |weight| the cost table reports
    digit_ops: Callable[[list[int]], int]  # multiply-adds, from the input and step lengths
    chain: Callable[[StackedNumber, TestRule], StackedNumber] | None = None  # the stacked step
    chain_op: str | None = None  # the op name of the stacked chain's trace steps
    always_stacked: bool = False  # iterate runs the stacked chain even without stacked=True
    default_q: int | None = None  # the divisor the family is fixed at, if any


FAMILY_TABLE = {
    TRIM: Family(
        _derive_inverse, trim, lambda r: abs(r.omega), _per_step, chain=stack_trim, chain_op="stack"
    ),
    LEFT_TRIM: Family(
        _derive_binomial,
        _left_trim_once,
        lambda r: abs(r.binomial_weight),
        _per_step,
        chain=left_trim,
        chain_op="left_trim",
        always_stacked=True,
    ),
    SUM: Family(_derive_inverse, sum_test, lambda r: abs(r.omega), _per_digit),
    BINOMIAL: Family(_derive_binomial, binomial_test, lambda r: abs(r.binomial_weight), _per_digit),
    TALMUD: Family(_derive_talmud, lambda a, r: talmud(a), lambda r: 2, _per_step, default_q=7),
    LAST_DIGITS: Family(_derive_last_digits, last_digits, lambda r: 0, lambda lengths: 0),
}


def apply_once(a: DigitString, rule: TestRule) -> DigitString:
    """One application of the rule's reduction, as a canonical value."""
    return FAMILY_TABLE[rule.family].step(a, rule)


def iterate(a: DigitString, rule: TestRule, *, stacked: bool = False) -> Trace:
    """Drive a rule to a verdict, recording every step.

    Plain mode applies the rule to canonical values and stops once the
    magnitude falls below base**2 or a step fails to shrink it; the
    verdict is then the last value mod q. With ``stacked=True``
    (trim only) the chain instead runs on stacked coefficients for
    exactly length-1 steps, whose terminal single coefficient is the
    weighted digit sum. Left trimming always runs its stacked chain.
    """
    family = FAMILY_TABLE[rule.family]
    if family.chain is not None and (stacked or family.always_stacked):
        return _chain_stacked(a, rule, family.chain, family.chain_op)
    if stacked:
        chained = " and ".join(repr(name) for name, f in FAMILY_TABLE.items() if f.chain)
        raise ValueError(f"stacked iteration applies to {chained} rules only")
    return _iterate_plain(a, rule)


def _verdict(value: int, q: int) -> str:
    return DIVISIBLE if value % q == 0 else NOT_DIVISIBLE


def _chain_stacked(a: DigitString, rule: TestRule, step_fn, op: str) -> Trace:
    s = lift(abs(a))
    steps = []
    while len(s.coeffs) > 1:
        s = step_fn(s, rule)
        steps.append(TraceStep(op, s))
    return Trace(rule, tuple(steps), collapse(s), _verdict(s.value, rule.q))


def _iterate_plain(a: DigitString, rule: TestRule) -> Trace:
    current = abs(a)
    value = current.value
    bound = rule.base * rule.base
    steps = []
    while value >= bound:
        out = apply_once(current, rule)
        steps.append(TraceStep(rule.family, out))
        previous, current, value = value, abs(out), abs(out.value)
        if value >= previous:
            break
    terminal = steps[-1].collapsed if steps else current
    return Trace(rule, tuple(steps), terminal, _verdict(value, rule.q))


def divides_via(a: DigitString, rule: TestRule) -> bool:
    """Decide q | a by iterating the rule."""
    return iterate(a, rule).verdict == DIVISIBLE
