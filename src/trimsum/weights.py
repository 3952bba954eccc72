"""Trimming weights: the signed multiplier applied to the last digit.

A weight w for divisor q in base b satisfies b*w = 1 (mod q). Three
derivations are provided: a four-case table keyed on the last digit of q
(base 10 only), a rounding rule that triples q when it ends in 3 or 7 and
then rounds q/10 to the nearest integer (base 10 only), and the least
absolute residue of the inverse of the base modulo q, which works in any
base coprime to q. Each derivation refuses a q or base that is not exactly
an int (``digits._check_int``: bool and int subclasses are refused too) and
returns the weight itself, an int.
All three produce the same integer wherever their domains overlap, and
the canonical method for the test families is ``inverse``.
"""

from __future__ import annotations

import math

from .digits import _check_int, _shown

TABLE = "table"
ROUNDING = "rounding"
INVERSE = "inverse"
METHODS = (TABLE, ROUNDING, INVERSE)


def _check_divisor(q: int, base: int = 10) -> None:
    """Refuse a q or base that is not exactly an int, then a q below 1 and a base below 2."""
    _check_int("q", q)
    _check_int("base", base)
    _check_int("divisor", q, 1)
    _check_int("base", base, 2)


def _check_base10_divisor(q: int) -> None:
    _check_divisor(q)
    if q % 2 == 0 or q % 5 == 0:
        raise ValueError(
            f"no base-10 trimming weight for q={_shown(q)}: last digit must be 1, 3, 7 or 9"
        )


def weight_table(q: int) -> int:
    """Base-10 weight from the four-case table.

    last digit of q:   1        3         7          9
    weight:           -q//10    3*q//10+1 -(3*q//10+2)  q//10+1
    """
    _check_base10_divisor(q)
    q0, qbar = q % 10, q // 10
    return {1: -qbar, 3: 3 * qbar + 1, 7: -(3 * qbar + 2), 9: qbar + 1}[q0]


def weight_rounding(q: int) -> int:
    """Base-10 weight by rounding.

    If q ends in 3 or 7, triple it so the last digit becomes 9 or 1. Then
    round q/10 to the nearest integer; the weight is negative when the
    rounding went down (last digit 1) and positive when it went up (9).
    """
    _check_base10_divisor(q)
    m = 3 * q if q % 10 in (3, 7) else q
    # last digit of m is 1 or 9, so m/10 never lands on a .5 tie
    if m % 10 == 1:
        return -(m // 10)
    return m // 10 + 1


def weight_inverse(q: int, base: int = 10) -> int:
    """Least absolute residue of the inverse of the base modulo q.

    The result is the unique integer in (-q/2, q/2] with base*omega = 1
    (mod q). Requires gcd(q, base) = 1.
    """
    _check_divisor(q, base)
    if math.gcd(q, base) != 1:
        raise ValueError(f"q={_shown(q)} and base={_shown(base)} share a factor; no trimming weight exists")
    inv = pow(base, -1, q)
    return inv - q if 2 * inv > q else inv
