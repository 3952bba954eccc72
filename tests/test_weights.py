import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trimsum.weights import weight_inverse, weight_rounding, weight_table

COPRIME_Q = [q for q in range(1, 10_000) if q % 2 and q % 5]


@pytest.mark.parametrize(
    "q,omega",
    [(7, -2), (9, 1), (11, -1), (13, 4), (17, -5), (21, -2), (39, 4), (79, 8), (181, -18)],
)
def test_table_known_values(q, omega):
    assert weight_table(q) == omega


@pytest.mark.parametrize("q", [0, -3, 2, 4, 10, 15, 25])
def test_table_rejects_inadmissible_divisors(q):
    with pytest.raises(ValueError):
        weight_table(q)
    with pytest.raises(ValueError):
        weight_rounding(q)


def test_rounding_examples():
    assert weight_rounding(79) == 8
    assert weight_rounding(17) == -5  # tripled to 51, 5.1 rounds down
    assert weight_rounding(23) == 7  # 10 * 7 = 70 = 3 * 23 + 1


def test_inverse_examples():
    assert weight_inverse(7, 10) == -2
    assert weight_inverse(3, 2) == -1  # 2 * -1 = 1 (mod 3): alternating bit sum
    assert weight_inverse(1, 10) == 0
    assert weight_inverse(5, 7) == -2  # 7 * -2 = -14 = 1 (mod 5)


def test_inverse_rejects_bad_input():
    with pytest.raises(ValueError):
        weight_inverse(8, 10)
    with pytest.raises(ValueError):
        weight_inverse(15, 10)
    with pytest.raises(ValueError):
        weight_inverse(0, 10)
    with pytest.raises(ValueError):
        weight_inverse(7, 1)


@pytest.mark.parametrize(
    "derive,args",
    [
        (weight_table, (7.0,)),  # returned -2.0
        (weight_rounding, (7.0,)),  # returned -2.0
        (weight_table, (True,)),  # returned 0
        (weight_rounding, (True,)),
        (weight_table, ("7",)),
        (weight_inverse, (7.0,)),  # raised TypeError
        (weight_inverse, ("7",)),  # raised TypeError
        (weight_inverse, (None,)),  # raised TypeError
        (weight_inverse, (True,)),
        (weight_inverse, (7, 10.0)),
        (weight_inverse, (7, True)),
    ],
)
def test_weights_take_only_int_arguments(derive, args):
    with pytest.raises(ValueError, match="must be"):
        derive(*args)


class Int(int):
    pass


@pytest.mark.parametrize(
    "args,message",
    [
        ((Int(7),), "q must be an integer, got Int 7"),  # was "q and base must be ints, got 7 and 10"
        ((7, Int(10)), "base must be an integer, got Int 10"),
        ((7, True), "base must be an integer, got bool True"),
    ],
)
def test_weight_inverse_names_the_bad_argument_and_its_type(args, message):
    with pytest.raises(ValueError) as error:
        weight_inverse(*args)
    assert str(error.value) == message


def test_three_methods_agree_below_ten_thousand():
    for q in COPRIME_Q:
        t = weight_table(q)
        assert t == weight_rounding(q) == weight_inverse(q, 10), q


def test_defining_congruence_base_ten():
    for q in COPRIME_Q:
        assert 10 * weight_table(q) % q == 1 % q


@pytest.mark.parametrize("base", [2, 3, 7, 16])
def test_defining_congruence_and_residue_bound_other_bases(base):
    for q in range(1, 1000):
        if math.gcd(q, base) != 1:
            continue
        omega = weight_inverse(q, base)
        assert base * omega % q == 1 % q
        assert -q / 2 < omega <= q / 2


def test_tripling_leaves_weight_unchanged():
    for q in COPRIME_Q:
        if q % 10 in (3, 7):
            assert weight_table(q) == weight_table(3 * q)


def test_table_magnitude_bound():
    # |omega| never exceeds ceil(3q/10): the divisor scales down by 10 or 10/3
    for q in COPRIME_Q:
        assert abs(weight_table(q)) <= -(-3 * q // 10)


@given(q=st.integers(min_value=1, max_value=10**6).filter(lambda q: q % 2 and q % 5))
def test_rounding_never_needs_a_tie_break(q):
    m = 3 * q if q % 10 in (3, 7) else q
    assert m % 10 in (1, 9)
    assert weight_rounding(q) == weight_table(q)
