"""Differential tests of the unit fast paths and of the leg-pair pairing.

``RationalFunction.v_power`` hands out ``RF_ONE`` itself for v^0 with
coefficient one, and a product with ``RF_ONE`` as a factor is the other
factor itself.  ``word_pairing`` reads the two entries of each coproduct leg
pair directly, term pair by term pair.  Each path is compared with the one
it bypasses: the frozen Fraction kernel and ``fraction_v_power`` for the
scalars, and for the pairing the sum over the legs of ``coproduct_word`` of
``coeff_eval`` products.
"""

import itertools
import random
from fractions import Fraction

import pytest

import fraction_kernel as ref
from qgroups.coeff import CoeffElement, coeff_eval, word_pairing
from qgroups.scalar import (
    LaurentPoly,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    gauss_binomial,
    q_integer,
    rf_to_text,
)
from qgroups.uqrep import AlgebraWord
from retired_helpers import coproduct_word, fraction_v_power


def v(n, c=1):
    return RationalFunction.v_power(n, c)


# equal to one, but built another way: not the shared RF_ONE
ONE_ALIASES = [v(2) * v(-2), q_integer(3) / q_integer(3), RationalFunction(LaurentPoly.const(1))]

OPERANDS = [
    RF_ZERO,
    RF_ONE,
    v(3),
    v(-2, Fraction(-5, 3)),
    q_integer(3),
    q_integer(2, 2) / q_integer(5),
    gauss_binomial(4, 2) / v(1, 7),
    (q_integer(2) + RF_ONE) / (q_integer(3) - v(4)),
] + ONE_ALIASES


def to_ref(x):
    return ref.RationalFunction(ref.LaurentPoly(x.num.terms), ref.LaurentPoly(x.den.terms))


def test_one_aliases_equal_one_but_are_not_rf_one():
    for one in ONE_ALIASES:
        assert one is not RF_ONE
        assert one == RF_ONE and one.is_one()


@pytest.mark.parametrize("x", OPERANDS, ids=rf_to_text)
def test_product_with_rf_one_is_the_other_factor(x):
    assert RF_ONE * x is x
    assert x * RF_ONE is x
    ref_one = ref.RationalFunction(ref.LaurentPoly({0: 1}))
    want = ref.rf_to_text(to_ref(x) * ref_one)
    for one in ONE_ALIASES:
        # the general path, through a factor that equals one
        assert rf_to_text(one * x) == rf_to_text(x * one) == rf_to_text(x) == want
    for y in OPERANDS:
        assert rf_to_text(x * y) == ref.rf_to_text(to_ref(x) * to_ref(y))


def test_unit_is_rf_one():
    for e in range(-6, 7):
        assert v(e) == v(e, Fraction(1)) == fraction_v_power(e)
        assert rf_to_text(v(e)) == rf_to_text(fraction_v_power(e))
    assert v(0) is RF_ONE and v(0, Fraction(1)) is RF_ONE
    assert RationalFunction.const(1) is RF_ONE
    assert RationalFunction.const(Fraction(2, 2)) is RF_ONE


@pytest.mark.parametrize("c", [0, -1, 2, Fraction(3, 2), Fraction(-1, 3), 7])
def test_other_coefficients_take_the_fraction_path(c):
    for e in range(-3, 4):
        got = v(e, c)
        want = fraction_v_power(e, c)
        assert got == want and rf_to_text(got) == rf_to_text(want)
        assert got is not v(e, c)
    assert v(5, 0) == RF_ZERO


def a1_words(length):
    gens = [(kind, 1) for kind in "efkK"]
    return [w for n in range(length + 1) for w in itertools.product(gens, repeat=n)]


def a2_words(length):
    gens = [(kind, i) for i in (1, 2) for kind in "efkK"]
    return [w for n in range(length + 1) for w in itertools.product(gens, repeat=n)]


COEFFS = [RF_ONE, q_integer(2), v(-1, Fraction(3, 2)), q_integer(3) / v(2, -2)]

# algebra, weights, words of length <= 3
CASES = [("a1", [(1,), (2,)], a1_words(3)), ("a2", [(1, 0), (0, 1)], a2_words(3))]


def legs_pairing(alg, a, b, x):
    """<a (x) b, Delta x> summed over the legs of ``coproduct_word``."""
    total = RF_ZERO
    for (w1, w2), c in coproduct_word(alg.cd, x).items():
        total = total + c * coeff_eval(alg, a, w1) * coeff_eval(alg, b, w2)
    return total


@pytest.mark.parametrize("name, weights, words", CASES, ids=["A1", "A2"])
def test_word_pairing_matches_the_legs_sum(name, weights, words, request):
    alg = request.getfixturevalue(name)
    rng = random.Random(5)
    nonzero = 0
    for lam, mu in itertools.product(weights, repeat=2):
        dl, dm = alg.irrep(lam).dim, alg.irrep(mu).dim
        indices = list(itertools.product(range(1, dl + 1), range(1, dl + 1),
                                         range(1, dm + 1), range(1, dm + 1)))
        for (i, j, r, s), (ca, cb, cx) in zip(rng.sample(indices, 3),
                                              [COEFFS[:3], COEFFS[1:], (RF_ONE,) * 3]):
            a = CoeffElement.basis(lam, i, j, ca)
            b = CoeffElement.basis(mu, r, s, cb)
            for word in words:
                x = AlgebraWord({word: cx})
                got = word_pairing(alg, a, b, x)
                assert got == legs_pairing(alg, a, b, x), (lam, i, j, mu, r, s, word)
                nonzero += bool(got)
            # several words at once, each with its own coefficient
            x = AlgebraWord({w: COEFFS[k % 4] for k, w in enumerate(words[::7])})
            assert word_pairing(alg, a, b, x) == legs_pairing(alg, a, b, x)
    assert nonzero > 0
    # multi-term elements: the pairing is bilinear, term pair by term pair
    lam, mu = weights
    a = CoeffElement({(lam, 1, 1): COEFFS[1], (lam, 2, 1): COEFFS[3]})
    b = CoeffElement.basis(mu, 1, 2, COEFFS[2])
    b2 = CoeffElement({(mu, 1, 2): COEFFS[2], (mu, 2, 2): RF_ONE, (mu, 1, 1): COEFFS[3]})
    for word in words[:40]:
        x = AlgebraWord({word: COEFFS[1]})
        assert word_pairing(alg, a, b, x) == legs_pairing(alg, a, b, x)
        assert word_pairing(alg, a, b2, x) == legs_pairing(alg, a, b2, x)
        assert word_pairing(alg, b2, a, x) == legs_pairing(alg, b2, a, x)
