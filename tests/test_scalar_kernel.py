"""Differential tests of the integer Q(v) kernel.

The references are the frozen Fraction kernel it replaced
(``fraction_kernel.py``), sympy's ``cancel`` when sympy is installed, and the
primitive PRS that backs the heuristic gcd.  Results are compared through the
canonical text form, so the normal form is checked along with the value.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_kernel as ref
from qgroups import scalar
from qgroups.scalar import LaurentPoly, RationalFunction, rf_from_text, rf_to_text

coeffs = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))
sparse = st.dictionaries(st.integers(-6, 6), coeffs, max_size=5)
nonzero = sparse.filter(lambda t: any(t.values()))
# factors with many common divisors among themselves, like the quantum
# integers and Gram values the modules produce
FACTORS = [{0: 1, 1: 1}, {0: 1, 2: 1}, {0: 1, 1: 1, 2: 1}, {0: -1, 3: 1},
           {0: 1, 4: 1}, {0: 3, 1: -2}, {0: 1, 2: -1, 4: 1}, {0: 2, 1: 5, 2: 2}]
products = st.lists(st.sampled_from(FACTORS), max_size=4)


def ref_poly(terms, factors=()):
    p = ref.LaurentPoly(terms)
    for f in factors:
        p = p * ref.LaurentPoly(f)
    return p


@st.composite
def quotients(draw, shared):
    """A numerator/denominator pair in the reference kernel, built over the
    given shared factor lists so that gcds and cross gcds are nontrivial."""
    num = ref_poly(draw(sparse), shared[0] + draw(products))
    den = ref_poly(draw(nonzero), shared[1] + draw(products))
    return num, den


@st.composite
def operand_pairs(draw):
    p, q = draw(products), draw(products)
    a = draw(quotients((p, q)))
    b = draw(quotients((q, p)))
    return a, b


def both(pair):
    num, den = pair
    return (RationalFunction(LaurentPoly(num.terms), LaurentPoly(den.terms)),
            ref.RationalFunction(num, den))


def same(new, old):
    assert rf_to_text(new) == ref.rf_to_text(old)


@given(operand_pairs())
@settings(max_examples=300, deadline=None)
def test_field_operations_match_fraction_kernel(pairs):
    (a, ra), (b, rb) = both(pairs[0]), both(pairs[1])
    same(a, ra)
    same(b, rb)
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(a * b, ra * rb)
    same(-a, -ra)
    same(a.bar(), ra.bar())
    if not a.is_zero():
        same(a.inv(), ra.inv())
        same(b / a, rb / ra)
    assert (a == b) == (ra == rb)
    assert (a - a).is_zero() and a + (-a) == scalar.RF_ZERO


def test_views_keep_the_classical_normal_form():
    f = RationalFunction(LaurentPoly({3: 2, 1: 4}), LaurentPoly({2: 6, 1: 2}))
    assert f.den.terms == {0: Fraction(1, 3), 1: 1}
    assert f.num.terms == {0: Fraction(2, 3), 2: Fraction(1, 3)}
    assert str(f) == "(2/3 + 1/3*v^2) / (1/3 + v)"


def sympy_poly(sp, v, p, k=0):
    """p * v^k as a sympy Poly over QQ."""
    terms = {(e + k,): sp.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sp.Poly.from_dict(terms, v, domain="QQ")


def sympy_pair(sp, v, num, den):
    k = max(0, -min(list(num.terms) + list(den.terms)))
    return sympy_poly(sp, v, num, k), sympy_poly(sp, v, den, k)


@given(operand_pairs())
@settings(max_examples=100, deadline=None)
def test_sum_and_product_against_sympy_cancel(pairs):
    sp = pytest.importorskip("sympy")
    v = sp.Symbol("v")
    (a, _), (b, _) = both(pairs[0]), both(pairs[1])
    (p1, q1), (p2, q2) = (sympy_pair(sp, v, num, den) for num, den in pairs)
    for got, num, den in ((a + b, p1 * q2 + p2 * q1, q1 * q2), (a * b, p1 * p2, q1 * q2)):
        c, p, q = num.cancel(den)
        # the classical form keeps v^-k in the numerator; sympy's puts v^k below
        k = max(0, -min(got.num.terms, default=0))
        assert sympy_poly(sp, v, got.num, k) == p.mul_ground(c / q.LC())
        assert sympy_poly(sp, v, got.den, k) == q.monic()


def random_poly(rng, degree, bits):
    """Coefficients, constant term first, with nonzero ends."""
    out = [rng.randint(-(1 << bits), 1 << bits) for _ in range(degree)]
    out.append(rng.randint(1, 1 << bits))
    out[0] = out[0] or 1
    return out


def primitive(a):
    return scalar._primitive(a)[1]


def test_prs_fallback_agrees_with_heuristic_gcd():
    rng = random.Random(7)
    for _ in range(60):
        g = primitive(random_poly(rng, rng.randint(0, 12), rng.choice((2, 20, 90))))
        a = primitive(scalar._pmul(g, random_poly(rng, rng.randint(0, 15), 8)))
        b = primitive(scalar._pmul(g, random_poly(rng, rng.randint(0, 15), 70)))
        heu = scalar._dense_gcd(a, b)
        assert scalar._prs_gcd(a, b) == heu
        assert scalar._pmul(heu[0], heu[1]) == a and scalar._pmul(heu[0], heu[2]) == b


def test_heuristic_gcd_falls_back_to_prs(monkeypatch):
    a = scalar._pmul((1, 1), (3, 0, 1))
    b = scalar._pmul((1, 1), (-2, 5))
    monkeypatch.setattr(scalar, "_HEU_TRIES", 0)
    assert scalar._dense_gcd(a, b) == ((1, 1), (3, 0, 1), (-2, 5))


def test_heuristic_gcd_at_a_root_of_one_operand():
    # k = 4 here, and 2^4 is a root of v - 16: no cofactor is read off a zero value
    assert scalar._dense_gcd((-16, 1), (1, 1, 1)) == ((1,), (-16, 1), (1, 1, 1))
    assert scalar._dense_gcd((-16, 1), (-16, -15, 1)) == ((-16, 1), (1,), (1, 1))
    f = RationalFunction(LaurentPoly({0: -16, 1: 1}), LaurentPoly({0: 1, 1: 1, 2: 1}))
    assert rf_to_text(f) == "-16*v^0 + 1*v^1 / 1*v^0 + 1*v^1 + 1*v^2"
    assert rf_from_text(rf_to_text(f)) == f


def test_poly_gcd_matches_fraction_kernel():
    rng = random.Random(11)
    polys = []
    for _ in range(40):
        terms = {rng.randint(-4, 6): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(rng.randint(0, 5))}
        polys.append(ref.LaurentPoly(terms))
    for a, b, c in zip(polys, polys[1:], polys[2:]):
        pa, pb = a * c, b * c
        got = scalar.poly_gcd(LaurentPoly(pa.terms), LaurentPoly(pb.terms))
        assert got.terms == ref.poly_gcd(pa, pb).terms


ADVERSARIAL = [
    # coefficients above 2^64
    ({0: (1 << 70) + 1, 3: -(1 << 65)}, {0: Fraction(3, 1 << 66), 1: 1}),
    # negative exponents only
    ({-7: Fraction(-5, 3), -2: 4}, {-4: 2, -1: Fraction(1, 9)}),
    # degree 100, sharing the factor 1 + v^50
    ({0: 1, 50: 2, 100: 1}, {0: -1, 100: 1}),
    # degree 100 with coefficients above 2^64
    ({i: Fraction((-1) ** i * (i + 1) ** 9, i + 2) for i in range(0, 101, 5)},
     {i: (1 << 64) + i for i in range(0, 104, 13)}),
]


@pytest.mark.parametrize("num,den", ADVERSARIAL)
def test_text_round_trip_on_adversarial_inputs(num, den):
    f = RationalFunction(LaurentPoly(num), LaurentPoly(den))
    g = f * RationalFunction(LaurentPoly(den)) / RationalFunction(LaurentPoly(num))
    for h in (f, f * f, f + f.bar(), g):
        text = rf_to_text(h)
        assert rf_from_text(text) == h
        assert rf_to_text(rf_from_text(text)) == text
    assert g == scalar.RF_ONE
    same(f, ref.RationalFunction(ref.LaurentPoly(num), ref.LaurentPoly(den)))


def clear_memos():
    scalar._GCD_MEMO.clear()
    scalar._PROD_MEMO.clear()


@given(operand_pairs())
@settings(max_examples=200, deadline=None)
def test_memoized_operations_match_fraction_kernel_cold_and_hot(pairs):
    # cold: every gcd and product is computed; hot: the same operands again,
    # now served from the memos
    clear_memos()
    for _ in ("cold", "hot"):
        (a, ra), (b, rb) = both(pairs[0]), both(pairs[1])
        same(a, ra)
        same(b, rb)
        same(a + b, ra + rb)
        same(a - b, ra - rb)
        same(a * b, ra * rb)
        if not a.is_zero():
            same(b / a, rb / ra)


def quotient_sums():
    total = scalar.RF_ZERO
    for n in range(1, 9):
        total = total + scalar.q_integer(n + 1) / scalar.q_integer(n) * total.bar()
        total = total + scalar.RF_ONE
    return rf_to_text(total)


def empty_scalar_memos(monkeypatch):
    for name in ("_GCD_MEMO", "_PROD_MEMO"):
        monkeypatch.setattr(scalar, name, scalar.Memo(getattr(scalar, name).make))


def test_scalar_memos_stop_at_their_bound(monkeypatch):
    empty_scalar_memos(monkeypatch)
    want = quotient_sums()
    assert len(scalar._GCD_MEMO) > 3 and len(scalar._PROD_MEMO) > 3
    monkeypatch.setattr(scalar, "MEMO_MAX", 3)
    empty_scalar_memos(monkeypatch)
    for _ in range(2):
        assert quotient_sums() == want
        assert len(scalar._GCD_MEMO) == 3 and len(scalar._PROD_MEMO) == 3


@st.composite
def monomials(draw):
    """A quotient of two one-term polynomials: the monomial ±c * v^s."""
    return (ref.LaurentPoly({draw(st.integers(-8, 8)): draw(coeffs.filter(bool))}),
            ref.LaurentPoly({draw(st.integers(-4, 4)): draw(coeffs.filter(bool))}))


@st.composite
def monomial_operand_pairs(draw):
    # each operand is a monomial in half of the draws, both in a quarter
    a, b = draw(operand_pairs())
    return (draw(monomials()) if draw(st.booleans()) else a,
            draw(monomials()) if draw(st.booleans()) else b)


@given(monomial_operand_pairs())
@settings(max_examples=300, deadline=None)
def test_monomial_products_match_fraction_kernel(pairs):
    (a, ra), (b, rb) = both(pairs[0]), both(pairs[1])
    same(a * b, ra * rb)
    same(b * a, rb * ra)


# --- stride deflation: polynomials in v^g ------------------------------------


def inflate(p, g):
    out = [0] * ((len(p) - 1) * g + 1)
    out[::g] = p
    return tuple(out)


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def strided_pairs():
    """(a, b) with a common factor: both in v^g for g in 1, 2, 3, 4, 8, one
    in v^4 and the other in v^8 or v^1, and one a v^4 polynomial with a single
    term off its stride."""
    rng = random.Random(5)
    pairs = []
    for ga, gb in [(1, 1), (2, 2), (3, 3), (4, 4), (8, 8), (4, 8), (8, 4), (4, 1), (1, 4)]:
        for _ in range(6):
            g = max(ga, gb)
            c = primitive(inflate(random_poly(rng, rng.randint(0, 4), 6), g))
            a = schoolbook(c, inflate(random_poly(rng, rng.randint(1, 5), 6), ga))
            b = schoolbook(c, inflate(random_poly(rng, rng.randint(1, 5), 40), gb))
            pairs.append((primitive(a), primitive(b)))
    for _ in range(6):
        a = list(inflate(random_poly(rng, rng.randint(2, 5), 6), 4))
        a[rng.choice([i for i in range(1, len(a) - 1) if i % 4])] = rng.randint(1, 9)
        pairs.append((primitive(a), primitive(inflate(random_poly(rng, 3, 6), 4))))
    return pairs


STRIDED = strided_pairs()


def test_stride_is_the_largest_common_power_of_two():
    for a, b in STRIDED:
        g = scalar._stride(a, b)
        assert g & (g - 1) == 0
        for p in (a, b):
            assert not any(p[i] for i in range(len(p)) if i % g)
        assert any(p[i] for p in (a, b) for i in range(len(p)) if i % (2 * g))
    assert {scalar._stride(a, b) for a, b in STRIDED} == {1, 2, 4, 8}


@pytest.mark.parametrize("a,b", STRIDED)
def test_deflated_product_matches_schoolbook(a, b):
    assert scalar._pmul(a, b) == schoolbook(a, b)
    assert scalar._pmul(list(b), a) == schoolbook(a, b)


@pytest.mark.parametrize("a,b", STRIDED)
def test_deflated_gcd_matches_undeflated_paths(a, b):
    got = scalar._dense_gcd(a, b)
    # the heuristic on the inflated operands, and the PRS
    assert got == scalar._heu_gcd(a, b) == scalar._prs_gcd(a, b)
    g, ca, cb = got
    assert schoolbook(g, ca) == a and schoolbook(g, cb) == b


def test_deflated_gcd_falls_back_to_prs(monkeypatch):
    want = [scalar._dense_gcd(a, b) for a, b in STRIDED]
    monkeypatch.setattr(scalar, "_HEU_TRIES", 0)
    assert [scalar._dense_gcd(a, b) for a, b in STRIDED] == want


def test_deflated_gcd_against_sympy():
    sp = pytest.importorskip("sympy")
    v = sp.Symbol("v")
    for a, b in STRIDED:
        want = sp.Poly(list(reversed(a)), v).gcd(sp.Poly(list(reversed(b)), v))
        if want.LC() < 0:
            want = -want
        g = scalar._dense_gcd(a, b)[0]
        assert [int(c) for c in reversed(want.all_coeffs())] == list(g)


def test_strided_rational_functions_cold_and_hot():
    # the same quotients through cleared memos, then served from them
    quotients = [RationalFunction(LaurentPoly(dict(enumerate(a))), LaurentPoly(dict(enumerate(b))))
                 for a, b in STRIDED]
    refs = [ref.RationalFunction(ref.LaurentPoly(dict(enumerate(a))),
                                 ref.LaurentPoly(dict(enumerate(b)))) for a, b in STRIDED]
    clear_memos()
    texts = []
    for _ in ("cold", "hot"):
        run = []
        for (x, rx), (y, ry) in zip(zip(quotients, refs), zip(quotients[1:], refs[1:])):
            for got, want in ((x + y, rx + ry), (x * y, rx * ry), (x / y, rx / ry)):
                same(got, want)
                run.append(rf_to_text(got))
        texts.append(run)
    assert texts[0] == texts[1]
