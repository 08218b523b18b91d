import itertools
import random
from fractions import Fraction

from qgroups.coeff import (
    CoeffAlgebra,
    CoeffElement,
    antipode,
    circ_action,
    coeff_eval,
    coproduct,
    dot_action,
    haar,
    haar_positivity,
    k2rho_word,
    product,
    schur_pair,
    star,
    word_pairing,
)
from qgroups.scalar import LaurentPoly, RF_ONE, RF_ZERO, RationalFunction
from qgroups.uqrep import (
    AlgebraWord,
    act_word,
    antipode_word,
    cartan_involution_word,
    gen_e,
    gen_f,
    gen_k,
    gen_kinv,
)


def v(n):
    return RationalFunction.v_power(n)


def words_a1():
    e, f = AlgebraWord.of_gen(gen_e(1)), AlgebraWord.of_gen(gen_f(1))
    k, kinv = AlgebraWord.of_gen(gen_k(1)), AlgebraWord.of_gen(gen_kinv(1))
    return e, f, k, kinv


def test_eval_examples(a1):
    e, f, k, _ = words_a1()
    t11 = CoeffElement.basis((1,), 1, 1)
    unit = a1.unit()
    assert coeff_eval(a1, t11, k) == v(1)
    assert coeff_eval(a1, unit, e) == RF_ZERO
    assert coeff_eval(a1, unit, k) == RF_ONE
    for i, j in itertools.product((1, 2), repeat=2):
        t = CoeffElement.basis((1,), i, j)
        assert coeff_eval(a1, t, AlgebraWord.unit()) == (RF_ONE if i == j else RF_ZERO)


def test_coproduct(a1):
    unit = a1.unit()
    assert coproduct(a1, unit).terms == {
        (((0,), 1, 1), ((0,), 1, 1)): RF_ONE}
    t11 = CoeffElement.basis((1,), 1, 1)
    assert coproduct(a1, t11).terms == {
        (((1,), 1, 1), ((1,), 1, 1)): RF_ONE,
        (((1,), 1, 2), ((1,), 2, 1)): RF_ONE,
    }
    two = t11.scale(v(3)) + CoeffElement.basis((2,), 1, 3)
    got = coproduct(a1, two).terms
    assert got[(((1,), 1, 2), ((1,), 2, 1))] == v(3)
    assert (((2,), 1, 2), ((2,), 2, 3)) in got


def test_product_examples(a1):
    t11 = CoeffElement.basis((1,), 1, 1)
    assert product(a1, a1.unit(), t11) == t11
    p = product(a1, t11, t11)
    assert p == CoeffElement.basis((2,), 1, 1)
    # cross-check by pairing against a word sample
    e, f, k, _ = words_a1()
    for x in (AlgebraWord.unit(), k, f, f * f):
        assert coeff_eval(a1, p, x) == word_pairing(a1, t11, t11, x)


def test_product_duality_random(a1):
    rng = random.Random(5)
    e, f, k, kinv = words_a1()
    words = [AlgebraWord.unit(), e, f, k, kinv, e * f, k * e, f * f * k]
    basis = [CoeffElement.basis((1,), i, j) for i in (1, 2) for j in (1, 2)]
    basis += [CoeffElement.basis((2,), i, j) for i in (1, 3) for j in (2, 3)]
    for _ in range(12):
        a, b = rng.choice(basis), rng.choice(basis)
        ab = product(a1, a, b)
        for x in words:
            assert coeff_eval(a1, ab, x) == word_pairing(a1, a, b, x)


def test_antipode(a1):
    unit = a1.unit()
    assert antipode(a1, unit) == unit
    t12 = CoeffElement.basis((1,), 1, 2)
    e, f, k, kinv = words_a1()
    for x in (e, f, k, kinv, e * k, f * e):
        assert coeff_eval(a1, antipode(a1, t12), x) == \
            coeff_eval(a1, t12, antipode_word(a1.cd, x))
    # squared antipode pairing identity: conjugation by the distinguished
    # Cartan monomial on the argument
    conj = k2rho_word(a1.cd)
    conj_inv = AlgebraWord({tuple(("K" if kind == "k" else "k", i) for kind, i in w): c
                            for w, c in conj.terms.items()})
    rng = random.Random(1)
    for _ in range(6):
        lam = rng.choice([(1,), (2,)])
        d = 2 if lam == (1,) else 3
        a = CoeffElement.basis(lam, rng.randint(1, d), rng.randint(1, d)).scale(v(rng.randint(-2, 2)))
        s2a = antipode(a1, antipode(a1, a))
        for x in (e, f, k):
            assert coeff_eval(a1, s2a, x) == coeff_eval(a1, a, conj * x * conj_inv)


def test_antipode_law_full(a2):
    lam = (1, 0)
    d = 3
    unit = a2.unit()
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            acc = CoeffElement()
            for k in range(1, d + 1):
                acc = acc + product(
                    a2, antipode(a2, CoeffElement.basis(lam, i, k)),
                    CoeffElement.basis(lam, k, j))
            assert acc == (unit if i == j else CoeffElement())


def test_star(a1):
    unit = a1.unit()
    assert star(a1, unit) == unit
    e, f, k, kinv = words_a1()
    for i, j in itertools.product((1, 2), repeat=2):
        a = CoeffElement.basis((1,), i, j)
        assert star(a1, star(a1, a)) == a
        for x in (e, f, k, kinv, e * e, k * f):
            assert coeff_eval(a1, star(a1, a), x) == \
                coeff_eval(a1, a, cartan_involution_word(a1.cd, x))
    # anti-multiplicativity on a sample
    a = CoeffElement.basis((1,), 1, 1)
    b = CoeffElement.basis((1,), 2, 1)
    assert star(a1, product(a1, a, b)) == product(a1, star(a1, b), star(a1, a))


def test_star_on_gram_nontrivial_basis(a1):
    # weight (2,): middle basis vector has self-pairing [2], so the star
    # operation must carry explicit Gram corrections
    m = a1.irrep((2,))
    assert m.gram[1] != RF_ONE
    e, f, k, _ = words_a1()
    for i, j in itertools.product((1, 2, 3), repeat=2):
        a = CoeffElement.basis((2,), i, j)
        assert star(a1, star(a1, a)) == a
        for x in (e, f, k):
            assert coeff_eval(a1, star(a1, a), x) == \
                coeff_eval(a1, a, cartan_involution_word(a1.cd, x))


def test_haar(a1):
    unit = a1.unit()
    assert haar(a1, unit) == RF_ONE
    assert haar(a1, CoeffElement.basis((1,), 1, 2)) == RF_ZERO
    t11 = CoeffElement.basis((1,), 1, 1)
    got = haar(a1, product(a1, t11, antipode(a1, t11)))
    q = v(2)
    assert got == q / (q + q.inv())
    assert got == schur_pair(a1, (1,), 1, 1, 1, 1, (1,), "t_dual")


def test_haar_invariance(a1):
    # (id (x) integral) Delta(a) = (integral (x) id) Delta(a) = integral(a) unit
    rng = random.Random(9)
    basis = [CoeffElement.basis((0,), 1, 1), CoeffElement.basis((1,), 2, 1),
             CoeffElement.basis((2,), 2, 2)]
    for _ in range(8):
        a = CoeffElement()
        for b in rng.sample(basis, 2):
            a = a + b.scale(v(rng.randint(-2, 2)))
        left = CoeffElement()
        right = CoeffElement()
        for (k1, k2), c in coproduct(a1, a).terms.items():
            left = left + CoeffElement({k1: c * haar(a1, CoeffElement({k2: RF_ONE}))})
            right = right + CoeffElement({k2: c * haar(a1, CoeffElement({k1: RF_ONE}))})
        expect = a1.unit().scale(haar(a1, a))
        assert left == expect and right == expect


def test_schur_pair_structure(a1, a2):
    assert schur_pair(a1, (1,), 1, 1, 1, 1, (2,)) == RF_ZERO
    assert schur_pair(a1, (1,), 1, 1, 2, 1, (1,)) == RF_ZERO  # i != r
    q = v(2)
    assert schur_pair(a1, (1,), 1, 1, 1, 1, (1,)) == q / (q + q.inv())
    # exhaustive against the integral route on the A1 fundamental
    for i, j, r, s in itertools.product((1, 2), repeat=4):
        got = haar(a1, product(
            a1, CoeffElement.basis((1,), i, j),
            antipode(a1, CoeffElement.basis((1,), s, r))))
        assert got == schur_pair(a1, (1,), i, j, r, s, (1,), "t_dual")
        got2 = haar(a1, product(
            a1, antipode(a1, CoeffElement.basis((1,), j, i)),
            CoeffElement.basis((1,), r, s)))
        assert got2 == schur_pair(a1, (1,), i, j, r, s, (1,), "dual_t")


def test_circ_and_dot_actions(a1):
    e, f, k, kinv = words_a1()
    t11 = CoeffElement.basis((1,), 1, 1)
    t12 = CoeffElement.basis((1,), 1, 2)
    assert circ_action(a1, AlgebraWord.unit(), t12) == t12
    assert dot_action(a1, AlgebraWord.unit(), t12) == t12
    assert circ_action(a1, k, t11) == t11.scale(v(1))
    # (x o f)(y) = f(y x)
    from qgroups.uqrep import antipode_inv_word

    rng = random.Random(4)
    words = [e, f, k, kinv, e * f, k * k]
    for _ in range(10):
        x, y = rng.choice(words), rng.choice(words)
        a = rng.choice([t11, t12, CoeffElement.basis((2,), 2, 3)])
        assert coeff_eval(a1, circ_action(a1, x, a), y) == coeff_eval(a1, a, y * x)
        # (x . f)(y) = f(S^-1(x) y)
        assert coeff_eval(a1, dot_action(a1, x, a), y) == \
            coeff_eval(a1, a, antipode_inv_word(a1.cd, x) * y)
        # module laws
        assert circ_action(a1, y, circ_action(a1, x, a)) == circ_action(a1, y * x, a)
        assert dot_action(a1, x, dot_action(a1, y, a)) == dot_action(a1, x * y, a)
        # the two actions commute
        assert circ_action(a1, x, dot_action(a1, y, a)) == \
            dot_action(a1, y, circ_action(a1, x, a))


def test_haar_positivity_examples(a1):
    assert haar_positivity(a1, CoeffElement(), 2).value == 0
    assert haar_positivity(a1, a1.unit(), 2).value == 1
    val = haar_positivity(a1, CoeffElement.basis((1,), 1, 1), 2)
    assert val.value > 0 and val.flavor == "exact"
    mixed = CoeffElement.basis((1,), 1, 2).scale(v(-1)) + \
        CoeffElement.basis((2,), 3, 1)
    assert haar_positivity(a1, mixed, Fraction(3, 2)).value > 0


def test_unitarity_identity(a1, a2):
    # sum_k star(that_{ki}) that_{ki} = unit in the normalized basis reduces,
    # after the Gram factors cancel, to the antipode law; check it exactly
    for alg, lam in [(a1, (2,)), (a2, (1, 0))]:
        d = alg.irrep(lam).dim
        unit = alg.unit()
        for i in range(1, d + 1):
            acc = CoeffElement()
            for k in range(1, d + 1):
                acc = acc + product(
                    alg, antipode(alg, CoeffElement.basis(lam, i, k)),
                    CoeffElement.basis(lam, k, i))
            assert acc == unit


def test_serialization_round_trip(a1):
    a = CoeffElement.basis((1,), 1, 2).scale(v(3)) + \
        CoeffElement.basis((2,), 2, 2).scale(RationalFunction.of_poly(
            LaurentPoly({0: Fraction(2, 3)})))
    assert CoeffElement.from_json(a.to_json()) == a


def test_star_antimultiplicative_random(a1, a2):
    rng = random.Random(21)
    for alg, weights in [(a1, [(1,), (2,)]), (a2, [(1, 0), (0, 1)])]:
        basis = []
        for lam in weights:
            d = alg.irrep(lam).dim
            basis += [CoeffElement.basis(lam, i, j)
                      for i in (1, d) for j in (1, d)]
        for _ in range(6):
            a, b = rng.choice(basis), rng.choice(basis)
            assert star(alg, product(alg, a, b)) == \
                product(alg, star(alg, b), star(alg, a))


def test_duality_through_multiplicity_two_component(a2):
    # adjoint square contains the adjoint twice; products through that
    # decomposition must still satisfy product/coproduct duality
    lam = (1, 1)
    a = CoeffElement.basis(lam, 1, 5)
    b = CoeffElement.basis(lam, 2, 1)
    ab = product(a2, a, b)
    gens = [gen_e(1), gen_e(2), gen_f(1), gen_f(2), gen_k(1), gen_k(2)]
    words = [AlgebraWord.unit()] + [AlgebraWord.of_gen(g) for g in gens]
    words += [AlgebraWord.of_word(g1, g2) for g1 in gens[:3] for g2 in gens[3:]]
    for x in words:
        assert coeff_eval(a2, ab, x) == word_pairing(a2, a, b, x)
    got = haar(a2, product(a2, CoeffElement.basis(lam, 1, 1),
                           antipode(a2, CoeffElement.basis(lam, 1, 1))))
    assert got == schur_pair(a2, lam, 1, 1, 1, 1, lam, "t_dual")


def assert_lines_match(alg, lam, x):
    """Every column and row of word_matrix against the whole act_word matrix."""
    mat = act_word(alg.irrep(lam), x)
    for c in range(mat.ncols):
        assert alg.word_matrix(lam, x, c) == mat.column(c), (lam, x, c)
    for r in range(mat.nrows):
        row = {cc: y for (rr, cc), y in mat.data.items() if rr == r}
        assert alg.word_matrix(lam, x, r, "row") == row, (lam, x, r)


def test_word_matrix_lines_match_act_word(a1, a2):
    # a fresh algebra, so no vector comes from another test's memo
    for shared, lam in [(a1, (2,)), (a2, (1, 1))]:
        alg = CoeffAlgebra(shared.cd, shared.irreps)
        rank = alg.cd.rank
        gens = [g(i) for i in range(1, rank + 1)
                for g in (gen_e, gen_f, gen_k, gen_kinv)]
        for n in range(4):
            for word in itertools.product(gens, repeat=n):
                assert_lines_match(alg, lam, AlgebraWord.of_word(*word))
        e, f, k = gen_e(rank), gen_f(1), gen_k(1)
        c = RationalFunction(LaurentPoly({0: 1, 2: 1}), LaurentPoly({0: 1, 1: -1}))
        x = AlgebraWord({(e, f): c, (f, e): v(-2), (k, k, f): -RF_ONE,
                         (): RationalFunction.const(Fraction(3, 2))})
        assert_lines_match(alg, lam, x)
