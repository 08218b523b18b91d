import itertools
from fractions import Fraction

import pytest

from qgroups import scalar, uqrep, verify
from qgroups.cartan import cartan_data, weight_multiplicities
from qgroups.linalg import Mat, solve
from qgroups.scalar import RF_ONE, RF_ZERO, RationalFunction, q_integer, specialize
from qgroups.uqrep import (
    AlgebraWord,
    act_word,
    antipode_word,
    build_irrep,
    build_module,
    check_serre,
    coideal_span,
    coproduct_word,
    counit,
    gen_e,
    gen_f,
    gen_k,
    gen_kinv,
    irrep_from_json,
    irrep_to_json,
    k2rho,
    quantum_dimension,
    relations_ok,
)


def v(n):
    return RationalFunction.v_power(n)


def test_a1_fundamental_matrices(a1):
    m = a1.irrep((1,))
    assert m.dim == 2
    assert m.E[1].data == {(0, 1): RF_ONE}
    assert m.F[1].data == {(1, 0): RF_ONE}
    assert m.k_matrix(1).data == {(0, 0): v(1), (1, 1): v(-1)}
    assert m.weights == [(1,), (-1,)]
    assert m.gram == [RF_ONE, RF_ONE]


def test_trivial_module(a1):
    m = a1.irrep((0,))
    assert m.dim == 1
    assert m.E[1].is_zero() and m.F[1].is_zero()
    assert m.k_matrix(1) == Mat.identity(1)


def test_a2_adjoint_dimension(a2):
    m = a2.irrep((1, 1))
    assert m.dim == 8


def test_non_dominant_rejected(a1):
    with pytest.raises(ValueError):
        build_irrep(a1.cd, (-1,))


def test_relations_reports(a1, a2, b2):
    for alg, hw in [(a1, (4,)), (a2, (1, 1)), (b2, (1, 1))]:
        rep = check_serre(alg.irrep(hw))
        assert all(r["ok"] for r in rep), [r for r in rep if not r["ok"]]


def test_corrupted_module_fails_commutator(a1):
    m = a1.irrep((1,))
    broken = type(m)(
        m.cd, m.hw, m.lowering, m.weights,
        {1: Mat.zero(2, 2)}, m.F, m.gram, m.constructions,
    )
    rep = check_serre(broken)
    bad = [r for r in rep if not r["ok"]]
    assert any("[e1, f1]" in r["relation"] for r in bad)


def test_act_word_examples(a1):
    m = a1.irrep((1,))
    kkinv = AlgebraWord.of_word(gen_k(1), gen_kinv(1))
    assert act_word(m, kkinv) == Mat.identity(2)
    ef_minus_fe = (AlgebraWord.of_word(gen_e(1), gen_f(1))
                   - AlgebraWord.of_word(gen_f(1), gen_e(1)))
    assert act_word(m, ef_minus_fe) == Mat.diag([RF_ONE, -RF_ONE])
    # compact-form combination e - q f
    q = v(2)
    x = AlgebraWord.of_gen(gen_e(1)) - AlgebraWord.of_gen(gen_f(1)).scale(q)
    got = act_word(m, x)
    assert got.data == {(0, 1): RF_ONE, (1, 0): -q}


def test_k2rho(a1, a2):
    mono = k2rho(a1.cd)
    assert mono.exponents == (2,)
    m = a1.irrep((1,))
    assert mono.matrix(m) == Mat.diag([v(2), v(-2)])
    # conjugation scales e by q^(2 rho, alpha) and squares the antipode
    for alg, hw in [(a1, (2,)), (a2, (1, 0)), (a2, (1, 1))]:
        cd = alg.cd
        mm = alg.irrep(hw)
        mono = k2rho(cd)
        kpos, kneg = mono.matrix(mm), mono.matrix(mm, inverse=True)
        for i in range(1, cd.rank + 1):
            qi2 = v(4 * cd.d[i - 1])
            assert (kpos @ mm.e_matrix(i) @ kneg) == mm.e_matrix(i).scale(qi2)
            assert (kpos @ mm.f_matrix(i) @ kneg) == mm.f_matrix(i).scale(qi2.inv())
    # trace over the first fundamental of A2: q^2 + 1 + q^-2
    tr = RF_ZERO
    m10 = a2.irrep((1, 0))
    mono2 = k2rho(a2.cd)
    for s in range(3):
        tr = tr + v(mono2.weight_exponent(m10.weights[s]))
    assert tr == v(4) + RF_ONE + v(-4)


def q_weyl_dimension_oracle(alg, lam):
    """Product formula: prod over positive roots of [ (lam+rho, a) ] / [ (rho, a) ]
    in balanced quantum integers of the (halved) pairing exponents."""
    from qgroups.cartan import inner_with_root

    cd = alg.cd
    rho = (1,) * cd.rank
    lam_rho = tuple(c + 1 for c in lam)
    num, den = RF_ONE, RF_ONE
    for alpha in cd.positive_roots:
        top = inner_with_root(cd, lam_rho, alpha)
        bot = inner_with_root(cd, rho, alpha)
        assert top.denominator == 1 and bot.denominator == 1
        num = num * q_integer(int(top), 1)
        den = den * q_integer(int(bot), 1)
    return num / den


def test_quantum_dimension(a1, a2):
    m = a1.irrep((1,))
    assert quantum_dimension(m) == v(2) + v(-2)
    assert quantum_dimension(a1.irrep((0,))) == RF_ONE
    d = quantum_dimension(a2.irrep((1, 1)))
    assert d == d.bar()
    assert specialize(d, Fraction(1, 1) + Fraction(1, 10**6)).value  # no pole near 1
    # value at v -> 1 equals the ordinary dimension: evaluate numerator/denominator
    assert sum(d.num.terms.values()) == 8
    # q-deformed Weyl product oracle
    assert d == q_weyl_dimension_oracle(a2, (1, 1))
    assert quantum_dimension(a2.irrep((2, 0))) == q_weyl_dimension_oracle(a2, (2, 0))
    # invariance under dual weight
    assert quantum_dimension(a2.irrep((1, 0))) == quantum_dimension(a2.irrep((0, 1)))


def test_contravariance_identity(a1, a2, b2):
    # transpose(M(x)) G = G M(x*) with x* the compact star on generators
    for alg, hw in [(a1, (3,)), (a2, (1, 1)), (b2, (1, 0))]:
        m = alg.irrep(hw)
        g = Mat.diag(m.gram)
        for i in m.lowering:
            assert (m.e_matrix(i).transpose() @ g) == (g @ m.f_matrix(i))
            assert (m.f_matrix(i).transpose() @ g) == (g @ m.e_matrix(i))


def test_weight_multiplicities_match_freudenthal(a2, b2):
    for alg, hw in [(a2, (2, 1)), (b2, (1, 1))]:
        m = alg.irrep(hw)
        got = {}
        for w in m.weights:
            got[w] = got.get(w, 0) + 1
        assert got == weight_multiplicities(alg.cd, hw)


def test_levi_restricted_build(a2):
    cache = a2.irreps
    m = cache.levi(a2.cd, (1,), (2, -1))
    assert m.dim == 3
    assert m.weights == [(2, -1), (0, 0), (-2, 1)]
    # raising generator outside the subalgebra acts by zero
    assert m.e_matrix(2).is_zero()
    with pytest.raises(ValueError):
        m.f_matrix(2)
    with pytest.raises(ValueError):
        build_module(a2.cd, (-1, 5), (1,))


def test_counit_and_antipode_words(a1):
    cd = a1.cd
    e, f = AlgebraWord.of_gen(gen_e(1)), AlgebraWord.of_gen(gen_f(1))
    k = AlgebraWord.of_gen(gen_k(1))
    assert counit(cd, e) == RF_ZERO
    assert counit(cd, k) == RF_ONE
    assert counit(cd, k * k - AlgebraWord.unit()) == RF_ZERO
    # antipode on generators and the anti-homomorphism property on a product
    q = v(2)
    assert antipode_word(cd, e) == e.scale(-q)
    assert antipode_word(cd, f) == f.scale(-q.inv())
    assert antipode_word(cd, e * f) == (f * e).scale(RF_ONE)


def test_hopf_axioms_on_module(a1, a2):
    # m(S (x) id) Delta(x) = counit(x) 1 evaluated in a faithful module
    for alg, hw in [(a1, (2,)), (a2, (1, 0))]:
        cd = alg.cd
        m = alg.irrep(hw)
        gens = [gen_e(1), gen_f(1), gen_k(1)]
        if cd.rank > 1:
            gens += [gen_e(2), gen_k(2)]
        for g in gens:
            word = AlgebraWord.of_gen(g)
            total = Mat.zero(m.dim, m.dim)
            for (w1, w2), c in coproduct_word(cd, word).items():
                left = act_word(m, antipode_word(cd, AlgebraWord({w1: RF_ONE})))
                right = act_word(m, AlgebraWord({w2: RF_ONE}))
                total = total + (left @ right).scale(c)
            expect = Mat.identity(m.dim).scale(counit(cd, word))
            assert total == expect, g


def _membership_in_coideal_tensor(cd, target, span_elements):
    """Solve for target in span{c (x) w} + span{w (x) c} over occurring words."""
    keys = sorted(target)
    right_words = sorted({w2 for (_, w2) in keys})
    left_words = sorted({w1 for (w1, _) in keys})
    generators = []
    for c in span_elements:
        for w in right_words:
            generators.append({(cw, w): coeff for cw, coeff in c.terms.items()})
        for w in left_words:
            generators.append({(w, cw): coeff for cw, coeff in c.terms.items()})
    all_keys = sorted(set(keys) | {k for g in generators for k in g})
    rows = [[g.get(k, RF_ZERO) for g in generators] for k in all_keys]
    rhs = [[target.get(k, RF_ZERO) for k in all_keys]]
    try:
        solve(rows, rhs)
        return True
    except ArithmeticError:
        return False


def test_coideal_property(a1, a2):
    # the coproduct of every spanning element sits inside C (x) U + U (x) C
    for alg in (a1, a2):
        cd = alg.cd
        span = coideal_span(cd, theta=tuple(range(1, cd.rank + 1)))
        for z in span:
            target = coproduct_word(cd, z)
            assert _membership_in_coideal_tensor(cd, target, span)


def test_irrep_json_round_trip(a2):
    m = a2.irrep((1, 1))
    obj = irrep_to_json(m)
    back = irrep_from_json(a2.cd, obj)
    assert back.weights == m.weights
    assert back.E == m.E and back.F == m.F
    assert back.gram == m.gram
    assert back.constructions == m.constructions
    assert relations_ok(back)


def test_cache_shares_instances(a1):
    cache = a1.irreps
    assert cache.irrep(a1.cd, (2,)) is cache.irrep(a1.cd, (2,))


def expand_coproduct(x):
    """Delta of a word combination, expanded generator by generator."""
    out = {}
    for word, c in x.terms.items():
        legs = [((), ())]
        for kind, i in word:
            g = (kind, i)
            if kind in ("e", "f"):
                pieces = [((g,), (gen_k(i),)), ((gen_kinv(i),), (g,))]
            else:
                pieces = [((g,), (g,))]
            legs = [(w1 + p1, w2 + p2) for w1, w2 in legs for p1, p2 in pieces]
        for key in legs:
            out[key] = out.get(key, RF_ZERO) + c
    return {key: c for key, c in out.items() if c}


def a2_words(length):
    gens = [g(i) for i in (1, 2) for g in (gen_e, gen_f, gen_k, gen_kinv)]
    return [w for n in range(length + 1) for w in itertools.product(gens, repeat=n)]


def test_coproduct_legs_memo_cold_and_hot(a2, monkeypatch):
    monkeypatch.setattr(uqrep, "_LEGS", scalar.Memo(uqrep._LEGS.make))
    stored = []

    def counting_make(word):
        stored.append(word)
        return word

    monkeypatch.setattr(uqrep, "_LEG_WORDS", scalar.Memo(counting_make))
    words = a2_words(3)
    mixed = AlgebraWord({(gen_e(1), gen_f(2)): q_integer(2), (gen_k(1),): v(-2),
                         (): RationalFunction.const(Fraction(3, 2))})
    for _ in ("cold", "hot"):
        for w in words:
            x = AlgebraWord.of_word(*w)
            assert coproduct_word(a2.cd, x) == expand_coproduct(x), w
        assert coproduct_word(a2.cd, mixed) == expand_coproduct(mixed)
    assert len(uqrep._LEGS) == len(words)
    # equal leg words share one stored copy
    for legs in uqrep._LEGS.values():
        for pair in legs:
            assert all(uqrep._LEG_WORDS[w] is w for w in pair)
    # each leg word, the empty word included, is stored once and then found
    assert () in uqrep._LEG_WORDS
    assert sorted(stored) == sorted(uqrep._LEG_WORDS)


def test_coproduct_legs_memo_stops_at_its_bound(a2, monkeypatch):
    monkeypatch.setattr(scalar, "MEMO_MAX", 3)
    monkeypatch.setattr(uqrep, "_LEGS", scalar.Memo(uqrep._LEGS.make))
    monkeypatch.setattr(uqrep, "_LEG_WORDS", scalar.Memo(uqrep._LEG_WORDS.make))
    for _ in range(2):
        for w in a2_words(2):
            x = AlgebraWord.of_word(*w)
            assert coproduct_word(a2.cd, x) == expand_coproduct(x), w
        assert len(uqrep._LEGS) == 3 and len(uqrep._LEG_WORDS) == 3


def matmul_k_block(m):
    """The K relations of ``check_serre`` as whole sparse matrix products:
    the reference for its entrywise reading of the diagonals."""
    cd, report = m.cd, []

    def record(name, ok):
        report.append({"relation": name, "ok": bool(ok)})

    for i in range(1, cd.rank + 1):
        ki, kiv = m.k_matrix(i), m.k_matrix(i, inverse=True)
        record(f"k{i} k{i}^-1 = 1", (ki @ kiv) == Mat.identity(m.dim))
        for j in range(1, cd.rank + 1):
            kj = m.k_matrix(j)
            record(f"k{i} k{j} = k{j} k{i}", (ki @ kj) == (kj @ ki))
        for j in m.lowering:
            ej, fj = m.e_matrix(j), m.f_matrix(j)
            pairing = cd.d[i - 1] * cd.cartan[i - 1][j - 1]
            record(f"k{i} e{j} k{i}^-1 = v^({pairing}) e{j}",
                   (ki @ ej @ kiv) == ej.scale(v(pairing)))
            record(f"k{i} f{j} k{i}^-1 = v^(-{pairing}) f{j}",
                   (ki @ fj @ kiv) == fj.scale(v(-pairing)))
    return report


@pytest.mark.parametrize("name,hw", verify.relations_grid(quick=True))
def test_entrywise_k_relations_match_matrix_products(name, hw):
    m = build_irrep(cartan_data(name), hw)
    want = matmul_k_block(m)
    assert check_serre(m)[:len(want)] == want


def off_diagonal_k_entry(m):
    m.k_matrix(1).data[(0, 1)] = RF_ONE


def k_diagonal_entry_times_v(m):
    k = m.k_matrix(1)
    k.data[(0, 0)] = k.data[(0, 0)] * v(1)


def e_entry_at_wrong_weight(m):
    e = m.E[1].data
    r, c = min(e)
    x = e.pop((r, c))
    moved = next(s for s in range(m.dim)
                 if m.weights[s] != m.weights[r] and (s, c) not in e)
    e[(moved, c)] = x


@pytest.mark.parametrize("fault", [off_diagonal_k_entry, k_diagonal_entry_times_v,
                                   e_entry_at_wrong_weight])
@pytest.mark.parametrize("name,hw", [("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 1))])
def test_entrywise_k_relations_fail_where_matrix_products_fail(name, hw, fault):
    m = build_irrep(cartan_data(name), hw)
    fault(m)
    want = matmul_k_block(m)
    got = check_serre(m)[:len(want)]
    assert [e["relation"] for e in got] == [e["relation"] for e in want]
    failed = {e["relation"] for e in want if not e["ok"]}
    assert failed
    assert failed <= {e["relation"] for e in got if not e["ok"]}
    if fault is off_diagonal_k_entry:
        ok = {e["relation"]: e["ok"] for e in got}
        for j in range(1, m.cd.rank + 1):
            assert not ok[f"k1 k{j} = k{j} k1"] and not ok[f"k{j} k1 = k1 k{j}"]
