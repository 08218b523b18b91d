import pytest

from qgroups.cartan import char_decompose_oracle
from qgroups.linalg import Mat
from qgroups.scalar import RF_ONE, RationalFunction
from qgroups.tensor import decompose, highest_weight_vectors, tensor_module
from qgroups.uqrep import check_serre


def v(n):
    return RationalFunction.v_power(n)


def test_unit_object(a1):
    m = a1.irrep((2,))
    one = a1.irrep((0,))
    t = tensor_module(m, one)
    for gen in (("e", 1), ("f", 1), ("k", 1)):
        assert t.gen_matrix(gen) == m.gen_matrix(gen)
    cg = decompose(t, a1.irreps)
    assert cg.multiplicities() == {(2,): 1}
    assert cg.basis == Mat.identity(3)


def test_product_module_satisfies_relations(a1):
    t = tensor_module(a1.irrep((1,)), a1.irrep((1,)))

    class Shim:  # reuse the relations checker on the product matrices
        cd = a1.cd
        lowering = (1,)
        dim = 4
        weights = t.weights
        gen_matrix = t.gen_matrix
        e_matrix = t.e_matrix
        f_matrix = t.f_matrix
        k_matrix = t.k_matrix

    assert all(r["ok"] for r in check_serre(Shim()))


def test_cartan_action_adds_weights(a1):
    m = a1.irrep((2,))
    t = tensor_module(m, m)
    k = t.k_matrix(1)
    for s, w in enumerate(t.weights):
        assert k[(s, s)] == v(w[0])


def test_highest_weight_vectors_a1(a1):
    m = a1.irrep((1,))
    t = tensor_module(m, m)
    top = highest_weight_vectors(t, (2,))
    assert len(top) == 1 and top[0] == {0: RF_ONE}
    zero = highest_weight_vectors(t, (0,))
    assert len(zero) == 1
    # kernel of the raising action on the zero-weight span: the echelon
    # representative is w- (x) w+ - v^2 w+ (x) w-
    vec = zero[0]
    assert vec == {2: RF_ONE, 1: -v(2)}
    assert highest_weight_vectors(t, (5,)) == []


def test_decompose_against_character_oracle(a1, a2, b2):
    cases = [
        (a1, (1,), (1,)),
        (a1, (2,), (1,)),
        (a1, (3,), (3,)),
        (a2, (1, 0), (0, 1)),
        (a2, (1, 0), (1, 0)),
        (a2, (1, 1), (1, 0)),
        (b2, (0, 1), (0, 1)),
    ]
    for alg, lam, mu in cases:
        t = tensor_module(alg.irrep(lam), alg.irrep(mu))
        cg = decompose(t, alg.irreps)
        assert cg.multiplicities() == char_decompose_oracle(alg.cd, lam, mu)
        assert (cg.basis_inv @ cg.basis) == Mat.identity(t.dim)


def test_hwv_count_matches_oracle_multiplicity(a2):
    t = tensor_module(a2.irrep((1, 1)), a2.irrep((1, 1)))
    oracle = char_decompose_oracle(a2.cd, (1, 1), (1, 1))
    assert oracle[(1, 1)] == 2
    assert len(highest_weight_vectors(t, (1, 1))) == 2
    assert len(highest_weight_vectors(t, (3, 0))) == 1


def test_blocks_equal_canonical_matrices(a1, a2):
    for alg, lam, mu in [(a1, (1,), (2,)), (a2, (1, 0), (0, 1))]:
        t = tensor_module(alg.irrep(lam), alg.irrep(mu))
        cg = decompose(t, alg.irreps)
        conj = {}
        for gen in [("e", i) for i in alg.cd.simple_indices()] + \
                   [("f", i) for i in alg.cd.simple_indices()] + \
                   [("k", i) for i in alg.cd.simple_indices()]:
            full = cg.basis_inv @ t.gen_matrix(gen) @ cg.basis
            for nu, copies, canon in cg.components:
                cm = canon.gen_matrix(gen)
                for off in copies:
                    for a in range(canon.dim):
                        for b in range(canon.dim):
                            assert full[(off + a, off + b)] == cm[(a, b)]
            # off-block entries vanish
            blocks = []
            for nu, copies, canon in cg.components:
                for off in copies:
                    blocks.append((off, off + canon.dim))
            for (r, c), x in full.data.items():
                inside = any(lo <= r < hi and lo <= c < hi for lo, hi in blocks)
                assert inside, (gen, r, c)


def test_mismatched_factors_rejected(a1, a2):
    with pytest.raises(ValueError):
        tensor_module(a1.irrep((1,)), a2.irrep((1, 0)))


def test_multiplicity_space_ordering_is_reproducible(a2):
    t = tensor_module(a2.irrep((1, 1)), a2.irrep((1, 1)))
    cg1 = decompose(t, a2.irreps)
    cg2 = decompose(t, a2.irreps)
    assert cg1.basis == cg2.basis and cg1.basis_inv == cg2.basis_inv


