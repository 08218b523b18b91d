import pytest

from qgroups.cartan import freudenthal, lowest_weight
from qgroups.linalg import Mat
from qgroups.parabolic import (
    ParabolicData,
    branching_oracle,
    central_hom_count,
    hom_space,
    levi_lowest_weight,
    restrict_levi,
)
from retired_helpers import check_intertwiner, tensor_hom


def test_parabolic_data(a2):
    p = ParabolicData(a2.cd, (1,))
    assert p.complement == (2,)
    assert ("e", 2) in p.generators("parabolic")
    assert ("e", 2) not in p.generators("levi")
    with pytest.raises(ValueError):
        ParabolicData(a2.cd, (3,))


def test_levi_lowest_weight(a2):
    p = ParabolicData(a2.cd, (1,))
    assert levi_lowest_weight(p, (2, -1)) == (-2, 1)
    assert levi_lowest_weight(p, (0, 3)) == (0, 3)
    p0 = ParabolicData(a2.cd, ())
    assert levi_lowest_weight(p0, (1, -4)) == (1, -4)
    full = ParabolicData(a2.cd, (1, 2))
    assert levi_lowest_weight(full, (1, 0)) == lowest_weight(a2.cd, (1, 0))


def test_levi_weight_multiplicities(a2, b2):
    assert freudenthal(a2.cd, (2, -1), (1,)) == {
        (2, -1): 1, (0, 0): 1, (-2, 1): 1}
    # torus: single weight
    assert freudenthal(a2.cd, (3, -2), ()) == {(3, -2): 1}
    # inside B2, theta = {2} is a short-root A1
    assert freudenthal(b2.cd, (0, 2), (2,)) == {
        (0, 2): 1, (1, 0): 1, (2, -2): 1}


def test_restrict_levi_full_theta_is_identity(a2):
    p = ParabolicData(a2.cd, (1, 2))
    m = a2.irrep((1, 1))
    br = restrict_levi(m, p, a2.irreps)
    assert br.multiplicities() == {(1, 1): 1}
    assert br.total_dim() == 8


def test_restrict_levi_torus(a1):
    p = ParabolicData(a1.cd, ())
    m = a1.irrep((3,))
    br = restrict_levi(m, p, a1.irreps)
    assert br.multiplicities() == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    assert all(lm.dim == 1 for _, lm, _ in br.summands)


def test_restrict_levi_matches_oracle(a2, b2):
    cases = [(a2, (1,), (1, 1)), (a2, (2,), (2, 1)), (b2, (1,), (1, 1)),
             (b2, (2,), (1, 0))]
    for alg, theta, lam in cases:
        p = ParabolicData(alg.cd, theta)
        br = restrict_levi(alg.irrep(lam), p, alg.irreps)
        assert br.multiplicities() == branching_oracle(alg.cd, p, lam)
        # summand embeddings intertwine the Levi action
        for mu, lm, cols in br.summands[:2]:
            phi = Mat(alg.irrep(lam).dim, lm.dim)
            for c, col in enumerate(cols):
                phi.set_column(c, col)
            big = alg.irrep(lam)
            for j in theta:
                assert (big.e_matrix(j) @ phi) == (phi @ lm.e_matrix(j))
                assert (big.f_matrix(j) @ phi) == (phi @ lm.f_matrix(j))


def test_hom_space_flavors(a2):
    cd = a2.cd
    p = ParabolicData(cd, (1,))
    w = a2.irrep((1, 0))
    # parabolic criterion: nonzero exactly when lowest weights agree
    lam_bar = lowest_weight(cd, (1, 0))
    for mu in [(1, 0), (0, -1)]:
        vmod = a2.irreps.levi(cd, (1,), mu)
        hb = hom_space(w, vmod, p, "parabolic")
        expect = 1 if levi_lowest_weight(p, mu) == lam_bar else 0
        assert len(hb) == expect
        for phi in hb:
            assert check_intertwiner(phi, w, vmod, p, "parabolic")
    # reductive flavor: projection onto the top constituent always exists
    top = a2.irreps.levi(cd, (1,), (1, 0))
    assert len(hom_space(w, top, p, "levi")) >= 1


def test_hom_space_levi_multiplicity(a2):
    # Hom counts multiplicities: the adjoint contains the trivial Levi
    # constituent once for theta = {1}
    p = ParabolicData(a2.cd, (1,))
    m = a2.irrep((1, 1))
    trivial = a2.irreps.levi(a2.cd, (1,), (0, 0))
    assert len(hom_space(m, trivial, p, "levi")) == 1


def test_tensor_hom(a2):
    cd = a2.cd
    p = ParabolicData(cd, (1,))
    m = a2.irrep((1, 1))
    trivial = a2.irreps.levi(cd, (1,), (0, 0))
    phi = hom_space(m, trivial, p, "levi").maps[0]
    comp = tensor_hom(a2, p, phi, m, trivial, phi, m, trivial)
    w22 = a2.irrep((2, 2))
    assert check_intertwiner(comp, w22, trivial, p, "levi")
    assert len(hom_space(w22, trivial, p, "levi")) >= 1
    # zero map in either slot contradicts the construction
    zero = Mat.zero(1, 8)
    with pytest.raises(ArithmeticError):
        tensor_hom(a2, p, zero, m, trivial, phi, m, trivial)


def test_tensor_hom_torus_characters(a1):
    cd = a1.cd
    p = ParabolicData(cd, ())
    w1 = a1.irrep((1,))
    line = a1.irreps.levi(cd, (), (-1,))
    phi = hom_space(w1, line, p, "levi").maps[0]
    comp = tensor_hom(a1, p, phi, w1, line, phi, w1, line)
    w2 = a1.irrep((2,))
    line2 = a1.irreps.levi(cd, (), (-2,))
    assert check_intertwiner(comp, w2, line2, p, "levi")


def test_central_hom_count(a1, a2, a3, b2):
    for alg in (a1, a2, a3, b2):
        cd = alg.cd
        full = tuple(range(1, cd.rank + 1))
        assert central_hom_count(ParabolicData(cd, full), alg.irreps) == 0
        assert central_hom_count(ParabolicData(cd, ()), alg.irreps) == cd.rank
    assert central_hom_count(ParabolicData(a2.cd, (1,)), a2.irreps) == 1


def test_hom_basis_serialization(a2):
    p = ParabolicData(a2.cd, (1,))
    w = a2.irrep((1, 0))
    vmod = a2.irreps.levi(a2.cd, (1,), (0, -1))
    hb = hom_space(w, vmod, p, "parabolic")
    obj = hb.to_json()
    assert obj["flavor"] == "parabolic" and len(obj["maps"]) == 1
    from qgroups.uqrep import _mat_from_json
    assert _mat_from_json(obj["maps"][0]) == hb.maps[0]
