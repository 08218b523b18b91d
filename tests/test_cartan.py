from fractions import Fraction

import pytest

from qgroups.cartan import (
    SUPPORTED_TYPES,
    cartan_data,
    char_decompose_oracle,
    dominant_orbit_rep,
    dual_weight,
    is_dominant,
    lowest_weight,
    reflect,
    weight_multiplicities,
    weyl_dim,
)
from retired_helpers import inner, weyl_orbit


def test_tables_are_consistent():
    for name in SUPPORTED_TYPES:
        cd = cartan_data(name)
        # symmetrizability and the Cartan matrix from the inner product data
        for i in range(cd.rank):
            for j in range(cd.rank):
                assert cd.d[i] * cd.cartan[i][j] == cd.d[j] * cd.cartan[j][i]
                a_ij = Fraction(2) * inner(cd, cd.alpha_fundamental(i + 1),
                                           cd.alpha_fundamental(j + 1))
                a_ij /= inner(cd, cd.alpha_fundamental(i + 1), cd.alpha_fundamental(i + 1))
                assert a_ij == cd.cartan[i][j]
        # 2 rho is the sum of the positive roots (by construction) and rho has
        # fundamental coordinates (1, ..., 1)
        rho_fund = cd.root_to_fundamental(
            tuple(Fraction(c, 2) for c in cd.two_rho))
        assert tuple(rho_fund) == (1,) * cd.rank
        # highest root is a positive root
        assert cd.highest_root in cd.positive_roots


def test_unsupported_type_rejected():
    with pytest.raises(ValueError):
        cartan_data("G2")


def test_inner_values():
    a1 = cartan_data("A1")
    assert inner(a1, (1,), (1,)) == Fraction(1, 2)
    assert inner(a1, (0,), (5,)) == 0
    a2 = cartan_data("A2")
    alpha1 = a2.alpha_fundamental(1)
    alpha2 = a2.alpha_fundamental(2)
    assert inner(a2, alpha1, alpha2) == -1
    assert inner(a2, alpha1, alpha1) == 2
    b2 = cartan_data("B2")
    assert inner(b2, b2.alpha_fundamental(1), b2.alpha_fundamental(1)) == 4
    assert inner(b2, b2.alpha_fundamental(2), b2.alpha_fundamental(2)) == 2


def test_lowest_weight_examples():
    a1 = cartan_data("A1")
    for n in range(6):
        assert lowest_weight(a1, (n,)) == (-n,)
    a2 = cartan_data("A2")
    assert lowest_weight(a2, (1, 0)) == (0, -1)
    assert lowest_weight(a2, (0, 0)) == (0, 0)
    with pytest.raises(ValueError):
        lowest_weight(a2, (-1, 0))


def test_lowest_weight_is_antidominant_orbit_point():
    # brute-force orbit oracle
    for name in SUPPORTED_TYPES:
        cd = cartan_data(name)
        grid = [(1,) * cd.rank, (2,) + (0,) * (cd.rank - 1), (0,) * (cd.rank - 1) + (1,)]
        for lam in grid:
            low = lowest_weight(cd, lam)
            orbit = weyl_orbit(cd, lam)
            assert low in orbit
            anti = [w for w in orbit if all(c <= 0 for c in w)]
            assert anti == [low]


def test_dual_weight():
    a1 = cartan_data("A1")
    assert dual_weight(a1, (4,)) == (4,)
    a2 = cartan_data("A2")
    assert dual_weight(a2, (1, 0)) == (0, 1)
    assert dual_weight(a2, (0, 0)) == (0, 0)
    b2 = cartan_data("B2")
    assert dual_weight(b2, (1, 2)) == (1, 2)
    a3 = cartan_data("A3")
    assert dual_weight(a3, (1, 0, 0)) == (0, 0, 1)
    # involution composed with sign
    for lam in [(2, 1), (0, 3)]:
        assert lowest_weight(a2, dual_weight(a2, lam)) == tuple(-c for c in lam)


def test_dominant_orbit_rep():
    a1 = cartan_data("A1")
    rep, word = dominant_orbit_rep(a1, (-3,))
    assert rep == (3,) and word == (1,)
    a2 = cartan_data("A2")
    rep, word = dominant_orbit_rep(a2, (-1, 2))
    # oracle: enumerate the orbit and pick the dominant point
    orbit = weyl_orbit(a2, (-1, 2))
    dominant = [w for w in orbit if is_dominant(w)]
    assert dominant == [rep]
    # applying the word reproduces the representative
    cur = (-1, 2)
    for i in word:
        cur = reflect(a2, cur, i)
    assert cur == rep
    assert dominant_orbit_rep(a2, (2, 1)) == ((2, 1), ())


def test_weyl_dim():
    a1 = cartan_data("A1")
    for n in range(7):
        assert weyl_dim(a1, (n,)) == n + 1
    a2 = cartan_data("A2")
    assert weyl_dim(a2, (1, 1)) == 8
    assert weyl_dim(a2, (0, 0)) == 1
    assert weyl_dim(a2, (1, 0)) == 3
    b2 = cartan_data("B2")
    assert weyl_dim(b2, (1, 0)) == 5
    assert weyl_dim(b2, (0, 1)) == 4
    assert weyl_dim(b2, (0, 2)) == 10
    a3 = cartan_data("A3")
    assert [weyl_dim(a3, w) for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] == [4, 6, 4]
    assert weyl_dim(a3, (1, 0, 1)) == 15


def test_weyl_dim_dual_invariance():
    a2 = cartan_data("A2")
    for lam in [(1, 0), (2, 1), (0, 3), (1, 1)]:
        assert weyl_dim(a2, lam) == weyl_dim(a2, dual_weight(a2, lam))


def test_weight_multiplicities():
    a1 = cartan_data("A1")
    assert weight_multiplicities(a1, (3,)) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}
    a2 = cartan_data("A2")
    adjoint = weight_multiplicities(a2, (1, 1))
    assert adjoint[(0, 0)] == 2
    assert sum(adjoint.values()) == 8
    b2 = cartan_data("B2")
    mults = weight_multiplicities(b2, (1, 1))
    assert sum(mults.values()) == weyl_dim(b2, (1, 1)) == 16


def test_char_decompose_oracle():
    a1 = cartan_data("A1")
    assert char_decompose_oracle(a1, (1,), (1,)) == {(2,): 1, (0,): 1}
    assert char_decompose_oracle(a1, (3,), (0,)) == {(3,): 1}
    a2 = cartan_data("A2")
    assert char_decompose_oracle(a2, (1, 0), (1, 0)) == {(2, 0): 1, (0, 1): 1}
    assert char_decompose_oracle(a2, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
    # total dimension is preserved
    for lam, mu in [((1, 1), (1, 0)), ((2, 0), (0, 2))]:
        total = sum(m * weyl_dim(a2, nu)
                    for nu, m in char_decompose_oracle(a2, lam, mu).items())
        assert total == weyl_dim(a2, lam) * weyl_dim(a2, mu)


def test_serialization():
    for name in SUPPORTED_TYPES:
        cd = cartan_data(name)
        obj = cd.to_json()
        assert obj["rank"] == cd.rank
        assert obj["cartan"] == [list(r) for r in cd.cartan]
