"""The one raising-kernel extractor against the three extractors it replaced.

The references below are the former ``tensor.highest_weight_vectors``, the
former ``parabolic._levi_hw_vectors`` and the former highest-weight block of
``coeff.CoeffAlgebra.dual_data``.  Each stacked, raising matrix by raising
matrix, the rows that meet a weight space's columns, in sorted row order,
and solved them with ``kernel_basis``.  ``linalg.raising_kernel`` now does
this for the first two callers; ``dual_data`` reads its one lowest-weight
index directly, since that index is the whole dual highest-weight space.
The vectors must be the same, in the same order, on every weight of the
decomposition cases, every Theta-branching of the quick relations grid and
the dual module of every relations-grid weight.
"""

import itertools

import pytest

from qgroups.cartan import cartan_data, dual_weight, inner_scaled, lowest_weight
from qgroups.coeff import CoeffAlgebra
from qgroups.linalg import kernel_basis
from qgroups.parabolic import ParabolicData, restrict_levi
from qgroups.scalar import RF_ONE, RF_ZERO, RationalFunction
from qgroups.tensor import highest_weight_vectors, tensor_module
from qgroups.verify import algebra, relations_grid
from test_tensor import DECOMPOSE_CASES


def reference_tensor_hwv(t, nu):
    nu = tuple(nu)
    idx = [s for s, w in enumerate(t.weights) if w == nu]
    if not idx:
        return []
    idx_set = set(idx)
    rows = []
    for i in t.lowering:
        e = t.e_matrix(i)
        cols = {}
        for (r, c), x in e.data.items():
            if c in idx_set:
                cols.setdefault(c, {})[r] = x
        touched = sorted({r for col in cols.values() for r in col})
        for r in touched:
            rows.append([cols.get(c, {}).get(r, RF_ZERO) for c in idx])
    if not rows:
        rows = [[RF_ZERO] * len(idx)]
    kern = kernel_basis(rows, len(idx))
    return [{idx[k]: x for k, x in vec.items()} for vec in kern]


def reference_levi_hw_vectors(m, theta, weight_indices):
    rows = []
    for j in theta:
        e = m.e_matrix(j)
        cols = {c: {} for c in weight_indices}
        touched = set()
        for (r, c), x in e.data.items():
            if c in cols:
                cols[c][r] = x
                touched.add(r)
        for r in sorted(touched):
            rows.append([cols[c].get(r, RF_ZERO) for c in weight_indices])
    if not rows:
        rows = [[RF_ZERO] * len(weight_indices)]
    kern = kernel_basis(rows, len(weight_indices))
    return [{weight_indices[k]: x for k, x in vec.items()} for vec in kern]


def reference_dual_hwv(alg, lam):
    cd = alg.cd
    m = alg.irrep(lam)
    lam_dual = dual_weight(cd, lam)
    target = [s for s in range(m.dim)
              if tuple(-c for c in m.weights[s]) == lam_dual]
    rows = []
    for i in range(1, cd.rank + 1):
        qi = RationalFunction.v_power(2 * cd.d[i - 1])
        e = m.e_matrix(i).transpose().scale(-qi)
        cols = {c: {} for c in target}
        touched = set()
        for (r, c), x in e.data.items():
            if c in cols:
                cols[c][r] = x
                touched.add(r)
        for r in sorted(touched):
            rows.append([cols[c].get(r, RF_ZERO) for c in target])
    if not rows:
        rows = [[RF_ZERO] * len(target)]
    kern = kernel_basis(rows, len(target))
    assert len(kern) == 1
    return {target[k]: x for k, x in kern[0].items()}


@pytest.mark.parametrize("name,lam,mu", DECOMPOSE_CASES)
def test_tensor_highest_weight_vectors_match_reference(name, lam, mu):
    alg = algebra(name.upper())
    t = tensor_module(alg.irrep(lam), alg.irrep(mu))
    for nu in sorted(set(t.weights)):
        assert highest_weight_vectors(t, nu) == reference_tensor_hwv(t, nu), nu


@pytest.mark.parametrize("name,hw", relations_grid(quick=True))
def test_levi_branching_vectors_match_reference(name, hw):
    alg = algebra(name)
    cd = alg.cd
    m = alg.irrep(hw)
    spaces = m.weight_spaces()
    rho = (1,) * cd.rank
    order = sorted(spaces, key=lambda w: (-inner_scaled(cd, w, rho), tuple(-c for c in w)))
    for size in range(cd.rank + 1):
        for theta in itertools.combinations(range(1, cd.rank + 1), size):
            p = ParabolicData(cd, theta)
            expect = [(w, u) for w in order if all(w[j - 1] >= 0 for j in theta)
                      for u in reference_levi_hw_vectors(m, theta, spaces[w])]
            got = [(w, cols[0]) for w, _, cols in restrict_levi(m, p, alg.irreps).summands]
            assert got == expect, theta


@pytest.mark.parametrize("name,hw", relations_grid())
def test_dual_data_highest_weight_vector_matches_reference(name, hw):
    alg = algebra(name)
    _, q, _ = alg.dual_data(hw)
    assert q.column(0) == reference_dual_hwv(alg, hw)


def test_dual_data_rejects_a_raising_entry_into_the_lowest_weight():
    # one nonzero entry in the lowest-weight row of e_2 only; the dual
    # highest-weight space is then empty, and a check that dropped a raising
    # matrix (read e_1 alone) would not see it
    alg = CoeffAlgebra(cartan_data("A2"))
    m = alg.irrep((1, 0))
    low = m.weights.index(lowest_weight(alg.cd, (1, 0)))
    assert not any(r == low for r, _ in m.e_matrix(1).data)
    m.E[2].data[(low, 0)] = RF_ONE
    with pytest.raises(ArithmeticError,
                       match=r"^dual highest-weight space of \(1, 0\) has dimension 0$"):
        alg.dual_data((1, 0))
