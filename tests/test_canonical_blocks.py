"""One block extractor, one generator interface and one character peel.

``tensor.canonical_blocks`` splits a module into canonical blocks for both
callers: ``tensor.decompose`` (full irreducibles of a tensor product) and
``parabolic.restrict_levi`` (Levi irreducibles of a full module).
``cartan.peel_characters`` serves both classical oracles, and the k_i of a
``TensorModule`` come from the ``uqrep.WeightModule`` memo.  Each is checked
``==`` against the frozen loop it replaced (``tests/retired_helpers.py``) on
the tensor pairs of the quick relations grid and on every Theta of A2, B2
and A3 over the relations grid; the shared "blocks fill the module" check
is shown to fire from both splits.
"""

import itertools

import pytest

from qgroups.cartan import char_decompose_oracle
from qgroups.parabolic import ParabolicData, branching_oracle, restrict_levi
from qgroups.tensor import TensorModule, decompose, tensor_module
from qgroups.uqrep import IrrepModule, WeightModule
from qgroups.verify import algebra, relations_grid
from retired_helpers import (
    loop_decompose,
    loop_restrict_levi,
    peeling_branching_oracle,
    peeling_char_decompose_oracle,
    rebuilt_k_matrix,
)

def tensor_pairs():
    """Every ordered pair of quick relations-grid weights of one algebra."""
    by_name = {}
    for name, hw in relations_grid(quick=True):
        by_name.setdefault(name, []).append(hw)
    return [(name, lam, mu) for name, weights in by_name.items()
            for lam, mu in itertools.product(weights, repeat=2)]


def every_theta(cd):
    return [theta for size in range(cd.rank + 1)
            for theta in itertools.combinations(cd.simple_indices(), size)]


LEVI_CASES = [(name, hw) for name, hw in relations_grid() if name in ("A2", "B2", "A3")]


def test_tensor_pairs_cover_every_algebra():
    pairs = tensor_pairs()
    assert {name for name, _, _ in pairs} == {"A1", "A2", "A3", "B2"}
    assert ("B2", (1, 1), (1, 1)) in pairs and len(pairs) == 86


@pytest.mark.parametrize("name,lam,mu", tensor_pairs())
def test_decompose_matches_the_loop_it_replaced(name, lam, mu):
    alg = algebra(name)
    t = tensor_module(alg.irrep(lam), alg.irrep(mu))
    got, want = decompose(t, alg.irreps), loop_decompose(t, alg.irreps)
    assert got.components == want.components
    assert got.basis == want.basis
    assert got.block_index == want.block_index
    assert got.blocks == want.blocks
    assert char_decompose_oracle(alg.cd, lam, mu) == peeling_char_decompose_oracle(
        alg.cd, lam, mu)
    for i, inverse in itertools.product(alg.cd.simple_indices(), (False, True)):
        assert t.k_matrix(i, inverse) == rebuilt_k_matrix(t, i, inverse)


@pytest.mark.parametrize("name,hw", LEVI_CASES)
def test_restrict_levi_and_branching_match_the_loops_they_replaced(name, hw):
    alg = algebra(name)
    m = alg.irrep(hw)
    for theta in every_theta(alg.cd):
        p = ParabolicData(alg.cd, theta)
        got, want = restrict_levi(m, p, alg.irreps), loop_restrict_levi(m, p, alg.irreps)
        assert got.summands == want.summands, theta
        assert got.multiplicities() == branching_oracle(alg.cd, p, hw), theta
        assert branching_oracle(alg.cd, p, hw) == peeling_branching_oracle(alg.cd, p, hw), theta


def test_one_generator_interface():
    for cls in (IrrepModule, TensorModule):
        assert issubclass(cls, WeightModule)
    for method in ("gen_matrix", "k_matrix", "weight_spaces"):
        assert method not in vars(TensorModule) and method not in vars(IrrepModule)


def test_tensor_k_matrix_is_kept(a2):
    t = tensor_module(a2.irrep((1, 0)), a2.irrep((0, 1)))
    assert t.k_matrix(1) is t.k_matrix(1)
    assert t.k_matrix(1, inverse=True) is t.gen_matrix(("K", 1))


class TrivialLevi:
    """A cache whose every block is the one-dimensional trivial module: the
    blocks then fall short of the module they should fill."""

    def __init__(self, irreps):
        self.irreps = irreps

    def levi(self, cd, theta, hw):
        return self.irreps.levi(cd, theta, (0,) * cd.rank)


def test_short_blocks_fail_the_tensor_split(a1):
    t = tensor_module(a1.irrep((1,)), a1.irrep((1,)))
    with pytest.raises(ArithmeticError, match=r"^blocks cover 2 of 4 dimensions$"):
        decompose(t, TrivialLevi(a1.irreps))


def test_short_blocks_fail_the_levi_split(a2):
    # theta = {1}: the adjoint splits into 3 + 2 + 2 + 1 dimensions
    p = ParabolicData(a2.cd, (1,))
    with pytest.raises(ArithmeticError, match=r"^blocks cover 4 of 8 dimensions$"):
        restrict_levi(a2.irrep((1, 1)), p, TrivialLevi(a2.irreps))


def test_full_levi_lookup_is_the_irrep_lookup(a2):
    assert a2.irreps.levi(a2.cd, (2, 1), (1, 1)) is a2.irreps.irrep(a2.cd, (1, 1))
