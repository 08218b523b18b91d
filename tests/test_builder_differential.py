"""Differential test of ``uqrep.build_module`` against the Gram-matrix builder
it replaced (``retired_helpers.gram_build_module``).

Both builders work in exact arithmetic, so weights, Gram entries,
constructions and every E/F entry must be equal, not merely close.  The new
builder stores the form as step ratios; its first read of ``gram`` expands
them and must give the old builder's values.  The
sweep covers the full relations grid (B2 (2,2) included) and every Levi
module of A1/A2/A3/B2 whose highest weight lies in [-2, 2]^rank and is
dominant for its lowering set.
"""

import itertools

from qgroups import uqrep, verify
from qgroups.cartan import cartan_data
from retired_helpers import gram_build_module


def sweep():
    cases = []
    for name, hw in verify.relations_grid():
        cd = cartan_data(name)
        cases.append((cd, hw, tuple(range(1, cd.rank + 1))))
    for name in ("A1", "A2", "A3", "B2"):
        cd = cartan_data(name)
        indices = range(1, cd.rank + 1)
        for theta in itertools.chain.from_iterable(
                itertools.combinations(indices, r) for r in range(cd.rank + 1)):
            for hw in itertools.product(range(-2, 3), repeat=cd.rank):
                if all(hw[i - 1] >= 0 for i in theta):
                    cases.append((cd, hw, theta))
    return cases


def dropped_nonzero_candidate(m):
    """Whether some nonzero candidate f_i v_p had a zero residual.

    The accepted candidate of basis vector s is the last term of
    ``constructions[s]``; a candidate that is not accepted but has a
    nonzero F_i column at p was a combination of accepted vectors.
    """
    accepted = {entry[-1][:2] for entry in m.constructions[1:]}
    return any((p, i) not in accepted
               for i, f in m.F.items() for _, p in f.data)


def test_build_module_equals_the_gram_matrix_builder():
    cases = sweep()
    assert len(cases) == len(verify.relations_grid()) + 648
    dropped = multiple = False
    for cd, hw, lowering in cases:
        new, old = uqrep.build_module(cd, hw, lowering), gram_build_module(cd, hw, lowering)
        what = (cd.name, hw, lowering)
        assert new.weights == old.weights, what
        assert new._gram is None, what
        assert new.gram == old.gram, what
        assert new.constructions == old.constructions, what
        assert new.E.keys() == old.E.keys() == new.F.keys() == old.F.keys(), what
        for i in new.E:
            assert new.E[i].data == old.E[i].data, what
            assert new.F[i].data == old.F[i].data, what
        dropped = dropped or dropped_nonzero_candidate(new)
        multiple = multiple or any(len(s) >= 2 for s in new.weight_spaces().values())
    # the sweep reaches both the projection and the zero-residual branch
    assert dropped and multiple
