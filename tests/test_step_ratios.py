"""The contravariant form carried as step ratios.

``build_module`` stores, for each basis vector s, its parent p(s) (the last
term of ``constructions[s]``, coefficient one) and the step ratio
g_s / g_p(s); the Gram diagonal is expanded only when ``gram`` is read.
Building and checking a module never expands it, and a module loaded from
its JSON payload carries the same ratios as the built one.
"""

import pytest

from qgroups import uqrep
from qgroups.cartan import cartan_data
from qgroups.scalar import RF_ONE
from qgroups.uqrep import build_irrep, build_module, check_serre, irrep_from_json, irrep_to_json

CASES = [("A1", (3,), (1,)), ("A2", (1, 1), (1, 2)), ("A2", (2, 1), (1, 2)),
         ("B2", (1, 1), (1, 2)), ("A3", (1, 0, 1), (1, 2, 3)), ("A3", (1, 1, 0), (1, 3))]


@pytest.mark.parametrize("name,hw", [("A1", (120,)), ("A2", (6, 6))])
def test_build_and_serre_check_leave_the_form_unexpanded(name, hw):
    m = build_irrep(cartan_data(name), hw)
    assert all(r["ok"] for r in check_serre(m))
    assert uqrep._gram_mirrors(m)
    assert m._gram is None


@pytest.mark.parametrize("name,hw,lowering", CASES)
def test_ratios_climb_the_construction_tree(name, hw, lowering):
    m = build_module(cartan_data(name), hw, lowering)
    gram = m.gram
    assert m.parents[0] == 0 and gram[0] == m.ratios[0] == RF_ONE
    for s in range(1, m.dim):
        p, i, c = m.constructions[s][-1]
        assert p == m.parents[s] < s and c == RF_ONE
        assert gram[s] == gram[p] * m.ratios[s]
    assert m.gram is gram   # expanded once, then kept


@pytest.mark.parametrize("name,hw,lowering", CASES)
def test_level_ratio_is_the_quotient_of_gram_values(name, hw, lowering):
    m = build_module(cartan_data(name), hw, lowering)
    gram = m.gram
    levels = [0] * m.dim
    for s in range(1, m.dim):
        levels[s] = levels[m.parents[s]] + 1
    for a in range(m.dim):
        for b in range(m.dim):
            if levels[a] == levels[b]:
                assert m.level_ratio[a, b] == gram[a] / gram[b]


@pytest.mark.parametrize("name,hw,lowering", CASES)
def test_loaded_module_carries_the_built_ratios(name, hw, lowering):
    cd = cartan_data(name)
    m = build_module(cd, hw, lowering)
    back = irrep_from_json(cd, irrep_to_json(m))
    assert back._gram is None
    assert back.ratios == m.ratios and back.parents == m.parents
    assert uqrep._gram_mirrors(back)
    assert back.gram == m.gram
