"""The dual representation x -> t(S(x))^T, written once.

``tensor.DualModule`` reads the one antipode table ``uqrep._ANTIPODE``, and
``coeff.CoeffAlgebra.dual_data`` and ``bundle.sections_direct`` both go
through it.  So a wrong S(f_i) in the table must reach the antipode law of
``hopf`` and the section checks of ``frobenius`` and ``borel_weil``; and the
dual of every module must satisfy every defining relation.  A dual carries
no step ratios, so ``check_serre`` computes each of its records directly.
"""

import pytest

from qgroups import uqrep, verify
from qgroups.cartan import cartan_data
from qgroups.coeff import CoeffAlgebra
from qgroups.parabolic import ParabolicData, hom_space
from qgroups.tensor import DualModule
from qgroups.uqrep import (AlgebraWord, act_word, antipode_inv_word, antipode_word, build_irrep,
                           build_module, check_serre)
from test_serre_mirror import LEVI_MODULES

SUITES = [verify.check_hopf, verify.check_borel_weil, verify.check_frobenius]


def fresh_a1(monkeypatch):
    monkeypatch.setitem(verify._ALGEBRAS, "A1", CoeffAlgebra(cartan_data("A1")))


def run_quick_a1(suite):
    return suite(quick=True, algebra="A1", max_weight=None)


@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.__name__)
def test_flipped_antipode_of_f_fails_the_suite(monkeypatch, suite):
    fresh_a1(monkeypatch)
    assert run_quick_a1(suite)["passed"]
    # S(f_i) = -q_i f_i instead of -q_i^-1 f_i, in the one table
    monkeypatch.setitem(uqrep._ANTIPODE, "f", lambda cd, i: ("f", -uqrep._q_i(cd, i)))
    fresh_a1(monkeypatch)
    report = run_quick_a1(suite)
    assert not report["passed"]
    assert report["details"]["failures"]


def test_antipode_inverse_is_read_off_the_table(a2):
    cd = a2.cd
    for kind in "efkK":
        for i in (1, 2):
            x = AlgebraWord.of_gen((kind, i))
            assert antipode_inv_word(cd, antipode_word(cd, x)) == x
            assert antipode_word(cd, antipode_inv_word(cd, x)) == x
    word = AlgebraWord.of_word(("e", 1), ("f", 2), ("k", 1))
    assert antipode_inv_word(cd, antipode_word(cd, word)) == word


def test_dual_module_acts_by_the_transposed_antipode(a2):
    m = a2.irrep((1, 1))
    dual = DualModule(m)
    assert dual.weights == [tuple(-c for c in w) for w in m.weights]
    assert dual.lowering == m.lowering
    for gen in [(kind, i) for kind in "efkK" for i in (1, 2)]:
        expect = act_word(m, antipode_word(a2.cd, AlgebraWord.of_gen(gen))).transpose()
        assert dual.gen_matrix(gen) == expect, gen
    # memoized per instance
    assert dual.e_matrix(1) is dual.e_matrix(1)


def test_hom_space_forms_no_dual_matrix_without_unknowns(a2):
    # no weight of the dual of W(1, 0) is zero, the weight of the trivial module
    p = ParabolicData(a2.cd, (1,))
    dual = DualModule(a2.irrep((1, 0)))
    trivial = a2.irreps.levi(a2.cd, (1,), (0, 0))
    assert len(hom_space(dual, trivial, p, "parabolic")) == 0
    assert not dual._gens


def assert_every_record_holds(m):
    dual = DualModule(m)
    assert not uqrep._gram_mirrors(dual)
    report = check_serre(dual)
    assert report and all(entry["ok"] for entry in report), report


@pytest.mark.parametrize("name,hw", verify.relations_grid(quick=True))
def test_dual_of_grid_module_satisfies_every_relation(name, hw):
    assert_every_record_holds(build_irrep(cartan_data(name), hw))


@pytest.mark.parametrize("name,hw,lowering", LEVI_MODULES)
def test_dual_of_levi_module_satisfies_every_relation(name, hw, lowering):
    assert_every_record_holds(build_module(cartan_data(name), hw, lowering))
