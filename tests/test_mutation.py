"""Every check can fail: one perturbed datum makes the matching suite fail.

Each test puts a fresh ``CoeffAlgebra`` where the suites find theirs, runs
the suite once on the intact data, then perturbs one datum in place (an E/F
matrix entry, a Gram value, a column of a Clebsch-Gordan basis, an entry of
a dual intertwiner Q) and runs the suite again, in a new context where the
first one has memoized what the datum feeds.  A perturbed entry is a new
rational function, so the scalar memos see new keys and cannot hide it.
"""

import pytest

from qgroups import coeff, verify
from qgroups.cartan import cartan_data
from qgroups.coeff import CoeffAlgebra
from qgroups.scalar import RationalFunction

TWO = RationalFunction.const(2)


@pytest.fixture
def fresh(monkeypatch):
    """A fresh algebra context for one type, injected into ``verify``."""

    def make(name):
        alg = CoeffAlgebra(cartan_data(name))
        monkeypatch.setitem(verify._ALGEBRAS, name, alg)
        return alg

    return make


def run(suite, name, max_weight):
    return suite(quick=True, algebra=name, max_weight=max_weight)["passed"]


@pytest.mark.parametrize("kind", ["E", "F"])
def test_perturbed_generator_entry_fails_relations(fresh, kind):
    alg = fresh("A2")
    assert run(verify.check_relations, "A2", 2)
    mat = getattr(alg.irrep((1, 1)), kind)[1]
    rc = min(mat.data)
    mat.data[rc] = mat.data[rc] * TWO
    assert not run(verify.check_relations, "A2", 2)


def test_perturbed_gram_value_fails_hopf(fresh):
    fresh("A1")
    assert run(verify.check_hopf, "A1", 1)
    # a new context: the intact decompositions are memoized in the first one
    alg = fresh("A1")
    gram = alg.irrep((1,)).gram
    gram[1] = gram[1] * TWO
    assert not run(verify.check_hopf, "A1", 1)


def test_perturbed_cg_column_fails_hopf(fresh, monkeypatch):
    fresh("A1")
    assert run(verify.check_hopf, "A1", 1)
    # a new context: the intact decompositions are memoized in the first one
    fresh("A1")
    decompose = coeff.decompose

    def perturbed(t, irreps):
        cgd = decompose(t, irreps)
        if (t.a.hw, t.b.hw) == ((1,), (1,)):
            basis = cgd.basis
            for rc in [rc for rc in basis.data if rc[1] == 0]:
                basis.data[rc] = basis.data[rc] * TWO
        return cgd

    monkeypatch.setattr(coeff, "decompose", perturbed)
    assert not run(verify.check_hopf, "A1", 1)


def test_perturbed_dual_intertwiner_fails_hopf(fresh):
    alg = fresh("A1")
    assert run(verify.check_hopf, "A1", 1)
    _, q, _ = alg.dual_data((1,))
    rc = min(q.data)
    q.data[rc] = q.data[rc] * TWO
    assert not run(verify.check_hopf, "A1", 1)
