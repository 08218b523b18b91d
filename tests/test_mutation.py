"""Every check can fail: one perturbed datum makes the matching suite fail.

Each test puts a fresh ``CoeffAlgebra`` where the suites find theirs, runs
the suite once on the intact data, then perturbs one datum in place (an E/F
matrix entry of a module or of a Levi module, a Gram value, a column of a
Clebsch-Gordan basis, an entry of a dual intertwiner Q) and runs the suite
again, in a new context where the first one has memoized what the datum
feeds.  A perturbed entry is a new rational function, so the scalar memos
see new keys and cannot hide it; the coproduct legs memo holds words only.
The ``dimensions`` suite reads no matrix entry; its case duplicates a basis
weight.
"""

import pytest

from qgroups import coeff, uqrep, verify
from qgroups.bundle import TruncationPolicy, borel_weil_check, frobenius_maps
from qgroups.cartan import cartan_data
from qgroups.coeff import CoeffAlgebra
from qgroups.parabolic import ParabolicData
from qgroups.scalar import Memo, RationalFunction

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


def double_first(mat):
    rc = min(mat.data)
    mat.data[rc] = mat.data[rc] * TWO


def test_duplicated_basis_weight_fails_dimensions(fresh):
    fresh("A1")
    assert run(verify.check_dimensions, "A1", 2)
    weights = fresh("A1").irrep((2,)).weights
    weights[1] = weights[0]
    assert not run(verify.check_dimensions, "A1", 2)


@pytest.mark.parametrize("kind", ["E", "F"])
def test_perturbed_generator_entry_fails_relations(fresh, kind):
    alg = fresh("A2")
    assert run(verify.check_relations, "A2", 2)
    double_first(getattr(alg.irrep((1, 1)), kind)[1])
    assert not run(verify.check_relations, "A2", 2)


# (suite, algebra, module weight, generator): the first entry of that
# generator's matrix is doubled; frobenius and borel_weil see it through W
@pytest.mark.parametrize("check,name,lam,kind", [
    ("schur", "A1", (1,), "F"),
    ("schur", "A1", (2,), "E"),
    ("projectivity", "A1", (1,), "E"),
    ("projectivity", "A1", (1,), "F"),
    ("frobenius", "A1", (2,), "E"),
    ("borel_weil", "A1", (2,), "F"),
    ("invariants", "A2", (1, 1), "E"),
])
def test_perturbed_module_entry_fails_suite(fresh, check, name, lam, kind):
    suite = verify.ALL_CHECKS[check]
    fresh(name)
    assert run(suite, name, None)
    alg = fresh(name)
    double_first(getattr(alg.irrep(lam), kind)[1])
    assert not run(suite, name, None)


@pytest.mark.parametrize("kind", ["E", "F"])
def test_perturbed_levi_generator_fails_hom_criterion(fresh, kind):
    fresh("A2")
    assert run(verify.check_hom_criterion, "A2", None)
    alg = fresh("A2")
    double_first(getattr(alg.irreps.levi(alg.cd, (1,), (1, -1)), kind)[1])
    assert not run(verify.check_hom_criterion, "A2", None)


def test_perturbed_levi_module_fails_frobenius(fresh):
    # a broken V gives no intertwiner on either side, while the branching
    # multiplicity of V in W = (1, 0) is 1; the A2 cases are on the full grid
    fresh("A2")
    assert verify.check_frobenius(algebra="A2")["passed"]
    alg = fresh("A2")
    double_first(alg.irreps.levi(alg.cd, (1,), (1, 0)).F[1])
    report = verify.check_frobenius(algebra="A2")
    assert report["details"]["failures"] == [
        {"case": ["A2", [1], [1, 0], [1, 0]], "failed": "dim_is_branching"}]


@pytest.mark.parametrize("kind", [None, "E", "F"])
def test_perturbed_two_dimensional_levi_module_fails_borel_weil(fresh, kind):
    # V = (1, -2) for theta = {1} is two-dimensional; its bundle has the
    # 8 sections of the module (1, 1), all in grade (1, 1) of height 2
    alg = fresh("A2")
    vmod = alg.irreps.levi(alg.cd, (1,), (1, -2))
    assert vmod.dim == 2
    if kind:
        double_first(getattr(vmod, kind)[1])
    rep = borel_weil_check(alg, vmod, ParabolicData(alg.cd, (1,)), TruncationPolicy(height=2))
    assert (rep["status"], rep["expected_dim"]) == ("fail" if kind else "pass", 8)
    assert rep["total_dim"] == (0 if kind else 8)


@pytest.mark.parametrize("name,theta,w,v,height", [
    ("A1", (), (2,), (2,), 3),
    ("A2", (1,), (1, 0), (1, 0), 2),
])
def test_k_diagonal_entry_times_v_fails_frobenius(fresh, name, theta, w, v, height):
    # the k_i rows of the induced intertwiner system are what the assembler's
    # presolve turns into forced zeros; a wrong k_1 eigenvalue of W must
    # still show as unequal dimensions or a failed round trip
    def report(perturb):
        alg = fresh(name)
        wmod = alg.irrep(w)
        if perturb:
            k = wmod.k_matrix(1)
            k.data[(0, 0)] = k.data[(0, 0)] * RationalFunction.v_power(1)
        return frobenius_maps(alg, ParabolicData(alg.cd, theta), wmod,
                              alg.irreps.levi(alg.cd, theta, v), TruncationPolicy(height=height))

    checks = ("dims_equal", "F_after_Fbar_is_identity", "Fbar_after_F_is_identity")
    assert all(report(False)[c] for c in checks)
    assert not all(report(True)[c] for c in checks)


def test_accepting_invariance_test_fails_invariants(fresh, monkeypatch):
    fresh("A2")
    assert run(verify.check_invariants, "A2", None)
    fresh("A2")
    monkeypatch.setattr(verify, "is_invariant_function", lambda alg, p, f: True)
    assert not run(verify.check_invariants, "A2", None)


def test_sign_flipped_gram_value_fails_haar_positivity(fresh):
    fresh("A1")
    assert run(verify.check_haar_positivity, "A1", None)
    gram = fresh("A1").irrep((1,)).gram
    gram[1] = -gram[1]
    assert not run(verify.check_haar_positivity, "A1", None)


def test_perturbed_entry_fails_hopf_with_warm_legs_memo(fresh, monkeypatch):
    monkeypatch.setattr(uqrep, "_LEGS", Memo(uqrep._LEGS.make))
    fresh("A1")
    assert run(verify.check_hopf, "A1", 1)
    assert uqrep._LEGS
    double_first(fresh("A1").irrep((1,)).E[1])
    assert not run(verify.check_hopf, "A1", 1)


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
    double_first(q)
    assert not run(verify.check_hopf, "A1", 1)
