"""Every check can fail: one perturbed datum makes the matching suite fail.

Each test puts a fresh ``CoeffAlgebra`` where the suites find theirs, runs
the suite once on the intact data, then perturbs one datum in place (an E/F
matrix entry of a module or of a Levi module, a Gram value, a column of a
Clebsch-Gordan basis, an entry of a dual intertwiner Q, the coproduct legs
of each word, or one leg that breaks the weight grading) and runs the suite
again, in a new context where the first one has memoized what the datum
feeds.  A perturbed entry is a new rational function, so the scalar memos
see new keys and cannot hide it; the coproduct legs memo holds words only.
The ``dimensions`` suite reads no matrix entry; its case duplicates a basis
weight.  Two cases concern the Gram certificate of ``check_serre``: a doubled
mirror pair E[r, c], F[c, r] keeps it, so ``relations`` fails through copied
f-side verdicts too, and a zero Gram value sends it down the direct path.

The Borel-Weil and Frobenius reports carry sub-verdicts, and targeted faults
turn each of them off alone: a doubled antipoded coefficient on a nonzero
column of phi (``route_ok``), a doubled F entry of the source module that
neither the intertwiner nor the direct solve reads (``action_ok``), a direct
solve that repeats a section (``span_ok``), and a doubled off-diagonal value
of the induced sections or of the rebuilt ones (``induced_intertwines``,
``Fbar_after_F_is_identity``).

``SITE_FAULTS`` names, for each of the 27 ``failures.append`` sites of
verify.py, a fault of data or code under which that site, and no other,
runs in its suite: a line tracer records the sites that run, and an AST
test keeps the table in step with the sites.
"""

import ast
import sys
from contextlib import contextmanager

import pytest

from qgroups import bundle, coeff, parabolic, uqrep, verify
from qgroups.bundle import TruncationPolicy, borel_weil_check, frobenius_maps
from qgroups.cartan import cartan_data
from qgroups.coeff import CoeffAlgebra, CoeffTensor
from qgroups.linalg import Mat
from qgroups.parabolic import ParabolicData, hom_space
from qgroups.scalar import RF_ZERO, Memo, NumericValue, RationalFunction
from retired_helpers import direct_check_serre, letterwise_leg_pairs

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


def double_first_term(terms):
    key = min(terms)
    terms[key] = terms[key] * TWO


def double_first(mat):
    double_first_term(mat.data)


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


def test_doubled_mirror_pair_fails_relations_on_both_serre_sides(fresh):
    alg = fresh("A2")
    assert run(verify.check_relations, "A2", 2)
    m = alg.irrep((1, 1))
    e, f = m.E[1].data, m.F[1].data
    r, c = min(e)
    e[r, c] = e[r, c] * TWO
    f[c, r] = f[c, r] * TWO
    # g_c F[c, r] = g_r E[r, c] still holds: the f-side verdicts are copies
    assert uqrep._gram_mirrors(m)
    report = verify.check_relations(quick=True, algebra="A2", max_weight=2)
    failed = {x["relation"] for x in report["details"]["failures"]}
    assert {"serre e1,e2", "serre f1,f2"} <= failed


def test_zero_gram_entry_takes_the_direct_path(fresh, monkeypatch):
    calls = []
    matmul = Mat.__matmul__

    def counted(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counted)

    def products(check, m):
        calls.clear()
        report = check(m)
        return len(calls), report

    m = fresh("A2").irrep((1, 1))
    mirrored, report = products(uqrep.check_serre, m)
    direct, want = products(direct_check_serre, m)
    assert report == want and mirrored < direct
    m.ratios[1] = RF_ZERO   # the stored step ratio: g_1 = 0
    assert not uqrep._gram_mirrors(m)
    assert products(uqrep.check_serre, m) == (direct, want)


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


def lost_lowest_vector(monkeypatch, alg):
    m = alg.irrep((2,))
    m.weights.pop()
    m.dim -= 1


def extra_central_map(monkeypatch, alg):
    # central_hom_count is the one caller of parabolic's binding
    intact = parabolic.hom_space

    def padded(*args):
        homs = intact(*args)
        homs.maps.extend(homs.maps[:1])
        return homs

    monkeypatch.setattr(parabolic, "hom_space", padded)


def dropped_induced_section(monkeypatch, alg):
    intact = bundle.sections_from_hom
    monkeypatch.setattr(bundle, "sections_from_hom", lambda *args: intact(*args)[:-1])


def repeated_levi_summand(monkeypatch, alg):
    intact = bundle.restrict_levi

    def repeated(*args):
        branching = intact(*args)
        branching.summands.append(branching.summands[0])
        return branching

    monkeypatch.setattr(bundle, "restrict_levi", repeated)


def nothing_invariant(monkeypatch, alg):
    # the negative control expects a rejection, and product_closure_check
    # reads bundle's own binding
    monkeypatch.setattr(verify, "is_invariant_function", lambda *args: False)


def eta_image_off_unit(monkeypatch, alg):
    # trivial_bundle_check is the one caller of bundle's binding; every key
    # (lambda, a, b) of the image moves to (lambda, a, b + 1)
    intact = bundle.eta_map

    def moved(zeta, wmod, direction="forward"):
        image = intact(zeta, wmod, direction)
        return image.copy_with({(lam, a, b + 1): vec for (lam, a, b), vec in image.data.items()})

    monkeypatch.setattr(bundle, "eta_map", moved)


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


BW_VERDICTS = ("support_ok", "dim_ok", "action_ok", "route_ok", "span_ok")


def a2_borel_weil(alg):
    """The A2 Borel-Weil case mu = (-1, 0) over the torus: the sections are
    those of W(0, 1), in the coefficient grade (1, 0); the verdicts that fail."""
    rep = borel_weil_check(alg, alg.irreps.levi(alg.cd, (), (-1, 0)),
                           ParabolicData(alg.cd, ()), TruncationPolicy(height=2))
    assert rep["expected_grade"] == (0, 1)
    return rep["status"], [k for k in BW_VERDICTS if not rep[k]]


def test_perturbed_antipode_on_a_nonzero_phi_column_fails_the_route(fresh, monkeypatch):
    alg = fresh("A2")
    assert a2_borel_weil(alg) == ("pass", [])
    alg = fresh("A2")
    source = alg.irrep((0, 1))
    phi = hom_space(source, alg.irreps.levi(alg.cd, (), (-1, 0)),
                    ParabolicData(alg.cd, ()), "parabolic").maps[0]
    cols = phi.columns()
    assert 0 < len(cols) < source.dim
    target = (source.hw, min(cols) + 1, 1)   # S(t_{j1}) for a nonzero column j
    antipoded = []

    def perturbed(alg, a):
        out = coeff.antipode(alg, a)
        antipoded.append(a)
        if target in a.terms:
            double_first_term(out.terms)
        return out

    monkeypatch.setattr(bundle, "antipode", perturbed)
    assert a2_borel_weil(alg) == ("fail", ["route_ok"])
    # the route antipodes t_{ji} for the nonzero columns j only
    assert len(antipoded) == source.dim * len(cols)


def test_perturbed_source_entry_fails_the_action(fresh):
    alg = fresh("A2")
    assert a2_borel_weil(alg) == ("pass", [])
    alg = fresh("A2")
    # Q of W(0, 1) is formed from the intact module; its F_1 is read by the
    # left-action check alone: the parabolic intertwiners over the torus
    # read k and e, and the direct solve runs on W(1, 0)
    alg.dual_data((0, 1))
    double_first(alg.irrep((0, 1)).F[1])
    assert a2_borel_weil(alg) == ("fail", ["action_ok"])


def test_repeated_direct_section_fails_the_span(fresh, monkeypatch):
    alg = fresh("A2")
    assert a2_borel_weil(alg) == ("pass", [])
    direct = bundle.sections_direct

    def repeated(*args):
        secs = direct(*args)
        if len(secs) > 1:
            secs[0] = secs[1]   # the count stays, the span shrinks
        return secs

    monkeypatch.setattr(bundle, "sections_direct", repeated)
    assert a2_borel_weil(fresh("A2")) == ("fail", ["span_ok"])


FROBENIUS_VERDICTS = ("dims_equal", "induced_intertwines", "F_after_Fbar_is_identity",
                      "Fbar_after_F_is_identity")


@pytest.mark.parametrize("call,verdict", [(1, "induced_intertwines"),
                                          (2, "Fbar_after_F_is_identity")])
def test_perturbed_induced_section_fails_one_frobenius_verdict(fresh, monkeypatch,
                                                                call, verdict):
    # A1, W = V = (2): one reductive intertwiner; sections_from_hom builds its
    # induced sections (call 1), then the sections of the round trip's
    # rebuilt intertwiner (call 2).  A value off the diagonal a = b is one
    # that the evaluation at the unit does not read.
    def failed():
        alg = fresh("A1")
        p = ParabolicData(alg.cd, ())
        rep = frobenius_maps(alg, p, alg.irrep((2,)), alg.irreps.levi(alg.cd, (), (2,)),
                             TruncationPolicy(height=3))
        assert len(rep["hom_basis"]) == 1
        return [k for k in FROBENIUS_VERDICTS if not rep[k]]

    assert failed() == []
    build, calls = bundle.sections_from_hom, []

    def perturbed(*args):
        secs = build(*args)
        calls.append(1)
        if len(calls) == call:
            vec = next(vec for z in secs for (_, a, b), vec in sorted(z.data.items()) if a != b)
            double_first_term(vec)
        return secs

    monkeypatch.setattr(bundle, "sections_from_hom", perturbed)
    assert failed() == [verdict]
    assert len(calls) == 2


def test_accepting_invariance_test_fails_invariants(fresh, monkeypatch):
    fresh("A2")
    assert run(verify.check_invariants, "A2", None)
    everything_invariant(monkeypatch, fresh("A2"))
    assert not run(verify.check_invariants, "A2", None)


def sign_flipped_gram_value(monkeypatch, alg):
    gram = alg.irrep((1,)).gram
    gram[1] = -gram[1]


def test_sign_flipped_gram_value_fails_haar_positivity(fresh, monkeypatch):
    fresh("A1")
    assert run(verify.check_haar_positivity, "A1", None)
    sign_flipped_gram_value(monkeypatch, fresh("A1"))
    assert not run(verify.check_haar_positivity, "A1", None)


def test_perturbed_entry_fails_hopf_with_warm_legs_memo(fresh, monkeypatch):
    monkeypatch.setattr(uqrep, "_LEGS", Memo(uqrep._LEGS.make))
    fresh("A1")
    assert run(verify.check_hopf, "A1", 1)
    assert uqrep._LEGS
    double_first(fresh("A1").irrep((1,)).E[1])
    assert not run(verify.check_hopf, "A1", 1)


def dropped_first_leg(word):
    """The leg pairs of a word without its first one.  They come from the
    letter-by-letter construction: ``uqrep._leg_pairs`` reads the legs of the
    word's suffix from the faulted memo, so with it every word would lose
    all of its legs, not one."""
    return letterwise_leg_pairs(word)[1:]


def dropped_coproduct_leg(monkeypatch, alg):
    # word_pairing reads the legs of each word from this memo
    monkeypatch.setattr(uqrep, "_LEGS", Memo(dropped_first_leg))


def test_dropped_coproduct_leg_fails_hopf(fresh, monkeypatch):
    fresh("A1")
    assert run(verify.check_hopf, "A1", 1)
    dropped_coproduct_leg(monkeypatch, fresh("A1"))
    report = verify.check_hopf(quick=True, algebra="A1", max_weight=1)
    assert not report["passed"]
    assert {f["law"] for f in report["details"]["failures"]} == {"duality"}


def off_weight_legs(word):
    """The leg pairs of a coproduct that breaks the weight grading: Delta(f_i)
    gains the piece K_i (x) e_i, of weight 0 + alpha_i, not -alpha_i."""
    legs = [((), ())]
    for kind, i in word:
        pieces = uqrep._leg_pairs(((kind, i),))
        if kind == "f":
            pieces += (((("K", i),), (("e", i),)),)
        legs = [(w1 + p1, w2 + p2) for w1, w2 in legs for p1, p2 in pieces]
    return tuple(legs)


def test_off_weight_coproduct_leg_fails_hopf(fresh, monkeypatch):
    fresh("A1")
    assert run(verify.check_hopf, "A1", 1)
    # <t_jj t_rs, f_1> = 0 by weight, but the extra leg pairs t_jj with K_1
    # and t_rs with e_1: the graded pairing must still read that leg
    monkeypatch.setattr(uqrep, "_LEGS", Memo(off_weight_legs))
    fresh("A1")
    report = verify.check_hopf(quick=True, algebra="A1", max_weight=1)
    assert not report["passed"]
    assert {f["law"] for f in report["details"]["failures"]} == {"duality"}


def hopf_failed_laws(fresh):
    fresh("A1")
    report = verify.check_hopf(quick=True, algebra="A1", max_weight=2)
    assert not report["passed"]
    return {f["law"] for f in report["details"]["failures"]}


def twisted_coproduct(monkeypatch, alg):
    intact = verify.coproduct

    def twisted(alg, a):
        # t_ik (x) t_kj doubled where i < k < j: both counits keep their
        # k = i and k = j terms, so only the two re-expansions differ
        return CoeffTensor({(k1, k2): c * TWO if k1[1] < k1[2] < k2[2] else c
                            for (k1, k2), c in intact(alg, a).terms.items()})

    monkeypatch.setattr(verify, "coproduct", twisted)


def doubled_coproduct(monkeypatch, alg):
    intact = verify.coproduct

    def doubled(alg, a):
        # 2 Delta is still coassociative (both sides gain a factor 4), but
        # each counit gives back 2 t_ij
        return CoeffTensor({k: c * TWO for k, c in intact(alg, a).terms.items()})

    monkeypatch.setattr(verify, "coproduct", doubled)


def test_twisted_coproduct_fails_only_coassociativity(fresh, monkeypatch):
    fresh("A1")
    assert run(verify.check_hopf, "A1", 2)
    twisted_coproduct(monkeypatch, None)
    assert hopf_failed_laws(fresh) == {"coassociativity"}


def test_doubled_coproduct_fails_only_counit(fresh, monkeypatch):
    fresh("A1")
    assert run(verify.check_hopf, "A1", 2)
    doubled_coproduct(monkeypatch, None)
    assert hopf_failed_laws(fresh) == {"counit"}


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


def doubled_entry(kind, lam):
    """The first entry of the E_1 or F_1 matrix of the module lam doubled."""
    def fault(monkeypatch, alg):
        double_first(getattr(alg.irrep(lam), kind)[1])
    fault.__name__ = f"doubled_{kind}_entry_of_{''.join(map(str, lam))}"
    return fault


def duplicated_basis_weight(monkeypatch, alg):
    # the dimension stays, the multiplicities move
    weights = alg.irrep((2,)).weights
    weights[1] = weights[0]


def doubled_levi_entry(monkeypatch, alg):
    double_first(alg.irreps.levi(alg.cd, (1,), (1, -1)).E[1])


def doubled_antipode(monkeypatch, alg):
    # the antipode laws are the suite's one reader of verify's binding
    intact = verify.antipode
    monkeypatch.setattr(verify, "antipode", lambda alg, a: intact(alg, a).scale(TWO))


def doubled_closed_form(variant):
    """schur_pair doubled for one index pattern only."""
    def fault(monkeypatch, alg):
        intact = verify.schur_pair
        monkeypatch.setattr(verify, "schur_pair", lambda *args: intact(*args) * TWO
                            if args[-1] == variant else intact(*args))
    fault.__name__ = f"doubled_{variant}_closed_form"
    return fault


class TopDoubled:
    """A Cartan monomial whose matrix (or inverse matrix) is doubled at the
    highest-weight vector, basis index 0."""

    def __init__(self, mono, inverse):
        self.mono, self.inverse = mono, inverse

    def matrix(self, m, inverse=False):
        mat = self.mono.matrix(m, inverse)
        if inverse == self.inverse:
            mat.data[0, 0] = mat.data[0, 0] * TWO
        return mat


def k2rho_doubled_at_the_top(inverse):
    """verify's k2rho feeds the matrix form of S^2 alone.  Row 0 of
    k e_i k^-1 reads k at the top, and only e_i has entries there (the e
    site); column 0 of k f_i k^-1 reads k^-1 at the top, and only f_i has
    entries there (the f site)."""
    def fault(monkeypatch, alg):
        intact = verify.k2rho
        monkeypatch.setattr(verify, "k2rho", lambda cd: TopDoubled(intact(cd), inverse))
    fault.__name__ = f"k2rho{'_inverse' if inverse else ''}_doubled_at_the_top"
    return fault


def unit_k2rho_word(monkeypatch, alg):
    # verify's k2rho_word feeds the pairing form of S^2 alone
    monkeypatch.setattr(verify, "k2rho_word", lambda cd: uqrep.AlgebraWord.unit())


def integral_plus_one(monkeypatch, alg):
    # positive values stay positive; the zero element's integral becomes 1
    intact = verify.haar_positivity
    monkeypatch.setattr(verify, "haar_positivity", lambda alg, a, v0: NumericValue(
        intact(alg, a, v0).value + 1))


def nothing_closed(monkeypatch, alg):
    # product_closure_check is the one reader of bundle's binding here
    monkeypatch.setattr(bundle, "is_invariant_function", lambda *args: False)


def everything_invariant(monkeypatch, alg):
    monkeypatch.setattr(verify, "is_invariant_function", lambda *args: True)


def doubled_kappa(monkeypatch, alg):
    # kappa appears in the round trips only
    intact = verify.kappa_map

    def doubled(zeta, wmod, direction="forward"):
        image = intact(zeta, wmod, direction)
        if direction == "forward":
            image = image.copy_with({key: {r: x * TWO for r, x in vec.items()}
                                     for key, vec in image.data.items()})
        return image

    monkeypatch.setattr(verify, "kappa_map", doubled)


def inverse_eta_doubled_on_high_grades(monkeypatch, alg):
    # the round trips draw sections from the trivial grade and the module's
    # own, so eta's images reach at most twice the module's grade; the eta
    # checks of the induced sections also start two grades above it
    intact = verify.eta_map

    def doubled(zeta, wmod, direction="forward"):
        image = intact(zeta, wmod, direction)
        if direction == "inverse" and any(sum(lam) > 2 * sum(wmod.hw) for lam, _, _ in zeta.data):
            image = image.copy_with({key: {r: x * TWO for r, x in vec.items()}
                                     for key, vec in image.data.items()})
        return image

    monkeypatch.setattr(verify, "eta_map", doubled)


def failure_sites():
    """Every ``failures.append`` call in verify.py, as {line: (suite, site)}.

    A site is named by the constant strings of the dict it appends, an
    f-string giving its leading constant (so the e and f records of
    s_squared are two sites), or by its suite when the dict has none.
    """
    with open(verify.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    sites = {}
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("check_")):
            continue
        suite = fn.name[len("check_"):]
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and getattr(node.func.value, "id", None) == "failures"):
                continue
            words = []
            for value in node.args[0].values:
                if isinstance(value, ast.JoinedStr):
                    value = value.values[0]
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    words.append(value.value)
            sites[node.lineno] = (suite, " ".join(words) or suite)
    return sites


@contextmanager
def fired_sites():
    """The failure sites of verify.py that run inside the block."""
    sites, fired, path = failure_sites(), set(), verify.__file__

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno in sites:
            fired.add(sites[frame.f_lineno])
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code.co_filename == path else None)
    try:
        yield fired
    finally:
        sys.settrace(previous)


# (suite, algebra, fault, the one failure site it must fire): one row per site
SITE_FAULTS = [
    ("relations", "A2", doubled_entry("E", (1, 1)), "relations"),
    ("dimensions", "A1", lost_lowest_vector, "dimension"),
    ("dimensions", "A1", duplicated_basis_weight, "multiplicity"),
    ("hopf", "A1", twisted_coproduct, "coassociativity"),
    ("hopf", "A1", doubled_coproduct, "counit"),
    ("hopf", "A1", doubled_antipode, "antipode"),
    ("hopf", "A1", dropped_coproduct_leg, "duality"),
    ("schur", "A1", doubled_closed_form("t_dual"), "t_dual"),
    ("schur", "A1", doubled_closed_form("dual_t"), "dual_t"),
    ("schur", "A1", k2rho_doubled_at_the_top(False), "s_squared e"),
    ("schur", "A1", k2rho_doubled_at_the_top(True), "s_squared f"),
    ("schur", "A1", unit_k2rho_word, "s_squared_pairing"),
    ("haar_positivity", "A1", sign_flipped_gram_value, "nonpositive"),
    ("haar_positivity", "A1", integral_plus_one, "zero-element"),
    ("hom_criterion", "A2", doubled_levi_entry, "hom_criterion"),
    ("invariants", "A2", extra_central_map, "central_count"),
    ("invariants", "A2", dropped_induced_section, "gamma_dim"),
    ("invariants", "A2", nothing_invariant, "invariance"),
    ("invariants", "A2", nothing_closed, "product_closure"),
    ("invariants", "A2", everything_invariant, "negative_control"),
    ("projectivity", "A1", repeated_levi_summand, "complement_dim"),
    ("projectivity", "A1", doubled_kappa, "roundtrip"),
    ("projectivity", "A1", nothing_invariant, "eta_membership"),
    ("projectivity", "A1", inverse_eta_doubled_on_high_grades, "eta_inverse"),
    ("frobenius", "A1", doubled_entry("E", (2,)), "frobenius"),
    ("borel_weil", "A1", doubled_entry("F", (2,)), "borel_weil"),
    ("borel_weil", "A1", eta_image_off_unit, "trivial_bundle"),
]


@pytest.mark.parametrize("check,name,fault,kind", SITE_FAULTS)
def test_fault_fires_one_failure_site_alone(fresh, monkeypatch, check, name, fault, kind):
    suite = verify.ALL_CHECKS[check]
    fresh(name)
    with fired_sites() as fired:
        assert run(suite, name, None)
    assert fired == set()
    fault(monkeypatch, fresh(name))
    with fired_sites() as fired:
        report = suite(quick=True, algebra=name, max_weight=None)
    assert report["details"]["failures"]
    assert fired == {(check, kind)}


def test_every_failure_site_is_named_by_a_fault():
    sites = list(failure_sites().values())
    assert len(sites) == len(set(sites)) == 27
    assert sorted(sites) == sorted((check, kind) for check, _, _, kind in SITE_FAULTS)
