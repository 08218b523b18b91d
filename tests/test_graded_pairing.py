"""The weight-graded pairing against the ungraded one it replaced.

``coeff_eval`` and ``word_pairing`` compare weights before they read a
module entry: <t^(lam)_{ij}, w> = 0 unless wt_lam(i) - wt_lam(j) = wt(w).
That is exact on weight-homogeneous modules, so on every module of
``verify._COEFFICIENTS`` and every word of length <= 3 both must give the
values of the frozen ``ungraded_coeff_eval`` and ``ungraded_word_pairing``:
on basis coefficients, on products and antipodes (several terms), and on
combinations of several words with coefficients other than one.
``check_hopf`` must give the same report with either pair, intact and under
the hopf faults of ``test_mutation.py``, one of them a coproduct leg that
breaks the weight grading.

The grading rests on homogeneity, and ``check_serre`` can see it broken.
Its weight test must be exact for every weight: crafted modules with
coordinates of +-10^6 and +-10^30, in module weights and in word weights
(through a stand-in Cartan datum with huge simple roots), show that an entry
is read exactly when its weight step equals the word's weight.
"""

import itertools
import random

import pytest

from qgroups import coeff, uqrep, verify
from qgroups.cartan import cartan_data
from qgroups.coeff import (CoeffAlgebra, CoeffElement, antipode, coeff_eval,
                           k2rho_word, product, word_pairing)
from qgroups.linalg import Mat
from qgroups.scalar import RF_ONE, RF_ZERO, Memo, RationalFunction
from qgroups.uqrep import AlgebraWord, IrrepModule, build_irrep, check_serre
from retired_helpers import ungraded_coeff_eval, ungraded_word_pairing
from test_mutation import dropped_first_leg, off_weight_legs

MODULES = [row.case for row in verify._COEFFICIENTS]


def words(cd, length=3):
    gens = verify._word_alphabet(cd)
    return [w for n in range(length + 1) for w in itertools.product(gens, repeat=n)]


def index_quads(alg, lam, name, count):
    """Every (i, j, r, s) on A1, a seeded sample elsewhere."""
    d = alg.irrep(lam).dim
    quads = list(itertools.product(range(1, d + 1), repeat=4))
    if name == "A1":
        return quads
    return random.Random(f"{name}{lam}").sample(quads, min(count, len(quads)))


@pytest.mark.parametrize("name,lam", MODULES, ids=[f"{n}{w}" for n, w in MODULES])
def test_graded_pairing_equals_the_ungraded_one(name, lam):
    alg = verify.algebra(name)
    ws = words(alg.cd)
    xs = [AlgebraWord.of_word(*w) for w in ws]
    quads = index_quads(alg, lam, name, 4)
    for i, j, r, s in quads:
        a, b = CoeffElement.basis(lam, i, j), CoeffElement.basis(lam, r, s)
        ab = product(alg, a, b)
        # a bare word and an AlgebraWord are both accepted by coeff_eval
        for w, x in zip(ws, xs):
            assert coeff_eval(alg, a, w) == ungraded_coeff_eval(alg, a, w), (i, j, w)
            assert coeff_eval(alg, ab, x) == ungraded_coeff_eval(alg, ab, x), (i, j, r, s, w)
            assert word_pairing(alg, a, b, x) == ungraded_word_pairing(alg, a, b, x), \
                (i, j, r, s, w)


@pytest.mark.parametrize("name,lam", MODULES[:4] + MODULES[5:7],
                         ids=[f"{n}{w}" for n, w in MODULES[:4] + MODULES[5:7]])
def test_graded_pairing_on_several_terms_and_words(name, lam):
    alg = verify.algebra(name)
    cd = alg.cd
    d = alg.irrep(lam).dim
    rng = random.Random(f"terms{name}{lam}")
    gens = verify._word_alphabet(cd)
    conj = k2rho_word(cd)
    conj_inv = AlgebraWord({tuple(("K" if kind == "k" else "k", i) for kind, i in word): c
                            for word, c in conj.terms.items()})
    # check_schur's conjugates, and sums of words with coefficients v^e + 2
    xs = [conj * AlgebraWord.of_gen(g) * conj_inv for g in gens]
    for _ in range(12):
        picked = rng.sample(words(cd, 2), 3)
        xs.append(AlgebraWord({w: RationalFunction.v_power(rng.randint(-3, 3), rng.randint(1, 2))
                               for w in picked}))
    pairs = [(rng.randint(1, d), rng.randint(1, d)) for _ in range(6)]
    elements = []
    for i, j in pairs:
        a = CoeffElement.basis(lam, i, j)
        elements += [antipode(alg, a), antipode(alg, antipode(alg, a)),
                     product(alg, a, CoeffElement.basis(lam, j, i))]
    for x in xs:
        for a in elements:
            assert coeff_eval(alg, a, x) == ungraded_coeff_eval(alg, a, x)
        for a, b in zip(elements, elements[1:]):
            assert word_pairing(alg, a, b, x) == ungraded_word_pairing(alg, a, b, x)


def ungraded(monkeypatch):
    monkeypatch.setattr(verify, "coeff_eval", ungraded_coeff_eval)
    monkeypatch.setattr(verify, "word_pairing", ungraded_word_pairing)


def fresh(monkeypatch, name="A1"):
    alg = CoeffAlgebra(cartan_data(name))
    monkeypatch.setitem(verify._ALGEBRAS, name, alg)
    return alg


def test_full_check_hopf_report_equals_the_ungraded_one(monkeypatch):
    graded = verify.check_hopf()
    with monkeypatch.context() as m:
        ungraded(m)
        assert verify.check_hopf() == graded
    assert graded["passed"]


def double_first(mat):
    rc = min(mat.data)
    mat.data[rc] = mat.data[rc] * RationalFunction.const(2)


def perturbed_entry(monkeypatch):
    double_first(fresh(monkeypatch).irrep((1,)).E[1])


def dropped_leg(monkeypatch):
    fresh(monkeypatch)
    monkeypatch.setattr(uqrep, "_LEGS", Memo(dropped_first_leg))


def off_weight_leg(monkeypatch):
    fresh(monkeypatch)
    monkeypatch.setattr(uqrep, "_LEGS", Memo(off_weight_legs))


def perturbed_gram(monkeypatch):
    gram = fresh(monkeypatch).irrep((1,)).gram
    gram[1] = gram[1] * RationalFunction.const(2)


def perturbed_cg_column(monkeypatch):
    fresh(monkeypatch)
    decompose = coeff.decompose

    def perturbed(t, irreps):
        cgd = decompose(t, irreps)
        if (t.a.hw, t.b.hw) == ((1,), (1,)):
            for rc in [rc for rc in cgd.basis.data if rc[1] == 0]:
                cgd.basis.data[rc] = cgd.basis.data[rc] * RationalFunction.const(2)
        return cgd

    monkeypatch.setattr(coeff, "decompose", perturbed)


def perturbed_dual_intertwiner(monkeypatch):
    _, q, _ = fresh(monkeypatch).dual_data((1,))
    double_first(q)


@pytest.mark.parametrize("fault", [perturbed_entry, dropped_leg, off_weight_leg, perturbed_gram,
                                   perturbed_cg_column, perturbed_dual_intertwiner])
def test_faulted_check_hopf_report_equals_the_ungraded_one(fault, monkeypatch):
    def report(graded):
        with monkeypatch.context() as m:
            fault(m)
            if not graded:
                ungraded(m)
            return verify.check_hopf(quick=True, algebra="A1", max_weight=1)

    want = report(False)
    assert not want["passed"]
    assert report(True) == want


def test_moved_e_entry_fails_a_k_conjugation_record():
    # the grading needs E_i[r, c] != 0 only where wt(r) = wt(c) + alpha_i
    m = build_irrep(cartan_data("A2"), (1, 1))
    assert all(rec["ok"] for rec in check_serre(m))
    e = m.E[1].data
    (r, c), x = min(e.items())
    alpha = m.cd.alpha_fundamental(1)
    row = next(t for t in range(m.dim) if (t, c) not in e and
               m.weights[t] != tuple(a + b for a, b in zip(m.weights[c], alpha)))
    del e[r, c]
    e[row, c] = x
    failed = {rec["relation"] for rec in check_serre(m) if not rec["ok"]}
    assert any(name.startswith("k") and " e1 " in name for name in failed), failed


class StandInCartan:
    """What the pairing reads of a Cartan datum: the rank, the d_i and the
    simple roots in fundamental coordinates, here free to be huge."""

    def __init__(self, alphas):
        self.alphas = alphas
        self.rank = len(alphas)
        self.d = (1,) * self.rank

    def alpha_fundamental(self, i):
        return self.alphas[i - 1]


def crafted(cd, weights, entries):
    """A CoeffAlgebra holding one module with the given basis weights and
    E entries {(i, r, c): value}, each F_i the transposed E_i (so a step that
    matches alpha_i keeps the module homogeneous), under the weight (7,) *
    rank."""
    alg = CoeffAlgebra(cd)
    n = len(weights)
    lowering = tuple(range(1, cd.rank + 1))
    e = {i: Mat(n, n, {(r, c): x for (k, r, c), x in entries.items() if k == i})
         for i in lowering}
    f = {i: m.transpose() for i, m in e.items()}
    lam = (7,) * cd.rank
    alg.irreps._store[cd, lam, lowering] = IrrepModule(
        cd, weights[0], lowering, weights, e, f, [RF_ONE] * n, [[] for _ in range(n)])
    return alg, lam


BIG = [10 ** 6, -10 ** 6, 10 ** 30, -10 ** 30]
PROBE = RationalFunction.const(3)


def offsets(big):
    # near misses, and misses that a packing of 16 bits a coordinate would
    # take for hits
    return [(1, 0), (0, -1), (2 ** 16, -1), (-2 ** 16, 1),
            (big, 0), (0, big), (big, -big), (2 ** 16 * big, -big)]


def read(alg, lam, word):
    """coeff_eval on t_{1,2} and word_pairing on t_{1,2} (x) t_{1,1}, graded
    and ungraded."""
    a, b = CoeffElement.basis(lam, 1, 2), CoeffElement.basis(lam, 1, 1)
    x = AlgebraWord.of_word(*word)
    return ((coeff_eval(alg, a, word), word_pairing(alg, a, b, x)),
            (ungraded_coeff_eval(alg, a, word), ungraded_word_pairing(alg, a, b, x)))


WORDS = [(("e", 1),), (("e", 1), ("k", 1)), (("K", 2), ("e", 1), ("k", 1))]


@pytest.mark.parametrize("big", BIG)
@pytest.mark.parametrize("where", ["module", "word"])
def test_weight_test_is_exact_for_huge_coordinates(big, where):
    # "module": A2, basis weights around (big, -big); "word": a stand-in
    # datum with alpha_1 = (big, -1), so e_1 itself has a huge weight
    cd = cartan_data("A2") if where == "module" else StandInCartan([(big, -1), (-1, 2)])
    top = (big, -big) if where == "module" else (0, 0)
    alpha = cd.alpha_fundamental(1)
    # the step of t_{1,2} is alpha_1: each word below reads E_1[0, 1]
    exact = tuple(t - a for t, a in zip(top, alpha))
    alg, lam = crafted(cd, [top, exact], {(1, 0, 1): PROBE})
    for word in WORDS:
        graded, want = read(alg, lam, word)
        assert graded == want and RF_ZERO not in graded, word
    for off in offsets(big):
        shifted = tuple(w + o for w, o in zip(exact, off))
        # a non-homogeneous entry: its step misses alpha_1 by off, so the
        # grading never reads it
        alg, lam = crafted(cd, [top, shifted], {(1, 0, 1): PROBE})
        for word in WORDS:
            graded, ungraded_values = read(alg, lam, word)
            assert graded == (RF_ZERO, RF_ZERO) and RF_ZERO not in ungraded_values, (off, word)


@pytest.mark.parametrize("big", BIG)
def test_huge_homogeneous_modules_pair_as_before(big):
    # on the first two modules k_i acts by v^(+-big), and a sum v^big +
    # v^-big is a polynomial of degree 2 big: there only coeff_eval is
    # compared, on words in e_i and f_i (each coproduct leg holds a k_i)
    cd = cartan_data("A2")
    raising = [(kind, i) for i in (1, 2) for kind in "ef"]
    ef_words = [w for n in range(3) for w in itertools.product(raising, repeat=n)]
    # an A2 module moved to basis weights around (big, -big)
    m = build_irrep(cd, (1, 1))
    moved = [tuple(w + o for w, o in zip(wt, (big, -big))) for wt in m.weights]
    alg = CoeffAlgebra(cd)
    lam = (7, 7)
    alg.irreps._store[cd, lam, m.lowering] = IrrepModule(
        cd, moved[0], m.lowering, moved, m.E, m.F, m.ratios, m.constructions)
    cases = [(alg, lam, ef_words, False)]
    # a wide module: two alpha_1 strings big apart
    a1 = cd.alpha_fundamental(1)
    far = (big, 0)
    weights = [(0, 0), tuple(-a for a in a1), far, tuple(f - a for f, a in zip(far, a1))]
    cases.append(crafted(cd, weights, {(1, 0, 1): PROBE, (1, 2, 3): RF_ONE + PROBE})
                 + (ef_words, False))
    # huge word weights: alpha_1 = (big, 0) never steps in this module
    stand_in = StandInCartan([(big, 0), (0, 2)])
    cases.append(crafted(stand_in, [(0, 0), (0, -2), (0, -4)],
                         {(2, 0, 1): PROBE, (2, 1, 2): RF_ONE})
                 + (words(stand_in, 2), True))
    for alg, lam, ws, pairs in cases:
        d = alg.irrep(lam).dim
        quads = list(itertools.product(range(1, d + 1), repeat=4))
        for i, j, r, s in random.Random(f"huge{big}").sample(quads, min(len(quads), 40)):
            a, b = CoeffElement.basis(lam, i, j), CoeffElement.basis(lam, r, s)
            for w in ws:
                x = AlgebraWord.of_word(*w)
                assert coeff_eval(alg, a, w) == ungraded_coeff_eval(alg, a, w)
                if pairs:
                    assert word_pairing(alg, a, b, x) == ungraded_word_pairing(alg, a, b, x)


def test_grading_reads_entries_through_word_matrix_only_where_steps_match(monkeypatch):
    alg = CoeffAlgebra(cartan_data("A2"))
    calls = []
    word_matrix = CoeffAlgebra.word_matrix

    def counted(self, lam, x, index, side="col"):
        calls.append((lam, x, index))
        return word_matrix(self, lam, x, index, side)

    monkeypatch.setattr(CoeffAlgebra, "word_matrix", counted)
    a, b = CoeffElement.basis((1, 0), 1, 1), CoeffElement.basis((0, 1), 1, 1)
    # weight steps 0 and 0: no word of another weight is read, and only the
    # legs whose two words both have weight 0
    for w in [(("e", 1),), (("f", 2), ("k", 1)), (("e", 1), ("e", 2), ("f", 1))]:
        x = AlgebraWord.of_word(*w)
        assert coeff_eval(alg, a, x) == RF_ZERO == word_pairing(alg, a, b, x)
    assert calls == []
    x = AlgebraWord.of_word(("e", 1), ("f", 1))
    got = word_pairing(alg, a, b, x)
    # of the four legs of e1 f1 only e1 f1 (x) k1 k1 and K1 K1 (x) e1 f1
    # have words of weight 0; e1 K1 and K1 f1 are never read
    assert {w for lam, w, _ in calls if lam == (1, 0)} == {(("e", 1), ("f", 1)),
                                                           (("K", 1), ("K", 1))}
    assert got == ungraded_word_pairing(alg, a, b, x)
