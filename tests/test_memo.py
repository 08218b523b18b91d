"""The one memo policy: ``scalar.Memo`` and every store built on it.

A Memo hands out the stored object on a hit and makes a value on a miss,
storing it while it holds fewer than ``scalar.MEMO_MAX`` entries.  The
parametrized test below runs one computation per memo of the package with
a fresh memo, then again with the bound patched down: the results are the
same, and the memo stops at the bound, also when the computation repeats
past it.
"""

import itertools

import pytest

from qgroups import scalar, uqrep, verify
from qgroups.cartan import cartan_data
from qgroups.coeff import CoeffAlgebra, CoeffElement, antipode, product
from qgroups.linalg import index_applier
from qgroups.scalar import RF_ONE, RF_ZERO, Memo, q_integer, rf_to_text
from qgroups.tensor import tensor_module
from qgroups.uqrep import AlgebraWord, IrrepCache, build_irrep, coproduct_word

BOUND = 2


def test_memo_makes_a_value_once_and_hands_out_the_stored_object():
    made = []
    memo = Memo(lambda k: made.append(k) or [k])
    first = memo[1]
    assert memo[1] is first and memo[1] == [1]
    assert made == [1]
    # a hit is dict's own subscript: Memo only adds __missing__
    assert "__getitem__" not in vars(Memo)


def test_full_memo_keeps_its_entries_and_rebuilds_the_rest(monkeypatch):
    monkeypatch.setattr(scalar, "MEMO_MAX", 2)
    made = []
    memo = Memo(lambda k: made.append(k) or [k])
    one, _ = memo[1], memo[2]
    third = memo[3]
    assert memo[3] == third and memo[3] is not third
    assert memo[1] is one and sorted(memo) == [1, 2]
    assert made == [1, 2, 3, 3, 3]


def q_quotients():
    total = RF_ZERO
    for n in range(1, 7):
        total = total + q_integer(n + 1) / q_integer(n) * total.bar() + RF_ONE
    return rf_to_text(total)


def scalar_case(name):
    def case(monkeypatch):
        memo = Memo(getattr(scalar, name).make)
        monkeypatch.setattr(scalar, name, memo)
        return q_quotients, memo
    return case


def legs_case(name):
    def case(monkeypatch):
        for attr in ("_LEGS", "_LEG_WORDS"):
            monkeypatch.setattr(uqrep, attr, Memo(getattr(uqrep, attr).make))
        cd = cartan_data("A2")
        gens = [(kind, i) for i in (1, 2) for kind in "efkK"]
        words = [w for n in range(3) for w in itertools.product(gens, repeat=n)]
        return (lambda: [coproduct_word(cd, AlgebraWord.of_word(*w)) for w in words],
                getattr(uqrep, name))
    return case


def a1_words(length):
    gens = [(kind, 1) for kind in "efkK"]
    return [w for n in range(length + 1) for w in itertools.product(gens, repeat=n)]


def word_vectors(alg):
    return [alg.word_matrix((2,), w, j, side)
            for w in a1_words(2) for j in range(3) for side in ("col", "row")]


def basis_products(alg):
    weights = [(1,), (2,)]
    return [product(alg, CoeffElement.basis(lam, 1, 1), CoeffElement.basis(mu, 2, 1))
            for lam in weights for mu in weights]


def all_products(alg):
    lam = (1,)
    return [product(alg, CoeffElement.basis(lam, i, j), CoeffElement.basis(lam, r, s))
            for i, j, r, s in itertools.product((1, 2), repeat=4)]


def antipodes(alg):
    return [antipode(alg, CoeffElement.basis((n,), 1, n + 1)) for n in (1, 2, 3)]


def algebra_case(memo_of, compute):
    """A fresh A1 algebra, with its own module store."""
    def case(monkeypatch):
        alg = CoeffAlgebra(cartan_data("A1"))
        return (lambda: compute(alg)), memo_of(alg)
    return case


def module_data(m):
    return m.weights, m.E, m.F, m.gram


def irrep_store_case(monkeypatch):
    cd, cache = cartan_data("A1"), IrrepCache()
    return (lambda: [module_data(cache.irrep(cd, (n,))) for n in range(4)]), cache._store


def algebras_case(monkeypatch):
    monkeypatch.setattr(verify, "_ALGEBRAS", Memo(verify._ALGEBRAS.make))
    cases = [("A1", (1,)), ("A2", (1, 0)), ("A3", (0, 1, 0)), ("B2", (0, 1))]
    return ((lambda: [module_data(verify.algebra(n).irrep(hw)) for n, hw in cases]),
            verify._ALGEBRAS)


def kmats_case(monkeypatch):
    m = build_irrep(cartan_data("A2"), (1, 1))
    return (lambda: [m.k_matrix(i, inv) for i in (1, 2) for inv in (False, True)]), m._kmats


def tensor_case(attr, gen_matrix):
    def case(monkeypatch):
        alg = verify.algebra("A3")
        t = tensor_module(alg.irrep((1, 0, 0)), alg.irrep((0, 0, 1)))
        return (lambda: [gen_matrix(t, i) for i in (1, 2, 3)]), getattr(t, attr)
    return case


def index_applier_case(monkeypatch):
    m = verify.algebra("A3").irrep((1, 1, 0))
    apply_f = index_applier(m.f_matrix)
    memo, = (c.cell_contents for c in apply_f.__closure__
             if isinstance(c.cell_contents, Memo))
    return (lambda: [apply_f(i, {0: RF_ONE}) for i in (1, 2, 3)]), memo


CASES = {
    "gcd": scalar_case("_GCD_MEMO"),
    "product": scalar_case("_PROD_MEMO"),
    "legs": legs_case("_LEGS"),
    "leg_words": legs_case("_LEG_WORDS"),
    "word_vecs": algebra_case(lambda alg: alg._word_vecs, word_vectors),
    "gen_lines": algebra_case(lambda alg: alg._gen_lines, word_vectors),
    "cg": algebra_case(lambda alg: alg._cg, basis_products),
    "col_map": algebra_case(lambda alg: alg.cg((1,), (1,))[2], all_products),
    "dual": algebra_case(lambda alg: alg._dual, antipodes),
    "irrep_store": irrep_store_case,
    "algebras": algebras_case,
    "kmats": kmats_case,
    "tensor_e": tensor_case("_E", lambda t, i: t.e_matrix(i)),
    "tensor_f": tensor_case("_F", lambda t, i: t.f_matrix(i)),
    "index_applier": index_applier_case,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_memo_stops_at_its_bound(name, monkeypatch):
    compute, memo = CASES[name](monkeypatch)
    want = compute()
    assert len(memo) > BOUND
    monkeypatch.setattr(scalar, "MEMO_MAX", BOUND)
    compute, memo = CASES[name](monkeypatch)
    for _ in range(2):
        assert compute() == want
        assert len(memo) == BOUND

