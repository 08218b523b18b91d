"""Each value is built once, from parts already known to be clean.

``check_serre`` decides [e_i, f_j] as E_i F_j == F_j E_i (+ the q-integer
diagonal when i = j) and sums each Serre expression into one dict; the
frozen ``difference_check_serre`` forms the difference matrices and copies
the running total per term.  Both must give the same records, in the same
order, on intact, Levi and faulted modules.  The structure constants come
from memos and must equal their builders; v^e with coefficient one is built
without a Fraction and must equal the general constructor.

The containers (``Mat``, ``CoeffElement``, ``AlgebraWord``, ``Section``)
take the results of their own operations, and their one-term constructors
their single term, as they are, without a second zero test.  On seeded
operands with cancelling entries, no result stores a zero or an empty
vector, none shares a dict with an operand, and every key stays canonical.
The retired ``mat_sub`` and ``mat_neg`` (formerly ``Mat.__sub__`` and
``Mat.__neg__``) are held to the same standard.
"""

import itertools
import random

import pytest

from qgroups import coeff, scalar, uqrep, verify
from qgroups.bundle import Section, eta_map, kappa_map
from qgroups.cartan import cartan_data
from qgroups.coeff import CoeffElement, antipode, circ_action, dot_action, product
from qgroups.linalg import Mat, accumulate
from qgroups.parabolic import ParabolicData
from qgroups.scalar import (RF_ONE, RF_ZERO, LaurentPoly, RationalFunction, gauss_binomial,
                            q_integer, rf_to_text)
from qgroups.uqrep import AlgebraWord, build_irrep, build_module, check_serre
from retired_helpers import (difference_check_serre, mat_neg, mat_sub, section_add, section_scale,
                             section_sub)

TWO = RationalFunction.const(2)


def v(e, c=1):
    return RationalFunction.v_power(e, c)


# --- relation checks against the frozen difference form ------------------------


def assert_same(m):
    got = check_serre(m)
    assert got == difference_check_serre(m)
    return got


@pytest.mark.parametrize("name,hw", verify.relations_grid())
def test_grid_module_records_match_the_difference_form(name, hw):
    assert_same(build_irrep(cartan_data(name), hw))


def levi_cases():
    for name in ("A2", "B2"):
        for hw in itertools.product(range(-2, 3), repeat=2):
            for lowering in ((), (1,), (2,)):
                if all(hw[i - 1] >= 0 for i in lowering):
                    yield name, hw, lowering


@pytest.mark.parametrize("name,hw,lowering", list(levi_cases()))
def test_levi_module_records_match_the_difference_form(name, hw, lowering):
    assert_same(build_module(cartan_data(name), hw, lowering))


def faults(m):
    """(label, matrix data, key): one entry of each E_i, F_i and k_i to double."""
    for i in m.lowering:
        for kind, mat in (("E", m.E[i]), ("F", m.F[i])):
            if mat.data:
                yield f"{kind}{i}", mat.data, min(mat.data)
    for i in range(1, m.cd.rank + 1):
        k = m.k_matrix(i)
        yield f"k{i}", k.data, min(k.data)


@pytest.mark.parametrize("name,hw", verify.relations_grid())
def test_faulted_module_records_match_the_difference_form(name, hw):
    m = build_irrep(cartan_data(name), hw)
    for label, data, key in list(faults(m)):
        old = data[key]
        data[key] = old * TWO
        records = assert_same(m)
        data[key] = old
        assert not all(r["ok"] for r in records), label
    if m.dim > 1:
        # a zero Gram entry breaks the certificate: every record is computed
        old, m.ratios[1] = m.ratios[1], RF_ZERO
        assert not uqrep._gram_mirrors(m)
        assert all(r["ok"] for r in assert_same(m))
        m.ratios[1] = old
    assert all(r["ok"] for r in assert_same(m))


# --- memoized constants and v^e --------------------------------------------------


def test_memoized_constants_equal_their_builders():
    for n, d in itertools.product(range(-12, 13), range(1, 4)):
        got = q_integer(n, d)
        want = scalar._q_integer(n, d)
        assert got == want and rf_to_text(got) == rf_to_text(want)
        assert q_integer(n, d) is got
    for m, d in itertools.product(range(13), range(1, 4)):
        for t in range(m + 1):
            got = gauss_binomial(m, t, d)
            want = scalar._gauss_binomial(m, t, d)
            assert got == want and rf_to_text(got) == rf_to_text(want)
            assert gauss_binomial(m, t, d) is got


def test_memoized_constants_raise_as_their_builders_and_store_nothing():
    with pytest.raises(ValueError):
        q_integer(3, 0)
    with pytest.raises(ValueError):
        gauss_binomial(3, 4)
    assert (3, 0) not in scalar._Q_INTEGERS and (3, 4, 1) not in scalar._GAUSS_BINOMIALS
    # a float equal to a memoized key is refused, as the builders refuse it
    q_integer(2), gauss_binomial(2, 1)
    with pytest.raises(TypeError):
        q_integer(2.0)
    with pytest.raises(TypeError):
        gauss_binomial(2, 1.0)


def test_unit_coefficient_v_power_equals_the_general_constructor():
    for e in range(-60, 61):
        want = RationalFunction(LaurentPoly({e: 1}))
        for got in (v(e), v(e, 1), v(e, scalar.Fraction(1))):
            assert got == want and hash(got) == hash(want)
            assert rf_to_text(got) == rf_to_text(want)
    assert v(0) is RF_ONE


# --- container invariants -----------------------------------------------------------


VALUES = [RF_ONE, v(1), v(-2), TWO, v(3, scalar.Fraction(-1, 3)), q_integer(2),
          q_integer(3) / q_integer(2), (q_integer(2) + RF_ONE) / (q_integer(3) - v(4))]
# equal to one but not RF_ONE itself, zero, and ordinary factors
SCALARS = [RF_ZERO, RF_ONE, q_integer(3) / q_integer(3), v(3), -q_integer(2), TWO.inv()]


def cancelling(rng, keys, base):
    """A random dict over ``keys`` that negates about half of ``base``."""
    out = {}
    for key in keys:
        if key in base and rng.random() < 0.5:
            out[key] = -base[key]
        elif rng.random() < 0.5:
            out[key] = rng.choice(VALUES)
    return out


def snapshot(d):
    return {k: dict(x) if isinstance(x, dict) else x for k, x in d.items()}


def assert_owns(out, operands):
    """Mutating ``out`` leaves every (container dict, snapshot) unchanged."""
    for d, _ in operands:
        assert out is not d
    out[object()] = None
    out.clear()
    for d, snap in operands:
        assert snapshot(d) == snap


def assert_clean_mat(m, nrows, ncols):
    assert (m.nrows, m.ncols) == (nrows, ncols)
    for key, x in m.data.items():
        assert type(key) is tuple and len(key) == 2
        r, c = key
        assert type(r) is int and type(c) is int and 0 <= r < nrows and 0 <= c < ncols
        assert isinstance(x, RationalFunction) and x


def dense(m):
    return m.to_rows()


@pytest.mark.parametrize("seed", range(40))
def test_mat_results_are_clean_and_owned(seed):
    rng = random.Random(1800 + seed)
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)
    cells = list(itertools.product(range(nr), range(nc)))
    a = Mat(nr, nc, {rc: rng.choice(VALUES) for rc in cells if rng.random() < 0.6})
    b = Mat(nr, nc, cancelling(rng, cells, a.data))
    da, db = dense(a), dense(b)
    cases = [
        (a + b, (nr, nc), [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]),
        (mat_sub(a, b), (nr, nc), [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]),
        (mat_neg(a), (nr, nc), [[-x for x in ra] for ra in da]),
        (a.transpose(), (nc, nr), [list(col) for col in zip(*da)]),
    ]
    cases += [(a.scale(c), (nr, nc), [[c * x for x in ra] for ra in da]) for c in SCALARS]
    for out, shape, want in cases:
        assert_clean_mat(out, *shape)
        assert dense(out) == want
        assert_owns(out.data, [(a.data, snapshot(a.data)), (b.data, snapshot(b.data))])
    # the seeds exercise cancellation: some a + b drops a key both operands hold
    if seed == 0:
        hits = 0
        for s in range(40):
            r = random.Random(1800 + s)
            n1, n2 = r.randint(1, 4), r.randint(1, 4)
            cs = list(itertools.product(range(n1), range(n2)))
            x = Mat(n1, n2, {rc: r.choice(VALUES) for rc in cs if r.random() < 0.6})
            y = Mat(n1, n2, cancelling(r, cs, x.data))
            hits += any(k not in (x + y).data for k in x.data.keys() & y.data.keys())
        assert hits > 5


def assert_clean_coeff(a):
    assert isinstance(a, CoeffElement)
    for key, c in a.terms.items():
        lam, i, j = key
        assert type(key) is tuple and type(lam) is tuple
        assert all(type(x) is int for x in lam) and type(i) is int and type(j) is int
        assert isinstance(c, RationalFunction) and c


A1_WEIGHTS = [(0,), (1,), (2,)]


def random_coeff(rng, alg, base=None):
    keys = [(lam, i, j) for lam in A1_WEIGHTS for i in range(1, lam[0] + 2)
            for j in range(1, lam[0] + 2)]
    picked = rng.sample(keys, 3)
    terms = cancelling(rng, picked + list((base or {}).keys()), base or {})
    return CoeffElement(terms)


@pytest.mark.parametrize("seed", range(12))
def test_coeff_results_are_clean_and_owned(a1, seed):
    rng = random.Random(2800 + seed)
    a = random_coeff(rng, a1)
    b = random_coeff(rng, a1, a.terms)
    assert_clean_coeff(a)
    assert_clean_coeff(b)
    ops = [(a, snapshot(a.terms)), (b, snapshot(b.terms))]
    word = AlgebraWord.of_gen(("e", 1)) + AlgebraWord.of_gen(("f", 1)).scale(v(1))
    results = [a + b, a - b, product(a1, a, b), product(a1, b, a), antipode(a1, a),
               circ_action(a1, word, a), dot_action(a1, word, a)]
    results += [a.scale(c) for c in SCALARS]
    # the constructor's normalization gives the same elements
    assert results[2] == CoeffElement(accumulate({}, coeff._product_terms(a1, a, b)))
    assert results[0] == CoeffElement(accumulate(dict(a.terms), b.terms.items()))
    assert antipode(a1, a + b) == results[4] + antipode(a1, b)
    for out in results:
        assert_clean_coeff(out)
        assert_owns(out.terms, [(x.terms, snap) for x, snap in ops])


def test_coeff_seeds_exercise_cancellation(a1):
    sums = 0
    for seed in range(12):
        rng = random.Random(2800 + seed)
        a = random_coeff(rng, a1)
        b = random_coeff(rng, a1, a.terms)
        sums += any(k not in (a + b).terms for k in a.terms.keys() & b.terms.keys())
    assert sums > 2


def assert_clean_word(x):
    assert isinstance(x, AlgebraWord)
    for word, c in x.terms.items():
        assert type(word) is tuple and all(type(g) is tuple for g in word)
        assert isinstance(c, RationalFunction) and c


A1_GEN_WORDS = [w for n in range(3) for w in itertools.product([(k, 1) for k in "efkK"], repeat=n)]


@pytest.mark.parametrize("seed", range(12))
def test_word_results_are_clean_and_owned(seed):
    rng = random.Random(3800 + seed)
    x = AlgebraWord(cancelling(rng, rng.sample(A1_GEN_WORDS, 4), {}))
    y = AlgebraWord(cancelling(rng, rng.sample(A1_GEN_WORDS, 3) + list(x.terms), x.terms))
    ops = [(x, snapshot(x.terms)), (y, snapshot(y.terms))]
    results = [x + y, x - y, x * y, y * x, x * (x - x)]
    # the constructor's normalization gives the same words
    assert results[0] == AlgebraWord(accumulate(dict(x.terms), y.terms.items()))
    assert results[2] == AlgebraWord(accumulate({}, ((w1 + w2, c1 * c2)
                                                     for w1, c1 in x.terms.items()
                                                     for w2, c2 in y.terms.items())))
    assert not results[4].terms
    for out in results:
        assert_clean_word(out)
        assert_owns(out.terms, [(z.terms, snap) for z, snap in ops])


def test_word_seeds_exercise_cancellation():
    sums = 0
    for seed in range(12):
        rng = random.Random(3800 + seed)
        x = AlgebraWord(cancelling(rng, rng.sample(A1_GEN_WORDS, 4), {}))
        y = AlgebraWord(cancelling(rng, rng.sample(A1_GEN_WORDS, 3) + list(x.terms), x.terms))
        sums += any(k not in (x + y).terms for k in x.terms.keys() & y.terms.keys())
    assert sums > 2


def test_one_term_constructors_give_canonical_terms():
    lam, i, j = [2], 1.0, 2.0   # a list weight and float indices are normalized
    a = CoeffElement.basis(lam, i, j, v(3))
    assert a.terms == {((2,), 1, 2): v(3)} and a == CoeffElement({((2,), 1, 2): v(3)})
    assert_clean_coeff(a)
    assert not CoeffElement.basis(lam, i, j, RF_ZERO).terms
    assert CoeffElement.unit(cartan_data("A2")).terms == {((0, 0), 1, 1): RF_ONE}
    for x, want in [(AlgebraWord.of_word(("e", 1), ("k", 2)), {(("e", 1), ("k", 2)): RF_ONE}),
                    (AlgebraWord.unit(), {(): RF_ONE}),
                    (AlgebraWord.of_gen(("f", 1)), {(("f", 1),): RF_ONE})]:
        assert x.terms == want and x == AlgebraWord(want)
        assert_clean_word(x)
    assert not AlgebraWord.of_gen(("f", 1), RF_ZERO).terms


def test_product_drops_a_cancelled_unit_coefficient(a1):
    # only t11 t22 and t12 t21 reach the unit t^(0)_{11} in (t11 + t12)(t22 + g t21);
    # g makes their unit coefficients cancel
    t = {(i, j): CoeffElement.basis((1,), i, j) for i in (1, 2) for j in (1, 2)}
    unit = ((0,), 1, 1)
    g = -product(a1, t[1, 1], t[2, 2]).terms[unit] / product(a1, t[1, 2], t[2, 1]).terms[unit]
    a, b = t[1, 1] + t[1, 2], t[2, 2] + t[2, 1].scale(g)
    out = product(a1, a, b)
    assert unit in {k for k, _ in coeff._product_terms(a1, a, b)} and unit not in out.terms
    assert_clean_coeff(out)
    assert out == CoeffElement(accumulate({}, coeff._product_terms(a1, a, b)))


def assert_clean_section(s, vmod):
    assert s.vmod is vmod
    for key, vec in s.data.items():
        lam, a, b = key
        assert type(lam) is tuple and type(a) is int and type(b) is int
        assert vec and all(type(r) is int and 0 <= r < vmod.dim for r in vec)
        assert all(isinstance(x, RationalFunction) and x for x in vec.values())


def random_section(rng, alg, p, vmod, base=None):
    data = {}
    for lam in ((1,), (2,)):
        for a, b in itertools.product(range(1, lam[0] + 2), repeat=2):
            key = (lam, a, b)
            vec = cancelling(rng, range(vmod.dim), (base or {}).get(key, {}))
            if vec:
                data[key] = vec
    return Section(alg, p, vmod, data)


def section_snapshot(s):
    return {k: dict(v) for k, v in s.data.items()}


@pytest.mark.parametrize("seed", range(8))
def test_section_results_are_clean_and_owned(a1, seed):
    rng = random.Random(3800 + seed)
    p = ParabolicData(a1.cd, ())
    w = a1.irrep((1,))
    s = random_section(rng, a1, p, w)
    t = random_section(rng, a1, p, w, s.data)
    ops = [(s, section_snapshot(s)), (t, section_snapshot(t))]
    results = [section_add(s, t), section_sub(s, t), section_sub(s, s)]
    results += [section_scale(s, c) for c in SCALARS]
    results += [eta_map(s, w, "forward"), kappa_map(s, w, "forward")]
    results += [eta_map(eta_map(s, w, "forward"), w, "inverse"),
                kappa_map(kappa_map(s, w, "forward"), w, "inverse")]
    assert section_sub(s, s).is_zero()
    # the trivializations compose to the identity, through heavy cancellation
    assert results[-2] == s and results[-1] == s
    for out in results:
        assert_clean_section(out, w)
        for key, vec in out.data.items():
            for x, _ in ops:
                assert all(vec is not other for other in x.data.values())
        out.data.clear()
        for x, snap in ops:
            assert section_snapshot(x) == snap


def test_copy_with_keeps_clean_vectors_and_drops_empty_ones(a1):
    p = ParabolicData(a1.cd, ())
    w = a1.irrep((1,))
    s = Section(a1, p, w, {((1,), 1, 1): {0: RF_ONE, 1: TWO}})
    snap = section_snapshot(s)
    kept = {1: v(2)}
    out = s.copy_with({((1,), 1, 2): kept, ((1,), 2, 2): {}})
    assert list(out.data) == [((1,), 1, 2)] and out.data[(1,), 1, 2] is kept
    assert out.alg is s.alg and out.p is s.p and out.vmod is w
    out.data.clear()
    assert section_snapshot(s) == snap and out.data is not s.data
    line = a1.irreps.levi(a1.cd, (), (-1,))
    assert s.copy_with({}, line).vmod is line
