"""The one intertwiner-system assembler against the dense assemblers it
replaced, and ``act_word`` against the identity-product evaluator.

The references below are the former ``hom_space``, ``sections_direct`` and
``_module_hom`` solvers: each builds the whole system over every unknown,
scans every index for each nonzero, sorts the rows and eliminates densely.
``linalg.intertwiner_kernel`` meets only the unknowns that share an index
with a nonzero and first drops the unknowns that a one-entry row forces to
zero.  The kernel bases must be the same vectors, in the same order.  The
cases take in the section cases of the benchmark's ``sections`` workload.
The reference ``sections_direct`` also builds W(lam*) on every grade, so it
checks the weight-cone test that skips that build.
"""

import itertools

import pytest

from qgroups import bundle
from qgroups.bundle import (
    Section,
    TruncationPolicy,
    coordinates_in_basis,
    dot_on_section,
    sections_direct,
)
from qgroups.cartan import dual_weight
from qgroups.coeff import CoeffAlgebra
from qgroups.linalg import Mat, kernel_basis
from qgroups.parabolic import ParabolicData, branching_oracle, hom_space
from qgroups.scalar import RF_ONE, RF_ZERO, RationalFunction
from qgroups.uqrep import AlgebraWord, act_word, antipode_word
from qgroups.verify import _BOREL_WEIL, _FROBENIUS, algebra


def _dense_kernel(rows, nunknowns):
    matrix = [
        [row.get(k, RF_ZERO) for k in range(nunknowns)]
        for _, row in sorted(rows.items(), key=lambda kv: str(kv[0]))
    ]
    if not matrix:
        matrix = [[RF_ZERO] * nunknowns]
    return kernel_basis(matrix, nunknowns)


def _adder(rows):
    def add(key, unknown, coeff):
        if not coeff:
            return
        row = rows.setdefault(key, {})
        s = row.get(unknown, RF_ZERO) + coeff
        if s:
            row[unknown] = s
        else:
            row.pop(unknown, None)

    return add


def _gens(p, flavor):
    gens = [("e", j) for j in p.theta] + [("f", j) for j in p.theta]
    if flavor == "parabolic":
        gens += [("e", j) for j in p.complement]
    return gens


def reference_hom_space(m, target, p, flavor):
    tgt_spaces = target.weight_spaces()
    unknowns = []
    for w_idx, w in enumerate(m.weights):
        for a in tgt_spaces.get(w, ()):
            unknowns.append((a, w_idx))
    unknowns.sort()
    pos = {u: k for k, u in enumerate(unknowns)}
    if not unknowns:
        return []
    rows = {}
    add = _adder(rows)
    for gen in _gens(p, flavor):
        mw = m.gen_matrix(gen)
        mv = target.gen_matrix(gen)
        for (w, wp), x in mw.data.items():
            for a in range(target.dim):
                if (a, w) in pos:
                    add((gen, a, wp), pos[(a, w)], x)
        for (a, b), y in mv.data.items():
            for wp in range(m.dim):
                if (b, wp) in pos:
                    add((gen, a, wp), pos[(b, wp)], -y)
    maps = []
    for vec in _dense_kernel(rows, len(unknowns)):
        phi = Mat(target.dim, m.dim)
        for k, x in vec.items():
            phi.data[unknowns[k]] = x
        maps.append(phi)
    return maps


def reference_unknowns(m, vmod):
    """The unknowns (b, r) of a grade: w_b in W(lam*) and tau_r = -wt_b in V."""
    vspaces = vmod.weight_spaces()
    return [(b, r) for b in range(m.dim)
            for r in vspaces.get(tuple(-c for c in m.weights[b]), ())]


def reference_sections_direct(alg, vmod, p, lam, flavor):
    cd = alg.cd
    lam_dual = dual_weight(cd, tuple(lam))
    m = alg.irrep(lam_dual)
    d = m.dim
    unknowns = reference_unknowns(m, vmod)
    if not unknowns:
        return []
    pos = {u: k for k, u in enumerate(unknowns)}
    rows = {}
    add = _adder(rows)
    for gen in _gens(p, flavor):
        word = AlgebraWord.of_gen(gen)
        mt = reference_act_word(m, word)
        mv = reference_act_word(vmod, antipode_word(cd, word))
        for (k0, b0), x in mt.data.items():
            for r in range(vmod.dim):
                if (b0, r) in pos:
                    add((gen, k0, r), pos[(b0, r)], x)
        for (r0, s0), y in mv.data.items():
            for k0 in range(d):
                if (k0, s0) in pos:
                    add((gen, k0, r0), pos[(k0, s0)], -y)
    out = []
    for vec in _dense_kernel(rows, len(unknowns)):
        profile = {}
        for kk, x in vec.items():
            b, r = unknowns[kk]
            profile.setdefault(b, {})[r] = x
        for a in range(d):
            data = {(lam_dual, a + 1, b + 1): dict(v) for b, v in profile.items()}
            out.append(Section(alg, p, vmod, data))
    return out


def reference_module_hom(wmod, basis, gens):
    if not basis:
        return 0, []
    nb = len(basis)
    action = {}
    for gen in gens:
        word = AlgebraWord.of_gen(gen)
        coords = coordinates_in_basis([dot_on_section(word, s) for s in basis], basis)
        a = Mat(nb, nb)
        for c, vec in enumerate(coords):
            for rr, x in vec.items():
                a.data[(rr, c)] = x
        action[gen] = a
    unknowns = [(c, i) for c in range(nb) for i in range(wmod.dim)]
    pos = {u: k for k, u in enumerate(unknowns)}
    rows = {}
    add = _adder(rows)
    for gen in gens:
        mw = reference_act_word(wmod, AlgebraWord.of_gen(gen))
        for (i0, i1), x in mw.data.items():
            for c in range(nb):
                add((gen, c, i1), pos[(c, i0)], x)
        for (c0, c1), y in action[gen].data.items():
            for i1 in range(wmod.dim):
                add((gen, c0, i1), pos[(c1, i1)], -y)
    mats = []
    for vec in _dense_kernel(rows, len(unknowns)):
        psi = Mat(nb, wmod.dim)
        for k, x in vec.items():
            psi.data[unknowns[k]] = x
        mats.append(psi)
    return len(mats), mats


def reference_act_word(m, x):
    out = Mat.zero(m.dim, m.dim)
    for word, c in x.terms.items():
        acc = Mat.identity(m.dim)
        for gen in word:
            acc = acc @ m.gen_matrix(gen)
        out = out + (acc if c.is_one() else acc.scale(c))
    return out


# --- hom_space ----------------------------------------------------------------

# (algebra, theta, source weights): the benchmark's hom candidates plus the
# thetas of its invariants items; every Levi target in the branching of any
# source is tried, so zero and nonzero Hom spaces both occur
HOM_CASES = [
    ("A1", (), [(n,) for n in range(6)]),
    ("A1", (1,), [(n,) for n in range(4)]),
    ("A2", (), [(1, 0), (0, 1), (1, 1)]),
    ("A2", (1,), [(1, 0), (0, 1), (1, 1), (2, 0)]),
    ("A2", (2,), [(1, 0), (0, 1), (1, 1), (0, 2)]),
    ("B2", (1,), [(1, 0), (0, 1), (1, 1)]),
    ("B2", (2,), [(1, 0), (0, 1), (1, 1)]),
    ("A3", (1,), [(1, 0, 0), (0, 0, 1), (1, 0, 1)]),
    ("A3", (2,), [(0, 1, 0), (1, 0, 0)]),
    ("A3", (3,), [(1, 0, 0), (0, 1, 0)]),
]


@pytest.mark.parametrize("name,theta,weights", HOM_CASES)
def test_hom_space_matches_dense_assembler(name, theta, weights):
    alg = algebra(name)
    cd = alg.cd
    p = ParabolicData(cd, theta)
    targets = sorted({mu for lam in weights for mu in branching_oracle(cd, p, lam)})
    nonzero = 0
    for lam in weights:
        source = alg.irrep(lam)
        for mu in targets:
            target = alg.irreps.levi(cd, theta, mu)
            for flavor in ("levi", "parabolic"):
                got = hom_space(source, target, p, flavor).maps
                assert got == reference_hom_space(source, target, p, flavor), \
                    (lam, mu, flavor)
                nonzero += bool(got)
    assert nonzero


# --- sections_direct and the induced intertwiner system -----------------------

# (algebra, theta, mu, height): the benchmark's Borel-Weil cases
SECTION_CASES = [
    ("A1", (), (-1,), 2), ("A1", (), (-2,), 3), ("A1", (), (-3,), 4), ("A1", (), (1,), 2),
    ("A1", (), (-4,), 5), ("A1", (), (-5,), 6),
    ("A2", (), (-1, 0), 2), ("A2", (), (0, -1), 2), ("A2", (), (0, 0), 1),
    ("A2", (), (1, 0), 2), ("A2", (1,), (0, -1), 2), ("A2", (1,), (1, 0), 2),
    ("A2", (2,), (-1, 0), 2), ("A2", (), (-1, 0), 3), ("A2", (), (0, -1), 3),
    ("A2", (), (-1, -1), 3), ("A2", (1,), (0, -1), 3), ("A2", (2,), (-1, 0), 3),
    ("A2", (1,), (1, -2), 2),
    ("B2", (), (0, 0), 1), ("B2", (), (-1, 0), 2), ("B2", (), (0, -1), 2),
    ("B2", (1,), (0, -1), 1), ("B2", (2,), (-1, 0), 1),
    ("A3", (), (0, 0, 0), 1), ("A3", (), (0, 0, -1), 2), ("A3", (), (-1, 0, 0), 2),
    ("A3", (1, 2), (0, 0, -1), 1), ("A3", (2, 3), (-1, 0, 0), 1),
]


@pytest.mark.parametrize("name,theta,mu,height", SECTION_CASES)
def test_sections_direct_matches_dense_assembler(name, theta, mu, height):
    alg = algebra(name)
    p = ParabolicData(alg.cd, theta)
    vmod = alg.irreps.levi(alg.cd, theta, mu)
    found = 0
    for lam in TruncationPolicy(height=height).weights(alg.cd):
        for flavor in ("levi", "parabolic"):
            got = sections_direct(alg, vmod, p, lam, flavor)
            assert got == reference_sections_direct(alg, vmod, p, lam, flavor), (lam, flavor)
            found += len(got)
    assert found


# (algebra, theta, W, V, height): the benchmark's Frobenius cases and one
# with a two-dimensional V
FROBENIUS_CASES = [
    ("A1", (), (2,), (-2,), 3), ("A1", (), (2,), (0,), 3),
    ("A1", (), (2,), (2,), 3), ("A1", (), (1,), (1,), 2),
    ("A1", (), (1,), (-1,), 2), ("A1", (), (3,), (1,), 4), ("A1", (), (3,), (-3,), 4),
    ("A2", (1,), (1, 0), (1, 0), 2), ("A2", (1,), (1, 0), (0, -1), 2),
    ("A2", (2,), (0, 1), (0, 1), 2), ("A2", (1,), (1, 1), (1, -2), 2),
]


@pytest.mark.parametrize("name,theta,w,v,height", FROBENIUS_CASES)
def test_module_hom_matches_dense_assembler(name, theta, w, v, height):
    alg = algebra(name)
    cd = alg.cd
    p = ParabolicData(cd, theta)
    wmod = alg.irrep(w)
    vmod = alg.irreps.levi(cd, theta, v)
    basis = []
    for lam in TruncationPolicy(height=height).weights(cd):
        basis.extend(sections_direct(alg, vmod, p, lam, "levi"))
    gens = [(kind, i) for kind in "efk" for i in range(1, cd.rank + 1)]
    got = bundle._module_hom(alg, p, wmod, vmod, basis, gens)
    assert got == reference_module_hom(wmod, basis, gens)
    assert got[0] == 1


def test_module_hom_raises_when_an_image_leaves_the_span():
    # without one section of the basis, some generator carries another basis
    # section out of the span: the one stacked solve raises as the solve per
    # generator does
    name, theta, w, v, height = FROBENIUS_CASES[0]
    alg = algebra(name)
    cd = alg.cd
    p = ParabolicData(cd, theta)
    wmod = alg.irrep(w)
    vmod = alg.irreps.levi(cd, theta, v)
    basis = []
    for lam in TruncationPolicy(height=height).weights(cd):
        basis.extend(sections_direct(alg, vmod, p, lam, "levi"))
    gens = [(kind, i) for kind in "efk" for i in range(1, cd.rank + 1)]
    for dropped in range(len(basis)):
        part = basis[:dropped] + basis[dropped + 1:]
        with pytest.raises(ArithmeticError) as expected:
            reference_module_hom(wmod, part, gens)
        with pytest.raises(ArithmeticError) as got:
            bundle._module_hom(alg, p, wmod, vmod, part, gens)
        assert str(got.value) == str(expected.value) == "inconsistent linear system"


# --- the weight-cone test of sections_direct -------------------------------

def _cone_cases():
    """(algebra, theta, V's highest weight, V a full module?, height, flavor)
    for every sections_direct call of the full frobenius and borel_weil grids
    (trivial bundles included) and of the benchmark's section cases."""
    cases = {(name, theta, v, False, h, "levi")
             for name, theta, _, v, h in [r.case for r in _FROBENIUS] + FROBENIUS_CASES}
    cases |= {(name, theta, mu, False, h, "parabolic")
              for name, theta, mu, _, h in [r.case for r in _BOREL_WEIL]}
    cases |= {(name, theta, mu, False, h, "parabolic")
              for name, theta, mu, h in SECTION_CASES}
    # check_borel_weil's trivial bundles, induced from full modules
    cases |= {("A1", (), (1,), True, 2, "parabolic"), ("A2", (), (1, 0), True, 2, "parabolic")}
    return sorted(cases)


def _root_cone(cd, bound=12):
    """Fundamental coordinates of sum_i beta_i alpha_i for beta in a box of N^rank;
    a point of the cone outside the box reads as outside, so the test fails."""
    return {cd.root_to_fundamental(beta)
            for beta in itertools.product(range(bound + 1), repeat=cd.rank)}


def test_weight_cone_test_skips_exactly_the_grades_outside_the_cone():
    cones = {}
    skipped = 0
    for name, theta, hw, full, height, flavor in _cone_cases():
        alg = algebra(name)
        cd = alg.cd
        cone = cones.setdefault(name, _root_cone(cd))
        p = ParabolicData(cd, theta)
        vmod = alg.irrep(hw) if full else alg.irreps.levi(cd, theta, hw)
        for lam in TruncationPolicy(height=height).weights(cd):
            lam_dual = dual_weight(cd, lam)
            fresh = CoeffAlgebra(cd)
            got = sections_direct(fresh, vmod, p, lam, flavor)
            case = (name, theta, hw, lam, flavor)
            assert got == reference_sections_direct(alg, vmod, p, lam, flavor), case
            # no module of lam*, full or window, is built outside the cone
            full_key = (cd, lam_dual, cd.simple_indices())
            skip = not any(key[:3] == full_key for key in fresh.irreps._store)
            in_cone = any(tuple(x + t for x, t in zip(lam_dual, tau)) in cone
                          for tau in vmod.weight_spaces())
            assert skip == (not in_cone), case
            if skip:
                assert not reference_unknowns(alg.irrep(lam_dual), vmod), case
                skipped += 1
    assert skipped


# --- act_word -----------------------------------------------------------------

ACT_MODULES = [("A1", (2,)), ("A2", (1, 0)), ("B2", (0, 1))]


def _letters(cd):
    return [(kind, i) for kind in "efkK" for i in range(1, cd.rank + 1)]


@pytest.mark.parametrize("name,hw", ACT_MODULES)
def test_act_word_matches_identity_products(name, hw):
    m = algebra(name).irrep(hw)
    letters = _letters(m.cd)
    scales = [RF_ONE, RationalFunction.v_power(2), -RationalFunction.const(3)]
    for n in range(4):
        for word in itertools.product(letters, repeat=n):
            for c in scales:
                x = AlgebraWord({word: c})
                assert act_word(m, x) == reference_act_word(m, x), (word, c)
    # combinations: a sum of two words, a sum that cancels, the zero element
    e1, f1, k1 = ("e", 1), ("f", 1), ("k", 1)
    combos = [
        AlgebraWord({(e1, f1): RF_ONE, (f1, e1): -RF_ONE}),
        AlgebraWord({(k1,): RationalFunction.v_power(1), (): RF_ONE, (e1, e1, f1): scales[2]}),
        AlgebraWord.of_gen(e1) - AlgebraWord.of_gen(e1),
        AlgebraWord(),
    ]
    for x in combos:
        assert act_word(m, x) == reference_act_word(m, x), x


@pytest.mark.parametrize("name,hw", ACT_MODULES)
def test_act_word_returns_a_new_matrix(name, hw):
    m = algebra(name).irrep(hw)
    for gen in _letters(m.cd):
        stored = m.gen_matrix(gen)
        before = dict(stored.data)
        got = act_word(m, AlgebraWord.of_gen(gen))
        assert got == stored
        assert got is not stored and got.data is not stored.data
        got.data.clear()
        assert stored.data == before
