import random

import pytest

from qgroups import bundle
from qgroups.bundle import (
    Section,
    TruncationPolicy,
    borel_weil_check,
    defining_property_holds,
    dot_on_section,
    eta_map,
    frobenius_maps,
    holomorphic_sections,
    invariant_functions,
    is_invariant_function,
    kappa_map,
    levi_complement,
    omega_coaction,
    omega_compatible,
    omega_counit_reconstructs,
    product_closure_check,
    same_span,
    section_times_invariant,
    sections_direct,
    sections_from_hom,
    span_rank,
    trivial_bundle_check,
)
from qgroups.coeff import CoeffElement, antipode, product
from qgroups.parabolic import ParabolicData, hom_space
from qgroups.scalar import RF_ONE, RF_ZERO, RationalFunction
from qgroups.uqrep import AlgebraWord, act_word, gen_e, gen_f, gen_k
from retired_helpers import section_add, section_scale


def v(n):
    return RationalFunction.v_power(n)


def borel(alg):
    return ParabolicData(alg.cd, ())


def test_truncation_policy(a2):
    t = TruncationPolicy(height=2)
    assert t.weights(a2.cd) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    e = TruncationPolicy(explicit=[(1, 0), (1, 0)])
    assert e.weights(a2.cd) == [(1, 0)]
    with pytest.raises(ValueError):
        TruncationPolicy()
    with pytest.raises(ValueError):
        TruncationPolicy(explicit=[(-1, 0)]).weights(a2.cd)


def test_sections_from_hom_line(a1):
    p = borel(a1)
    w1 = a1.irrep((1,))
    line = a1.irreps.levi(a1.cd, (), (-1,))
    phi = hom_space(w1, line, p, "levi").maps[0]
    secs = sections_from_hom(a1, p, w1, line, phi)
    assert len(secs) == 2
    assert span_rank(secs) == 2
    for z in secs:
        assert defining_property_holds(z, "levi")
    # explicit values established by hand from the antipode expansion
    assert secs[0].data == {((1,), 2, 1): {0: -v(-2)}}
    assert secs[1].data == {((1,), 1, 1): {0: v(0)}}


def test_sections_direct_agrees_with_hom_route(a1, a2):
    cases = [
        (a1, (), a1.irreps.levi(a1.cd, (), (-1,)), (1,)),
        (a1, (), a1.irreps.levi(a1.cd, (), (0,)), (2,)),
        (a2, (1,), a2.irreps.levi(a2.cd, (1,), (0, -1)), (1, 0)),
        (a2, (1,), a2.irreps.levi(a2.cd, (1,), (1, 0)), (1, 0)),
    ]
    for alg, theta, vmod, lam in cases:
        p = ParabolicData(alg.cd, theta)
        direct = sections_direct(alg, vmod, p, lam, "levi")
        for z in direct:
            assert defining_property_holds(z, "levi")
        source = alg.irrep(lam)
        homs = hom_space(source, vmod, p, "levi")
        via_hom = []
        for phi in homs:
            via_hom.extend(sections_from_hom(alg, p, source, vmod, phi))
        assert len(direct) == len(via_hom) == source.dim * len(homs)
        assert same_span(direct, via_hom)


def test_sections_direct_empty_when_no_homs(a2):
    p = ParabolicData(a2.cd, (1,))
    vmod = a2.irreps.levi(a2.cd, (1,), (0, -1))
    # lowest-weight mismatch: no parabolic sections at grade (0,1)
    assert sections_direct(a2, vmod, p, (0, 1), "parabolic") == []


def test_invariant_functions_dimensions(a2):
    p = ParabolicData(a2.cd, (1,))
    table = invariant_functions(a2, p, TruncationPolicy(height=2))
    dims = {lam: len(fs) for lam, fs in table.items()}
    assert dims[(0, 0)] == 1
    assert dims[(1, 1)] == 8
    assert dims[(1, 0)] == 0 and dims[(0, 1)] == 0
    for fs in table.values():
        for f in fs:
            assert is_invariant_function(a2, p, f)


def test_product_closure_and_negative_control(a1):
    p = borel(a1)
    table = invariant_functions(a1, p, TruncationPolicy(explicit=[(2,)]))
    inv = table[(2,)]
    assert len(inv) == 3
    prod = product_closure_check(a1, p, inv[0], inv[1])
    assert is_invariant_function(a1, p, prod)
    # a plain coefficient is not invariant
    assert not is_invariant_function(a1, p, CoeffElement.basis((1,), 1, 2))
    with pytest.raises(ArithmeticError):
        product_closure_check(a1, p, inv[0], CoeffElement.basis((1,), 1, 2))


def test_two_sided_module_structure(a1):
    p = borel(a1)
    inv = invariant_functions(a1, p, TruncationPolicy(explicit=[(2,)]))[(2,)]
    line = a1.irreps.levi(a1.cd, (), (-1,))
    w1 = a1.irrep((1,))
    phi = hom_space(w1, line, p, "levi").maps[0]
    for z in sections_from_hom(a1, p, w1, line, phi):
        for f in inv[:2]:
            left = section_times_invariant(z, f, "left")
            right = section_times_invariant(z, f, "right")
            assert defining_property_holds(left, "levi")
            assert defining_property_holds(right, "levi")


def test_dot_action_module_law_and_matrices(a1):
    p = borel(a1)
    line = a1.irreps.levi(a1.cd, (), (-1,))
    w1 = a1.irrep((1,))
    phi = hom_space(w1, line, p, "parabolic").maps[0]
    secs = sections_from_hom(a1, p, w1, line, phi)
    e, f, k = (AlgebraWord.of_gen(g) for g in (gen_e(1), gen_f(1), gen_k(1)))
    # identity and associativity
    assert dot_on_section(AlgebraWord.unit(), secs[0]) == secs[0]
    for x in (e, f, k):
        for y in (e, f, k):
            assert dot_on_section(x * y, secs[0]) == \
                dot_on_section(x, dot_on_section(y, secs[0]))
    # the action matrix on the section family is the canonical one
    for x in (e, f, k):
        mat = act_word(w1, x)
        for i in range(2):
            rhs = Section(a1, p, line)
            for j, c in mat.column(i).items():
                rhs = section_add(rhs, section_scale(secs[j], c))
            assert dot_on_section(x, secs[i]) == rhs


def test_omega_coaction(a1):
    p = borel(a1)
    line = a1.irreps.levi(a1.cd, (), (-1,))
    w1 = a1.irrep((1,))
    phi = hom_space(w1, line, p, "levi").maps[0]
    secs = sections_from_hom(a1, p, w1, line, phi)
    for z in secs:
        assert omega_counit_reconstructs(z)
        assert omega_compatible(z, "levi")
    # constant section: coaction is unit (x) itself
    const = Section(a1, p, line, {((0,), 1, 1): {0: v(0)}})
    om = omega_coaction(const)
    assert om == {(((0,), 1, 1), ((0,), 1, 1)): {0: v(0)}}


def _random_sections(alg, p, wmod, rng, n, supports):
    out = []
    for _ in range(n):
        data = {}
        for _ in range(rng.randint(1, 2)):
            lam = supports[rng.randrange(len(supports))]
            d = alg.irrep(lam).dim
            key = (lam, rng.randint(1, d), rng.randint(1, d))
            data.setdefault(key, {})[rng.randrange(wmod.dim)] = v(rng.randint(-2, 2))
        out.append(Section(alg, p, wmod, data))
    return out


def test_eta_kappa_roundtrips(a1):
    p = borel(a1)
    w1 = a1.irrep((1,))
    rng = random.Random(12)
    for z in _random_sections(a1, p, w1, rng, 8, [(0,), (1,), (2,)]):
        assert eta_map(eta_map(z, w1, "inverse"), w1, "forward") == z
        assert eta_map(eta_map(z, w1, "forward"), w1, "inverse") == z
        assert kappa_map(kappa_map(z, w1, "inverse"), w1, "forward") == z
        assert kappa_map(kappa_map(z, w1, "forward"), w1, "inverse") == z


def reference_trivialization(zeta, wmod, side, times):
    """eta (side "left") or kappa (side "right") with S^times(t_ji) formed
    afresh for every key and index, as the maps did before sharing rows."""
    alg = zeta.alg
    out = {}
    for key, vec in zeta.data.items():
        basis = CoeffElement({key: RF_ONE})
        for i, x in vec.items():
            for j in range(wmod.dim):
                t = CoeffElement.basis(wmod.hw, j + 1, i + 1)
                for _ in range(times):
                    t = antipode(alg, t)
                left, right = (t, basis) if side == "left" else (basis, t)
                for pkey, c in product(alg, left, right).terms.items():
                    vec_out = out.setdefault(pkey, {})
                    vec_out[j] = vec_out.get(j, RF_ZERO) + c * x
    return Section(alg, zeta.p, wmod, out)


def test_trivializations_share_one_antipode_row_per_index(a2, monkeypatch):
    # two keys carry the same index i = 0, so both read one antipoded row
    p = ParabolicData(a2.cd, (1,))
    w = a2.irrep((1, 0))
    z = Section(a2, p, w, {((0, 0), 1, 1): {0: v(1), 2: v(-1)},
                           ((1, 0), 2, 3): {0: v(2)}})
    calls = []
    counted = bundle.antipode
    monkeypatch.setattr(bundle, "antipode", lambda alg, a: calls.append(a) or counted(alg, a))
    for fmap, side, times in ((eta_map, "left", {"forward": 0, "inverse": 1}),
                              (kappa_map, "right", {"forward": 2, "inverse": 1})):
        for direction, n in times.items():
            del calls[:]
            image = fmap(z, w, direction)
            # one row of w.dim coefficients per index i in {0, 2}
            assert len(calls) == 2 * w.dim * n
            assert image == reference_trivialization(z, w, side, n)
            other = "inverse" if direction == "forward" else "forward"
            assert fmap(image, w, other) == z


def test_eta_trivial_module_is_identity(a1):
    p = borel(a1)
    triv = a1.irrep((0,))
    z = Section(a1, p, triv, {((1,), 1, 2): {0: v(1)}})
    assert eta_map(z, triv, "forward") == z
    assert eta_map(z, triv, "inverse") == z


def test_eta_sends_induced_sections_to_invariant_columns(a1):
    p = borel(a1)
    w1 = a1.irrep((1,))
    homs = hom_space(w1, w1, p, "levi")
    assert len(homs) == 2  # torus intertwiners of a two-dimensional module
    for phi in homs:
        for z in sections_from_hom(a1, p, w1, w1, phi):
            img = eta_map(z, w1, "forward")
            comps = {}
            for (key, r), x in img.flat_items():
                comps.setdefault(r, {})[key] = x
            for terms in comps.values():
                assert is_invariant_function(a1, p, CoeffElement(terms))
            assert eta_map(img, w1, "inverse") == z


def test_levi_complement(a1, a2):
    p = borel(a1)
    line = a1.irreps.levi(a1.cd, (), (-1,))
    w, matched, complement = levi_complement(a1, p, line)
    assert w.hw == (1,) and matched[0] == (-1,)
    assert [c[0] for c in complement] == [(1,)]
    # a full restriction has no complement
    p2 = ParabolicData(a2.cd, (1, 2))
    big = a2.irreps.levi(a2.cd, (1, 2), (1, 1))
    w2, matched2, comp2 = levi_complement(a2, p2, big)
    assert w2.hw == (1, 1) and comp2 == []
    # 2-dimensional constituent of the first fundamental
    p3 = ParabolicData(a2.cd, (1,))
    vmod = a2.irreps.levi(a2.cd, (1,), (1, 0))
    w3, matched3, comp3 = levi_complement(a2, p3, vmod)
    assert w3.hw == (1, 0)
    assert vmod.dim + sum(c[1].dim for c in comp3) == w3.dim


def test_frobenius(a1, a2):
    p = borel(a1)
    w2 = a1.irrep((2,))
    trunc = TruncationPolicy(height=3)
    for m, expect in [((-2,), 1), ((0,), 1), ((2,), 1), ((1,), 0)]:
        vmod = a1.irreps.levi(a1.cd, (), m)
        rep = frobenius_maps(a1, p, w2, vmod, trunc)
        assert rep["dim_reductive"] == expect
        assert rep["dims_equal"]
        assert rep["induced_intertwines"]
        assert rep["F_after_Fbar_is_identity"]
        assert rep["Fbar_after_F_is_identity"]
    p1 = ParabolicData(a2.cd, (1,))
    w10 = a2.irrep((1, 0))
    vmod = a2.irreps.levi(a2.cd, (1,), (1, 0))
    rep = frobenius_maps(a2, p1, w10, vmod, TruncationPolicy(height=2))
    assert rep["dims_equal"] and rep["dim_reductive"] == 1


def test_holomorphic_sections_and_borel_weil(a1):
    p = borel(a1)
    trunc = TruncationPolicy(height=4)
    # negative character: sections span the predicted module
    for n in range(0, 4):
        vmod = a1.irreps.levi(a1.cd, (), (-n,))
        table = holomorphic_sections(a1, vmod, p, trunc)
        assert set(table) == {(n,)} if n else set(table) == {(0,)}
        assert len(table[(n,)]) == n + 1
        for z in table[(n,)]:
            assert defining_property_holds(z, "parabolic")
        rep = borel_weil_check(a1, vmod, p, trunc)
        assert rep["status"] == "pass"
        assert rep["expected_grade"] == (n,)
    # positive character: no sections at all
    vplus = a1.irreps.levi(a1.cd, (), (2,))
    assert holomorphic_sections(a1, vplus, p, trunc) == {}
    rep = borel_weil_check(a1, vplus, p, trunc)
    assert rep["status"] == "pass" and rep["total_dim"] == 0


def test_borel_weil_inconclusive(a1):
    p = borel(a1)
    vmod = a1.irreps.levi(a1.cd, (), (-5,))
    rep = borel_weil_check(a1, vmod, p, TruncationPolicy(height=2))
    assert rep["status"] == "inconclusive"
    assert not rep["conclusive"]


def test_trivial_bundle(a1, a2):
    p = borel(a1)
    rep = trivial_bundle_check(a1, a1.irrep((1,)), p, TruncationPolicy(height=3))
    assert rep["status"] == "pass" and rep["dim"] == 2
    p2 = ParabolicData(a2.cd, ())
    rep2 = trivial_bundle_check(a2, a2.irrep((1, 0)), p2, TruncationPolicy(height=2))
    assert rep2["status"] == "pass" and rep2["dim"] == 3


def test_section_serialization(a1):
    p = borel(a1)
    line = a1.irreps.levi(a1.cd, (), (-1,))
    w1 = a1.irrep((1,))
    phi = hom_space(w1, line, p, "levi").maps[0]
    for z in sections_from_hom(a1, p, w1, line, phi):
        assert Section.from_json(a1, p, line, z.to_json()) == z


def test_borel_weil_b2(b2):
    p = ParabolicData(b2.cd, ())
    trunc = TruncationPolicy(height=1)
    for mu, dim in [((0, -1), 4), ((-1, 0), 5), ((1, 0), 0)]:
        vmod = b2.irreps.levi(b2.cd, (), mu)
        rep = borel_weil_check(b2, vmod, p, trunc)
        assert rep["status"] == "pass" and rep["total_dim"] == dim
    # proper parabolic: only the constituent whose lowest weight negates to a
    # dominant weight carries sections
    from qgroups.parabolic import branching_oracle, levi_lowest_weight
    from qgroups.cartan import is_dominant, dual_weight, weyl_dim

    p1 = ParabolicData(b2.cd, (1,))
    for mu in branching_oracle(b2.cd, p1, (0, 1)):
        vmod = b2.irreps.levi(b2.cd, (1,), mu)
        rep = borel_weil_check(b2, vmod, p1, trunc)
        neg = tuple(-c for c in levi_lowest_weight(p1, mu))
        expect = weyl_dim(b2.cd, dual_weight(b2.cd, neg)) if is_dominant(neg) else 0
        assert rep["status"] == "pass" and rep["total_dim"] == expect


def test_borel_weil_a3(a3):
    p = ParabolicData(a3.cd, ())
    vmod = a3.irreps.levi(a3.cd, (), (0, 0, -1))
    rep = borel_weil_check(a3, vmod, p, TruncationPolicy(height=1))
    assert rep["status"] == "pass"
    assert rep["expected_grade"] == (1, 0, 0)
    assert rep["total_dim"] == 4


def test_unknown_flavor_is_refused_by_each_flavored_function(a1):
    # a misspelt flavor used to solve the Levi system in sections_direct and
    # to count as parabolic in the two section checks
    p = borel(a1)
    line = a1.irreps.levi(a1.cd, (), (-1,))
    w1 = a1.irrep((1,))
    z = sections_direct(a1, line, p, (1,), "levi")[0]
    calls = {
        "hom_space": lambda flavor: hom_space(w1, line, p, flavor),
        "sections_direct": lambda flavor: sections_direct(a1, line, p, (1,), flavor),
        "defining_property_holds": lambda flavor: defining_property_holds(z, flavor),
        "omega_compatible": lambda flavor: omega_compatible(z, flavor),
    }
    for name, call in calls.items():
        assert all(call(flavor) for flavor in ("levi", "parabolic")), name
        with pytest.raises(ValueError, match=r"^unknown flavor 'parabolc'$"):
            call("parabolc")
