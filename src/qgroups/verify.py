"""Named verification suites over fixed small-rank grids.

Each suite returns {"name", "passed", "details"} with deterministic,
JSON-serializable details.  The command-line driver and the acceptance tests
both run these; everything is exact except where a suite explicitly
specializes at a rational point.

Grid choices (fixed here, shrunk by quick=True):
  relations/dimensions: A1 up to weight 8, A2 up to total weight 4,
  A3 fundamentals, B2 up to (2, 2).
  coefficient suites (antipode law, star, duality, Schur): small weights
  where products stay inside modest tensor decompositions.
"""

from __future__ import annotations

import itertools
import random

from .bundle import (
    Section,
    TruncationPolicy,
    borel_weil_check,
    eta_map,
    invariant_functions,
    is_invariant_function,
    kappa_map,
    levi_complement,
    frobenius_maps,
    product_closure_check,
    sections_from_hom,
    trivial_bundle_check,
)
from .cartan import cartan_data, lowest_weight, weight_multiplicities, weyl_dim
from .coeff import (
    CoeffAlgebra,
    CoeffElement,
    antipode,
    coeff_eval,
    haar,
    haar_positivity,
    k2rho_word,
    product,
    schur_pair,
    word_pairing,
)
from .linalg import accumulate
from .parabolic import (
    ParabolicData,
    branching_oracle,
    central_hom_count,
    hom_space,
    levi_lowest_weight,
    restrict_levi,
)
from .scalar import LaurentPoly, Memo, RF_ONE, RationalFunction, rf_to_text
from .uqrep import AlgebraWord, check_serre, k2rho


def relations_grid(quick=False, algebra=None, max_weight=None):
    grid = []
    a1 = 4 if quick else 8
    grid += [("A1", (n,)) for n in range(a1 + 1)]
    a2 = 2 if quick else 4
    grid += [("A2", (a, b)) for a in range(a2 + 1) for b in range(a2 + 1 - a)]
    grid += [("A3", w) for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    b2 = 1 if quick else 2
    grid += [("B2", (a, b)) for a in range(b2 + 1) for b in range(b2 + 1)]
    return _filter_grid(grid, algebra, max_weight)


def _filter_grid(grid, algebra, max_weight):
    if algebra is not None:
        grid = [(n, w) for n, w in grid if n == algebra.upper()]
    if max_weight is not None:
        grid = [(n, w) for n, w in grid if sum(w) <= max_weight]
    return grid


def coefficient_grid(quick=False, algebra=None, max_weight=None):
    a1 = 2 if quick else 3
    out = [("A1", (n,)) for n in range(a1 + 1)]
    out += [("A2", w) for w in ((0, 0), (1, 0), (0, 1))]
    if not quick:
        out.append(("A2", (1, 1)))
        out += [("A3", w) for w in ((1, 0, 0), (0, 0, 1))]
        out += [("B2", w) for w in ((1, 0), (0, 1))]
    return _filter_grid(out, algebra, max_weight)


_ALGEBRAS = Memo(lambda name: CoeffAlgebra(cartan_data(name)))


def _algebra_ctx(name) -> CoeffAlgebra:
    return _ALGEBRAS[name]


# public accessor; the check functions use the private alias because their
# algebra parameter shadows the name
algebra = _algebra_ctx


def _word_alphabet(cd):
    gens = []
    for i in range(1, cd.rank + 1):
        gens += [("e", i), ("f", i), ("k", i), ("K", i)]
    return gens


def check_relations(quick=False, algebra=None, max_weight=None):
    """Every defining relation, as exact matrix identities, on the grid."""
    failures = []
    counts = {}
    for name, hw in relations_grid(quick, algebra, max_weight):
        alg = _algebra_ctx(name)
        m = alg.irrep(hw)
        report = check_serre(m)
        counts[f"{name} {hw}"] = len(report)
        for entry in report:
            if not entry["ok"]:
                failures.append({"algebra": name, "weight": list(hw), **entry})
    return {
        "name": "relations",
        "passed": not failures,
        "details": {"checked": counts, "failures": failures},
    }


def check_dimensions(quick=False, algebra=None, max_weight=None):
    """Dimensions against the Weyl formula, multiplicities against Freudenthal."""
    failures = []
    checked = 0
    for name, hw in relations_grid(quick, algebra, max_weight):
        alg = _algebra_ctx(name)
        cd = alg.cd
        m = alg.irrep(hw)
        checked += 1
        if m.dim != weyl_dim(cd, hw):
            failures.append({"algebra": name, "weight": list(hw), "kind": "dimension"})
            continue
        got = {}
        for w in m.weights:
            got[w] = got.get(w, 0) + 1
        if got != weight_multiplicities(cd, hw):
            failures.append({"algebra": name, "weight": list(hw), "kind": "multiplicity"})
    return {
        "name": "dimensions",
        "passed": not failures,
        "details": {"modules": checked, "failures": failures},
    }


def check_hopf(quick=False, algebra=None, max_weight=None):
    """Coassociativity, counit and antipode laws, and product/coproduct duality."""
    from .coeff import coproduct

    failures = []
    checked = {"coassociativity": 0, "counit": 0, "antipode_law": 0, "duality": 0}

    for name, lam in coefficient_grid(quick, algebra, max_weight):
        alg = _algebra_ctx(name)
        d = alg.irrep(lam).dim
        unit = alg.unit()
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                t_ij = CoeffElement.basis(lam, i, j)
                # coassociativity: both re-expansions give sum_{k,l} t_ik t_kl t_lj
                left = {}
                right = {}
                for (k1, k2), c in coproduct(alg, t_ij).terms.items():
                    d1 = coproduct(alg, CoeffElement({k1: RF_ONE})).terms
                    d2 = coproduct(alg, CoeffElement({k2: RF_ONE})).terms
                    accumulate(left, (((k1a, k1b, k2), c * c1) for (k1a, k1b), c1 in d1.items()))
                    accumulate(right, (((k1, k2a, k2b), c * c2) for (k2a, k2b), c2 in d2.items()))
                checked["coassociativity"] += 1
                if left != right:
                    failures.append({"law": "coassociativity", "algebra": name,
                                     "weight": list(lam), "i": i, "j": j})
                # counit laws, both sides
                checked["counit"] += 1
                recon_l = CoeffElement()
                recon_r = CoeffElement()
                for ((l1, a, k1), (l2, k2, b)), c in coproduct(alg, t_ij).terms.items():
                    if a == k1:
                        recon_l = recon_l + CoeffElement({(l2, k2, b): c})
                    if k2 == b:
                        recon_r = recon_r + CoeffElement({(l1, a, k1): c})
                if recon_l != t_ij or recon_r != t_ij:
                    failures.append({"law": "counit", "algebra": name,
                                     "weight": list(lam), "i": i, "j": j})
                # antipode laws: sum_k S(t_ik) t_kj = delta_ij = sum_k t_ik S(t_kj)
                acc1 = CoeffElement()
                acc2 = CoeffElement()
                for k in range(1, d + 1):
                    acc1 = acc1 + product(
                        alg, antipode(alg, CoeffElement.basis(lam, i, k)),
                        CoeffElement.basis(lam, k, j))
                    acc2 = acc2 + product(
                        alg, CoeffElement.basis(lam, i, k),
                        antipode(alg, CoeffElement.basis(lam, k, j)))
                expect = unit if i == j else CoeffElement()
                checked["antipode_law"] += 1
                if acc1 != expect or acc2 != expect:
                    failures.append({"law": "antipode", "algebra": name,
                                     "weight": list(lam), "i": i, "j": j})

    # duality <ab, x> = <a (x) b, Delta x> for all words of length <= 3
    duality_cases = [
        ("A1", (1,), (1,), None),
        ("A1", (1,), (2,), None),
        ("A1", (2,), (2,), None),
        ("A2", (1, 0), (0, 1), 12),
        ("A2", (1, 0), (1, 0), 12),
    ]
    if quick:
        duality_cases = duality_cases[:2]
    if algebra is not None:
        duality_cases = [c for c in duality_cases if c[0] == algebra.upper()]
    for name, lam, mu, sample in duality_cases:
        alg = _algebra_ctx(name)
        cd = alg.cd
        dl, dm = alg.irrep(lam).dim, alg.irrep(mu).dim
        pairs = [
            (i, j, r, s)
            for i in range(1, dl + 1) for j in range(1, dl + 1)
            for r in range(1, dm + 1) for s in range(1, dm + 1)
        ]
        if sample is not None:
            rng = random.Random(11)
            pairs = rng.sample(pairs, min(sample, len(pairs)))
        alphabet = _word_alphabet(cd)
        words = [AlgebraWord.unit()]
        for ln in (1, 2, 3):
            for combo in itertools.product(alphabet, repeat=ln):
                words.append(AlgebraWord.of_word(*combo))
        for i, j, r, s in pairs:
            a = CoeffElement.basis(lam, i, j)
            b = CoeffElement.basis(mu, r, s)
            ab = product(alg, a, b)
            for x in words:
                checked["duality"] += 1
                if coeff_eval(alg, ab, x) != word_pairing(alg, a, b, x):
                    failures.append({"law": "duality", "algebra": name,
                                     "weights": [list(lam), list(mu)],
                                     "indices": [i, j, r, s]})
                    break
    return {"name": "hopf", "passed": not failures,
            "details": {"checked": checked, "failures": failures}}


def check_schur(quick=False, algebra=None, max_weight=None):
    """Integrals of coefficient pairs against the closed forms, both index
    patterns, plus the antipode-square conjugation identity as matrices.

    With an algebra restriction the report carries the per-index table of
    integrals for that algebra's pair grid.
    """
    failures = []
    checked = 0
    table = [] if algebra is not None else None

    pair_grid = [("A1", [(n,) for n in range(0, 3 if quick else 4)])]
    if not quick:
        pair_grid.append(("A2", [(1, 0), (0, 1)]))
    if algebra is not None:
        pair_grid = [g for g in pair_grid if g[0] == algebra.upper()]
    if max_weight is not None:
        pair_grid = [(n, [w for w in ws if sum(w) <= max_weight])
                     for n, ws in pair_grid]
    for name, weights in pair_grid:
        alg = _algebra_ctx(name)
        for lam, mu in itertools.product(weights, repeat=2):
            dl, dm = alg.irrep(lam).dim, alg.irrep(mu).dim
            for i in range(1, dl + 1):
                for j in range(1, dl + 1):
                    for r in range(1, dm + 1):
                        for s in range(1, dm + 1):
                            t_ij = CoeffElement.basis(lam, i, j)
                            t_rs = CoeffElement.basis(mu, r, s)
                            # dual coefficient with indices (r, s) is S(t_sr)
                            got = haar(alg, product(alg, t_ij,
                                                    antipode(alg, CoeffElement.basis(mu, s, r))))
                            want = schur_pair(alg, lam, i, j, r, s, mu, "t_dual")
                            checked += 1
                            if got != want:
                                failures.append({"variant": "t_dual", "algebra": name,
                                                 "weights": [list(lam), list(mu)],
                                                 "indices": [i, j, r, s]})
                            got2 = haar(alg, product(alg,
                                                     antipode(alg, CoeffElement.basis(lam, j, i)),
                                                     t_rs))
                            want2 = schur_pair(alg, lam, i, j, r, s, mu, "dual_t")
                            checked += 1
                            if got2 != want2:
                                failures.append({"variant": "dual_t", "algebra": name,
                                                 "weights": [list(lam), list(mu)],
                                                 "indices": [i, j, r, s]})
                            if table is not None and got:
                                table.append({
                                    "weights": [list(lam), list(mu)],
                                    "indices": [i, j, r, s],
                                    "integral": rf_to_text(got),
                                })

    # antipode square as conjugation, matrix form, on the relations grid
    s2_checked = 0
    for name, hw in relations_grid(quick, algebra, max_weight):
        alg = _algebra_ctx(name)
        cd = alg.cd
        m = alg.irrep(hw)
        mono = k2rho(cd)
        kmat = mono.matrix(m)
        kinv = mono.matrix(m, inverse=True)
        for i in range(1, cd.rank + 1):
            qi2 = RationalFunction.v_power(4 * cd.d[i - 1])
            s2_checked += 2
            if (kmat @ m.e_matrix(i) @ kinv) != m.e_matrix(i).scale(qi2):
                failures.append({"variant": "s_squared", "algebra": name,
                                 "weight": list(hw), "generator": f"e{i}"})
            if (kmat @ m.f_matrix(i) @ kinv) != m.f_matrix(i).scale(qi2.inv()):
                failures.append({"variant": "s_squared", "algebra": name,
                                 "weight": list(hw), "generator": f"f{i}"})

    # pairing form of the same identity on a small sample
    for name, lam in coefficient_grid(quick, algebra, max_weight)[:4]:
        alg = _algebra_ctx(name)
        cd = alg.cd
        d = alg.irrep(lam).dim
        conj = k2rho_word(cd)
        conj_inv = AlgebraWord({tuple(("K" if kind == "k" else "k", i)
                                      for kind, i in word): c
                                for word, c in conj.terms.items()})
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                a = CoeffElement.basis(lam, i, j)
                s2a = antipode(alg, antipode(alg, a))
                for gen in _word_alphabet(cd)[: 2 * cd.rank]:
                    x = AlgebraWord.of_gen(gen)
                    lhs = coeff_eval(alg, s2a, x)
                    rhs = coeff_eval(alg, a, conj * x * conj_inv)
                    s2_checked += 1
                    if lhs != rhs:
                        failures.append({"variant": "s_squared_pairing",
                                         "algebra": name, "weight": list(lam),
                                         "indices": [i, j]})
    details = {"integrals": checked, "s_squared": s2_checked,
               "failures": failures}
    if table is not None:
        details["table"] = table
    return {"name": "schur", "passed": not failures, "details": details}


def _random_element(alg, supports, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        lam = supports[rng.randrange(len(supports))]
        d = alg.irrep(lam).dim
        i, j = rng.randint(1, d), rng.randint(1, d)
        poly = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)})
        if poly.is_zero():
            poly = LaurentPoly({0: 1})
        key = (lam, i, j)
        terms[key] = RationalFunction.of_poly(poly)
    return CoeffElement(terms)


def check_haar_positivity(quick=False, algebra=None, max_weight=None, samples=50, v0=2):
    """Positivity of the invariant integral on pseudo-random elements."""
    failures = []
    supports = {
        "A1": [(0,), (1,), (2,)],
        "A2": [(0, 0), (1, 0), (0, 1)],
        "A3": [(0, 0, 0), (1, 0, 0), (0, 0, 1)],
        "B2": [(0, 0), (1, 0), (0, 1)],
    }
    names = ["A1", "A2"] if quick else ["A1", "A2", "A3", "B2"]
    if algebra is not None:
        names = [n for n in names if n == algebra.upper()]
    n = 10 if quick else samples
    checked = 0
    for name in names:
        alg = _algebra_ctx(name)
        rng = random.Random(2024)
        for _ in range(n):
            a = _random_element(alg, supports[name], rng)
            val = haar_positivity(alg, a, v0)
            checked += 1
            if a.is_zero():
                if val.value != 0:
                    failures.append({"algebra": name, "kind": "zero"})
            elif not val.value > 0:
                failures.append({"algebra": name, "kind": "nonpositive",
                                 "value": str(val.value)})
        zero = haar_positivity(alg, CoeffElement(), v0)
        if zero.value != 0:
            failures.append({"algebra": name, "kind": "zero-element"})
    return {"name": "haar_positivity", "passed": not failures,
            "details": {"samples": checked, "v0": v0, "failures": failures}}


def _hom_grid(quick=False):
    grid = []
    nmax = 3 if quick else 5
    grid.append(("A1", (), [(n,) for n in range(nmax + 1)],
                 [(m,) for m in range(-nmax, nmax + 1)]))
    total = 2 if quick else 3
    a2_weights = [(a, b) for a in range(total + 1) for b in range(total + 1 - a)]
    for theta in ((), (1,), (2,)):
        grid.append(("A2", theta, a2_weights, None))
    return grid


def check_hom_criterion(quick=False, algebra=None, max_weight=None):
    """Intertwiner dimension from a full module to a parabolic irreducible is
    one exactly when the lowest weights agree, zero otherwise."""
    failures = []
    checked = 0
    grid = _hom_grid(quick)
    if algebra is not None:
        grid = [g for g in grid if g[0] == algebra.upper()]
    for name, theta, weights, explicit_targets in grid:
        alg = _algebra_ctx(name)
        cd = alg.cd
        p = ParabolicData(cd, theta)
        if explicit_targets is not None:
            targets = explicit_targets
        else:
            targets = sorted({
                mu
                for lam in weights
                for mu in restrict_levi(alg.irrep(lam), p, alg.irreps).multiplicities()
            })
        for lam in weights:
            w = alg.irrep(lam)
            lam_bar = lowest_weight(cd, lam)
            for mu in targets:
                if any(mu[j - 1] < 0 for j in theta):
                    continue
                v = alg.irreps.levi(cd, theta, mu)
                mu_tilde = levi_lowest_weight(p, mu)
                expect = 1 if lam_bar == mu_tilde else 0
                got = len(hom_space(w, v, p, "parabolic"))
                checked += 1
                if got != expect:
                    failures.append({"algebra": name, "theta": list(theta),
                                     "weight": list(lam), "target": list(mu),
                                     "got": got, "expect": expect})
    return {"name": "hom_criterion", "passed": not failures,
            "details": {"checked": checked, "failures": failures}}


def check_invariants(quick=False, algebra=None, max_weight=None):
    """Invariant-function algebra: closure under products, central intertwiner
    counts, and the dimension of the top-root invariant space."""
    failures = []
    details = {"central_counts": {}, "gamma_dims": {}, "products": 0}

    type_thetas = {
        "A1": [(), (1,)],
        "A2": [(), (1,), (2,), (1, 2)],
        "B2": [(), (1,), (2,), (1, 2)],
        "A3": [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)],
    }
    names = ["A1", "A2"] if quick else ["A1", "A2", "B2", "A3"]
    if algebra is not None:
        names = [n for n in names if n == algebra.upper()]
    for name in names:
        alg = _algebra_ctx(name)
        cd = alg.cd
        gamma = cd.root_to_fundamental(cd.highest_root)
        d_gamma = alg.irrep(gamma).dim
        for theta in type_thetas[name]:
            p = ParabolicData(cd, theta)
            n = central_hom_count(p, alg.irreps)
            expect = cd.rank - len(theta)
            details["central_counts"][f"{name} theta={theta}"] = n
            if n != expect:
                failures.append({"kind": "central_count", "algebra": name,
                                 "theta": list(theta), "got": n, "expect": expect})
            inv = invariant_functions(alg, p, TruncationPolicy(explicit=[gamma]))
            got_dim = len(inv[gamma])
            details["gamma_dims"][f"{name} theta={theta}"] = got_dim
            if got_dim != d_gamma * expect:
                failures.append({"kind": "gamma_dim", "algebra": name,
                                 "theta": list(theta), "got": got_dim,
                                 "expect": d_gamma * expect})
            for f in inv[gamma]:
                if not is_invariant_function(alg, p, f):
                    failures.append({"kind": "invariance", "algebra": name,
                                     "theta": list(theta)})

    product_cases = [("A1", ()), ("A2", (1,))]
    if not quick:
        product_cases.append(("B2", (1,)))
    if algebra is not None:
        product_cases = [c for c in product_cases if c[0] == algebra.upper()]
    for name, theta in product_cases:
        alg = _algebra_ctx(name)
        cd = alg.cd
        p = ParabolicData(cd, theta)
        gamma = cd.root_to_fundamental(cd.highest_root)
        inv = invariant_functions(alg, p, TruncationPolicy(explicit=[gamma]))[gamma]
        for a, b in itertools.islice(itertools.product(inv[:2], inv[:2]), 4):
            try:
                product_closure_check(alg, p, a, b)
                details["products"] += 1
            except ArithmeticError:
                failures.append({"kind": "product_closure", "algebra": name,
                                 "theta": list(theta)})
        # negative control: a plainly non-invariant coefficient
        fund = (1,) + (0,) * (cd.rank - 1)
        bad = CoeffElement.basis(fund, 1, alg.irrep(fund).dim)
        if is_invariant_function(alg, p, bad):
            failures.append({"kind": "negative_control", "algebra": name})
    return {"name": "invariants", "passed": not failures, "details": details | {
        "failures": failures}}


def _projectivity_cases(quick=False):
    cases = [("A1", (), (-1,)), ("A1", (), (1,))]
    if not quick:
        cases += [("A2", (1,), (1, 0)), ("A2", (1,), (0, -1))]
    return cases


def check_projectivity(quick=False, algebra=None, max_weight=None, n_samples=20):
    """Trivialization maps invert each other, carry induced sections to
    invariant-coefficient columns, and every Levi module complements into the
    restriction of a full module."""
    failures = []
    details = {"cases": [], "roundtrips": 0}
    cases = _projectivity_cases(quick)
    if algebra is not None:
        cases = [c for c in cases if c[0] == algebra.upper()]
    for name, theta, mu in cases:
        alg = _algebra_ctx(name)
        cd = alg.cd
        p = ParabolicData(cd, theta)
        vmod = alg.irreps.levi(cd, theta, mu)
        w, matched, complement = levi_complement(alg, p, vmod)
        dims_ok = vmod.dim + sum(c[1].dim for c in complement) == w.dim
        if not dims_ok:
            failures.append({"kind": "complement_dim", "case": [name, list(theta), list(mu)]})
        details["cases"].append({
            "algebra": name, "theta": list(theta), "mu": list(mu),
            "envelope": list(w.hw),
            "complement": [list(c[0]) for c in complement],
        })

        # eta/kappa roundtrips on pseudo-random truncated elements
        rng = random.Random(7)
        supports = [(0,) * cd.rank, w.hw]
        n = 5 if quick else n_samples
        for _ in range(n):
            data = {}
            for _ in range(rng.randint(1, 2)):
                lam = supports[rng.randrange(len(supports))]
                d = alg.irrep(lam).dim
                key = (lam, rng.randint(1, d), rng.randint(1, d))
                vec = {rng.randrange(w.dim):
                       RationalFunction.v_power(rng.randint(-2, 2), rng.randint(1, 3))}
                data[key] = vec
            z = Section(alg, p, w, data)
            ok = (
                eta_map(eta_map(z, w, "inverse"), w, "forward") == z
                and eta_map(eta_map(z, w, "forward"), w, "inverse") == z
                and kappa_map(kappa_map(z, w, "inverse"), w, "forward") == z
                and kappa_map(kappa_map(z, w, "forward"), w, "inverse") == z
            )
            details["roundtrips"] += 1
            if not ok:
                failures.append({"kind": "roundtrip", "case": [name, list(theta), list(mu)]})

        # eta carries induced sections of the full-module bundle into
        # invariant-coefficient columns, and back; cover the module's own
        # grade plus one higher grade with nonzero intertwiners
        grades = [w.hw]
        if name == "A1":
            grades.append((w.hw[0] + 2,))
        for lam in grades:
            source = alg.irrep(lam)
            homs = hom_space(source, w, p, "levi")
            for phi in itertools.islice(homs, 2):
                for z in sections_from_hom(alg, p, source, w, phi):
                    img = eta_map(z, w, "forward")
                    comp = {}
                    for (key, r), x in img.flat_items():
                        comp.setdefault(r, {})[key] = x
                    for r, terms in comp.items():
                        if not is_invariant_function(alg, p, CoeffElement(terms)):
                            failures.append({"kind": "eta_membership",
                                             "case": [name, list(theta), list(mu)]})
                            break
                    if eta_map(img, w, "inverse") != z:
                        failures.append({"kind": "eta_inverse",
                                         "case": [name, list(theta), list(mu)]})
    return {"name": "projectivity", "passed": not failures,
            "details": details | {"failures": failures}}


def _frobenius_cases(quick=False):
    cases = [("A1", (), (2,), (-2,), 3), ("A1", (), (2,), (0,), 3),
             ("A1", (), (2,), (2,), 3), ("A1", (), (2,), (1,), 3)]
    if not quick:
        cases += [("A2", (1,), (1, 0), (1, 0), 2), ("A2", (1,), (1, 0), (0, -1), 2)]
    return cases


def check_frobenius(quick=False, algebra=None, max_weight=None):
    """Dimension equality of the two intertwiner spaces, the reductive one
    against the classical branching multiplicity, and both round trips."""
    failures = []
    rows = []
    cases = _frobenius_cases(quick)
    if algebra is not None:
        cases = [c for c in cases if c[0] == algebra.upper()]
    for name, theta, w_hw, v_hw, height in cases:
        alg = _algebra_ctx(name)
        cd = alg.cd
        p = ParabolicData(cd, theta)
        w = alg.irrep(w_hw)
        v = alg.irreps.levi(cd, theta, v_hw)
        rep = frobenius_maps(alg, p, w, v, TruncationPolicy(height=height))
        rows.append({"algebra": name, "theta": list(theta), "W": list(w_hw),
                     "V": list(v_hw), "dim": rep["dim_reductive"]})
        mult = branching_oracle(cd, p, w_hw).get(v_hw, 0)   # of V in W restricted to L
        rep["dim_is_branching"] = rep["dim_reductive"] == mult
        for key in ("dims_equal", "induced_intertwines", "dim_is_branching",
                    "F_after_Fbar_is_identity", "Fbar_after_F_is_identity"):
            if not rep[key]:
                failures.append({"case": [name, list(theta), list(w_hw), list(v_hw)],
                                 "failed": key})
    return {"name": "frobenius", "passed": not failures,
            "details": {"cases": rows, "failures": failures}}


def _borel_weil_cases(quick=False):
    nmax = 3 if quick else 5
    cases = [("A1", (), (-n,), 1 + n, nmax + 1) for n in range(nmax + 1)]
    cases += [("A1", (), (n,), 0, nmax + 1) for n in (1, 2)]
    if not quick:
        cases += [
            ("A2", (), (-1, 0), 3, 2),
            ("A2", (), (0, -1), 3, 2),
            ("A2", (), (1, 0), 0, 2),
            ("A2", (), (0, 0), 1, 2),
            ("A2", (1,), (0, -1), 3, 2),
            ("A2", (1,), (1, 0), 0, 2),
        ]
    return cases


def check_borel_weil(quick=False, algebra=None, max_weight=None):
    """Holomorphic-section spaces against the predicted irreducibles,
    including the unit-coefficient description for full-module bundles."""
    failures = []
    rows = []
    cases = _borel_weil_cases(quick)
    if algebra is not None:
        cases = [c for c in cases if c[0] == algebra.upper()]
    for name, theta, mu, expect_dim, height in cases:
        alg = _algebra_ctx(name)
        cd = alg.cd
        p = ParabolicData(cd, theta)
        vmod = alg.irreps.levi(cd, theta, mu)
        rep = borel_weil_check(alg, vmod, p, TruncationPolicy(height=height))
        rows.append({"algebra": name, "theta": list(theta), "mu": list(mu),
                     "status": rep["status"], "dim": rep["total_dim"],
                     "expected_grade": list(rep["expected_grade"]) if rep["expected_grade"] else None})
        if rep["status"] != "pass" or rep["total_dim"] != expect_dim:
            failures.append({"case": [name, list(theta), list(mu)],
                             "status": rep["status"], "dim": rep["total_dim"],
                             "expect": expect_dim})

    trivial_cases = [("A1", (), (1,), 2)]
    if not quick:
        trivial_cases.append(("A2", (), (1, 0), 2))
    if algebra is not None:
        trivial_cases = [c for c in trivial_cases if c[0] == algebra.upper()]
    for name, theta, w_hw, height in trivial_cases:
        alg = _algebra_ctx(name)
        p = ParabolicData(alg.cd, theta)
        rep = trivial_bundle_check(alg, alg.irrep(w_hw), p, TruncationPolicy(height=height))
        rows.append({"algebra": name, "theta": list(theta), "full_module": list(w_hw),
                     "status": rep["status"], "dim": rep["dim"]})
        if rep["status"] != "pass":
            failures.append({"case": [name, list(theta), list(w_hw)],
                             "kind": "trivial_bundle"})
    return {"name": "borel_weil", "passed": not failures,
            "details": {"cases": rows, "failures": failures}}


ALL_CHECKS = {
    "relations": check_relations,
    "dimensions": check_dimensions,
    "hopf": check_hopf,
    "schur": check_schur,
    "haar_positivity": check_haar_positivity,
    "hom_criterion": check_hom_criterion,
    "invariants": check_invariants,
    "projectivity": check_projectivity,
    "frobenius": check_frobenius,
    "borel_weil": check_borel_weil,
}


def run_checks(names=None, quick=False, algebra=None, max_weight=None):
    """The report of the named suites (default: all).

    ``algebra`` restricts every suite to one supported type; an unsupported
    one raises the ``ValueError`` of ``cartan_data``.  ``max_weight`` caps the
    sum of fundamental coordinates of the grid weights of ``relations`` and
    ``dimensions`` and of the grid parts of ``hopf`` and ``schur``; the
    fixed-case suites and parts (``hopf``'s duality cases among them) ignore it.
    """
    if algebra is not None:
        cartan_data(algebra)
    results = []
    for name in names or sorted(ALL_CHECKS):
        if name not in ALL_CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {sorted(ALL_CHECKS)})")
        results.append(ALL_CHECKS[name](quick=quick, algebra=algebra,
                                        max_weight=max_weight))
    report = {
        "schema": "qgroups-report/1",
        "quick": bool(quick),
        "passed": all(r["passed"] for r in results),
        "checks": results,
    }
    if algebra is not None:
        report["algebra"] = algebra.upper()
    if max_weight is not None:
        report["max_weight"] = max_weight
    return report
