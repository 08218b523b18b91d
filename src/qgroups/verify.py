"""Named verification suites over fixed small-rank grids.

Each suite returns {"name", "passed", "details"} with deterministic,
JSON-serializable details.  The command-line driver and the acceptance tests
both run these; everything is exact except where a suite explicitly
specializes at a rational point.

Each suite declares its cases as tables of ``Row``s beside its definition.
``_select`` is the one filter of ``quick``, ``algebra`` and ``max_weight``,
and ``empty_checks`` reads the same tables, so a suite that selects no row
is known before it runs.

Grid choices (fixed here, shrunk by quick=True):
  relations/dimensions: A1 up to weight 8, A2 up to total weight 4,
  A3 fundamentals, B2 up to (2, 2).
  coefficient suites (antipode law, star, duality, Schur): small weights
  where products stay inside modest tensor decompositions.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

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
from .cartan import cartan_data, is_dominant, lowest_weight, weight_multiplicities, weyl_dim
from .coeff import (
    CoeffAlgebra,
    CoeffElement,
    _coeff,
    antipode,
    coeff_eval,
    coproduct,
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
from .uqrep import AlgebraWord, antipode_word, check_serre, k2rho


class Row(NamedTuple):
    """One case of a suite: ``case`` is what its loop takes, algebra first;
    ``quick`` says the quick grid keeps it; ``weights`` are what
    ``max_weight`` caps (None where the suite ignores the cap)."""

    case: tuple
    quick: bool
    weights: tuple | None = None


def _select(rows, quick, algebra, max_weight):
    """The cases of ``rows`` that the filters keep, in table order; a weight
    passes ``max_weight`` when its fundamental coordinates sum to at most it."""
    return [r.case for r in rows
            if (r.quick or not quick)
            and (algebra is None or r.case[0] == algebra.upper())
            and (max_weight is None or r.weights is None
                 or all(sum(w) <= max_weight for w in r.weights))]


_RELATIONS = (
    [Row(("A1", (n,)), n <= 4, ((n,),)) for n in range(9)]
    + [Row(("A2", (a, b)), a + b <= 2, ((a, b),)) for a in range(5) for b in range(5 - a)]
    + [Row(("A3", w), True, (w,)) for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    + [Row(("B2", (a, b)), max(a, b) <= 1, ((a, b),)) for a in range(3) for b in range(3)])

_COEFFICIENTS = (
    [Row(("A1", (n,)), n <= 2, ((n,),)) for n in range(4)]
    + [Row(("A2", w), w != (1, 1), (w,)) for w in ((0, 0), (1, 0), (0, 1), (1, 1))]
    + [Row((name, w), False, (w,)) for name, w in (("A3", (1, 0, 0)), ("A3", (0, 0, 1)),
                                                   ("B2", (1, 0)), ("B2", (0, 1)))])


def _result(name, failures, **details):
    """A suite's report entry: it passes when no failure was recorded, and
    its details are ``details`` plus the failures."""
    return {"name": name, "passed": not failures, "details": {**details, "failures": failures}}


def relations_grid(quick=False, algebra=None, max_weight=None):
    return _select(_RELATIONS, quick, algebra, max_weight)


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
    return _result("relations", failures, checked=counts)


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
    return _result("dimensions", failures, modules=checked)


# (algebra, lambda, mu, sampled index tuples or None for all of them)
_DUALITY = [Row((name, lam, mu, sample), quick, (lam, mu))
            for name, lam, mu, sample, quick in (("A1", (1,), (1,), None, True),
                                                 ("A1", (1,), (2,), None, True),
                                                 ("A1", (2,), (2,), None, False),
                                                 ("A2", (1, 0), (0, 1), 12, False),
                                                 ("A2", (1, 0), (1, 0), 12, False))]


def check_hopf(quick=False, algebra=None, max_weight=None):
    """Coassociativity, counit and antipode laws, and product/coproduct duality."""
    failures = []
    checked = {"coassociativity": 0, "counit": 0, "antipode_law": 0, "duality": 0}

    for name, lam in _select(_COEFFICIENTS, quick, algebra, max_weight):
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
                    d1 = coproduct(alg, _coeff({k1: RF_ONE})).terms
                    d2 = coproduct(alg, _coeff({k2: RF_ONE})).terms
                    accumulate(left, (((k1a, k1b, k2), c * c1) for (k1a, k1b), c1 in d1.items()))
                    accumulate(right, (((k1, k2a, k2b), c * c2) for (k2a, k2b), c2 in d2.items()))
                checked["coassociativity"] += 1
                if left != right:
                    failures.append({"law": "coassociativity", "algebra": name,
                                     "weight": list(lam), "i": i, "j": j})
                # counit laws, both sides
                checked["counit"] += 1
                recon_l = _coeff({})
                recon_r = _coeff({})
                for ((l1, a, k1), (l2, k2, b)), c in coproduct(alg, t_ij).terms.items():
                    if a == k1:
                        recon_l = recon_l + _coeff({(l2, k2, b): c})
                    if k2 == b:
                        recon_r = recon_r + _coeff({(l1, a, k1): c})
                if recon_l != t_ij or recon_r != t_ij:
                    failures.append({"law": "counit", "algebra": name,
                                     "weight": list(lam), "i": i, "j": j})
                # antipode laws: sum_k S(t_ik) t_kj = delta_ij = sum_k t_ik S(t_kj)
                acc1 = _coeff({})
                acc2 = _coeff({})
                for k in range(1, d + 1):
                    acc1 = acc1 + product(
                        alg, antipode(alg, CoeffElement.basis(lam, i, k)),
                        CoeffElement.basis(lam, k, j))
                    acc2 = acc2 + product(
                        alg, CoeffElement.basis(lam, i, k),
                        antipode(alg, CoeffElement.basis(lam, k, j)))
                expect = unit if i == j else _coeff({})
                checked["antipode_law"] += 1
                if acc1 != expect or acc2 != expect:
                    failures.append({"law": "antipode", "algebra": name,
                                     "weight": list(lam), "i": i, "j": j})

    # duality <ab, x> = <a (x) b, Delta x> for all words of length <= 3
    for name, lam, mu, sample in _select(_DUALITY, quick, algebra, max_weight):
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
    return _result("hopf", failures, checked=checked)


# every ordered pair of weights of one algebra
_SCHUR_PAIRS = [Row((name, lam, mu), name == "A1" and max(lam + mu) <= 2, (lam, mu))
                for name, weights in (("A1", [(n,) for n in range(4)]), ("A2", [(1, 0), (0, 1)]))
                for lam, mu in itertools.product(weights, repeat=2)]


def check_schur(quick=False, algebra=None, max_weight=None):
    """Integrals of coefficient pairs against the closed forms, both index
    patterns, plus the antipode-square conjugation identity as matrices.

    With an algebra restriction the report carries the per-index table of
    integrals for that algebra's pair grid.
    """
    failures = []
    checked = 0
    table = [] if algebra is not None else None

    for name, lam, mu in _select(_SCHUR_PAIRS, quick, algebra, max_weight):
        alg = _algebra_ctx(name)
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
    for name, lam in _select(_COEFFICIENTS, quick, algebra, max_weight)[:4]:
        alg = _algebra_ctx(name)
        cd = alg.cd
        d = alg.irrep(lam).dim
        conj = k2rho_word(cd)
        conj_inv = antipode_word(cd, conj)   # S(k_i) = k_i^-1
        letters = [gen for gen in _word_alphabet(cd) if gen[0] in "ef"]   # every e_i and f_i
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                a = CoeffElement.basis(lam, i, j)
                s2a = antipode(alg, antipode(alg, a))
                for gen in letters:
                    x = AlgebraWord.of_gen(gen)
                    lhs = coeff_eval(alg, s2a, x)
                    rhs = coeff_eval(alg, a, conj * x * conj_inv)
                    s2_checked += 1
                    if lhs != rhs:
                        failures.append({"variant": "s_squared_pairing",
                                         "algebra": name, "weight": list(lam),
                                         "indices": [i, j]})
    extra = {} if table is None else {"table": table}
    return _result("schur", failures, integrals=checked, s_squared=s2_checked, **extra)


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


# one row per draw of each algebra's generator, in the order it draws them
_HAAR = [Row((name, k), name in ("A1", "A2") and k < 10)
         for name in ("A1", "A2", "A3", "B2") for k in range(50)]
_HAAR_V0 = 2


def check_haar_positivity(quick=False, algebra=None, max_weight=None):
    """Positivity of the invariant integral on pseudo-random elements."""
    failures = []
    supports = {
        "A1": [(0,), (1,), (2,)],
        "A2": [(0, 0), (1, 0), (0, 1)],
        "A3": [(0, 0, 0), (1, 0, 0), (0, 0, 1)],
        "B2": [(0, 0), (1, 0), (0, 1)],
    }
    checked = 0
    for name, samples in itertools.groupby(_select(_HAAR, quick, algebra, max_weight),
                                           key=lambda case: case[0]):
        alg = _algebra_ctx(name)
        rng = random.Random(2024)
        for _ in samples:
            a = _random_element(alg, supports[name], rng)
            val = haar_positivity(alg, a, _HAAR_V0)
            checked += 1
            # no sample is zero (see _random_element); zero is checked below
            if not val.value > 0:
                failures.append({"algebra": name, "kind": "nonpositive",
                                 "value": str(val.value)})
        zero = haar_positivity(alg, CoeffElement(), _HAAR_V0)
        if zero.value != 0:
            failures.append({"algebra": name, "kind": "zero-element"})
    return _result("haar_positivity", failures, samples=checked, v0=_HAAR_V0)


# (algebra, theta, lambda); the targets of each (algebra, theta) group are
# read off the selected lambdas
_HOM = ([Row(("A1", (), (n,)), n <= 3) for n in range(6)]
        + [Row(("A2", theta, (a, b)), a + b <= 2)
           for theta in ((), (1,), (2,)) for a in range(4) for b in range(4 - a)])


def check_hom_criterion(quick=False, algebra=None, max_weight=None):
    """Intertwiner dimension from a full module to a parabolic irreducible is
    one exactly when the lowest weights agree, zero otherwise."""
    failures = []
    checked = 0
    for (name, theta), group in itertools.groupby(
            _select(_HOM, quick, algebra, max_weight), key=lambda case: case[:2]):
        weights = [lam for _, _, lam in group]
        alg = _algebra_ctx(name)
        cd = alg.cd
        p = ParabolicData(cd, theta)
        # every Levi weight in the restrictions of the group's modules; on A1
        # with theta = () these are all of -n..n up to the largest n
        targets = sorted({
            mu
            for lam in weights
            for mu in restrict_levi(alg.irrep(lam), p, alg.irreps).multiplicities()
        })
        for lam in weights:
            w = alg.irrep(lam)
            lam_bar = lowest_weight(cd, lam)
            for mu in targets:
                if not is_dominant(mu, theta):
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
    return _result("hom_criterion", failures, checked=checked)


# every theta of each type, by size
_INVARIANTS = [Row((name, theta), name in ("A1", "A2"))
               for name, rank in (("A1", 1), ("A2", 2), ("B2", 2), ("A3", 3))
               for size in range(rank + 1)
               for theta in itertools.combinations(range(1, rank + 1), size)]
_PRODUCTS = [Row(("A1", ()), True), Row(("A2", (1,)), True), Row(("B2", (1,)), False)]


def check_invariants(quick=False, algebra=None, max_weight=None):
    """Invariant-function algebra: closure under products, central intertwiner
    counts, and the dimension of the top-root invariant space."""
    failures = []
    details = {"central_counts": {}, "gamma_dims": {}, "products": 0}

    for name, theta in _select(_INVARIANTS, quick, algebra, max_weight):
        alg = _algebra_ctx(name)
        cd = alg.cd
        gamma = cd.root_to_fundamental(cd.highest_root)
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
        d_gamma = alg.irrep(gamma).dim
        if got_dim != d_gamma * expect:
            failures.append({"kind": "gamma_dim", "algebra": name,
                             "theta": list(theta), "got": got_dim,
                             "expect": d_gamma * expect})
        for f in inv[gamma]:
            if not is_invariant_function(alg, p, f):
                failures.append({"kind": "invariance", "algebra": name,
                                 "theta": list(theta)})

    for name, theta in _select(_PRODUCTS, quick, algebra, max_weight):
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
    return _result("invariants", failures, **details)


# one row per eta/kappa round trip of each (algebra, theta, mu), in the
# order its generator draws them
_PROJECTIVITY = [Row((name, theta, mu, k), name == "A1" and k < 5)
                 for name, theta, mu in (("A1", (), (-1,)), ("A1", (), (1,)),
                                         ("A2", (1,), (1, 0)), ("A2", (1,), (0, -1)))
                 for k in range(20)]


def check_projectivity(quick=False, algebra=None, max_weight=None):
    """Trivialization maps invert each other, carry induced sections to
    invariant-coefficient columns, and every Levi module complements into the
    restriction of a full module."""
    failures = []
    details = {"cases": [], "roundtrips": 0}
    for (name, theta, mu), roundtrips in itertools.groupby(
            _select(_PROJECTIVITY, quick, algebra, max_weight), key=lambda case: case[:3]):
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
        for _ in roundtrips:
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
    return _result("projectivity", failures, **details)


# (algebra, theta, W, V, truncation height)
_FROBENIUS = [Row(case, case[0] == "A1")
              for case in (("A1", (), (2,), (-2,), 3), ("A1", (), (2,), (0,), 3),
                           ("A1", (), (2,), (2,), 3), ("A1", (), (2,), (1,), 3),
                           ("A2", (1,), (1, 0), (1, 0), 2), ("A2", (1,), (1, 0), (0, -1), 2))]


def check_frobenius(quick=False, algebra=None, max_weight=None):
    """Dimension equality of the two intertwiner spaces, the reductive one
    against the classical branching multiplicity, and both round trips."""
    failures = []
    rows = []
    for name, theta, w_hw, v_hw, height in _select(_FROBENIUS, quick, algebra, max_weight):
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
    return _result("frobenius", failures, cases=rows)


# (algebra, theta, mu, expected section dimension, truncation height)
_BOREL_WEIL = (
    [Row(("A1", (), (-n,), 1 + n, 6), n <= 3) for n in range(6)]
    + [Row(("A1", (), (n,), 0, 6), True) for n in (1, 2)]
    + [Row(case, False) for case in (("A2", (), (-1, 0), 3, 2), ("A2", (), (0, -1), 3, 2),
                                     ("A2", (), (1, 0), 0, 2), ("A2", (), (0, 0), 1, 2),
                                     ("A2", (1,), (0, -1), 3, 2), ("A2", (1,), (1, 0), 0, 2))])
# (algebra, theta, highest weight of the full module, truncation height)
_TRIVIAL = [Row(("A1", (), (1,), 2), True), Row(("A2", (), (1, 0), 2), False)]


def check_borel_weil(quick=False, algebra=None, max_weight=None):
    """Holomorphic-section spaces against the predicted irreducibles,
    including the unit-coefficient description for full-module bundles."""
    failures = []
    rows = []
    for name, theta, mu, expect_dim, height in _select(_BOREL_WEIL, quick, algebra, max_weight):
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

    for name, theta, w_hw, height in _select(_TRIVIAL, quick, algebra, max_weight):
        alg = _algebra_ctx(name)
        p = ParabolicData(alg.cd, theta)
        rep = trivial_bundle_check(alg, alg.irrep(w_hw), p, TruncationPolicy(height=height))
        rows.append({"algebra": name, "theta": list(theta), "full_module": list(w_hw),
                     "status": rep["status"], "dim": rep["dim"]})
        if rep["status"] != "pass":
            failures.append({"case": [name, list(theta), list(w_hw)],
                             "kind": "trivial_bundle"})
    return _result("borel_weil", failures, cases=rows)


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


# the tables each suite selects from; a suite is empty when all are
_TABLES = {
    "relations": [_RELATIONS],
    "dimensions": [_RELATIONS],
    "hopf": [_COEFFICIENTS, _DUALITY],
    "schur": [_SCHUR_PAIRS, _RELATIONS, _COEFFICIENTS],
    "haar_positivity": [_HAAR],
    "hom_criterion": [_HOM],
    "invariants": [_INVARIANTS, _PRODUCTS],
    "projectivity": [_PROJECTIVITY],
    "frobenius": [_FROBENIUS],
    "borel_weil": [_BOREL_WEIL, _TRIVIAL],
}


def report_header(names=None, quick=False, algebra=None, max_weight=None):
    """The report of ``run_checks`` before any suite runs: its filter fields
    and one ``{"name"}`` entry per named suite (default: all), in first-seen
    order.  An unknown suite or an unsupported algebra raises ``ValueError``."""
    if algebra is not None:
        cartan_data(algebra)
    names = list(dict.fromkeys(names or sorted(ALL_CHECKS)))
    for name in names:
        if name not in ALL_CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {sorted(ALL_CHECKS)})")
    report = {"schema": "qgroups-report/1", "quick": bool(quick),
              "checks": [{"name": name} for name in names]}
    if algebra is not None:
        report["algebra"] = algebra.upper()
    if max_weight is not None:
        report["max_weight"] = max_weight
    return report


def empty_checks(report) -> list:
    """The suites of a report, or of its ``report_header``, that select no
    row of their tables under the report's filters: their ``passed`` says
    nothing."""
    filters = report["quick"], report.get("algebra"), report.get("max_weight")
    return [c["name"] for c in report["checks"]
            if not any(_select(rows, *filters) for rows in _TABLES[c["name"]])]


def run_checks(names=None, quick=False, algebra=None, max_weight=None):
    """The report of the named suites (default: all), each run on the rows of
    its tables that ``quick``, ``algebra`` and ``max_weight`` select.

    ``max_weight`` caps the weights of ``relations`` and ``dimensions``, of
    ``hopf`` (its grid and both weights of each duality case) and of all three
    parts of ``schur`` (pair integrals, ``s_squared``, pairing sample); the
    six other suites have no row weights and ignore it.
    """
    report = report_header(names, quick, algebra, max_weight)
    report["checks"] = [ALL_CHECKS[c["name"]](quick=quick, algebra=algebra,
                                              max_weight=max_weight)
                        for c in report["checks"]]
    report["passed"] = all(r["passed"] for r in report["checks"])
    return report
