"""Induced section spaces of quantum homogeneous vector bundles.

A section is an element of (coefficient algebra) (x) V obeying the defining
property

    x o zeta = (id (x) S(x)) zeta        for all x in the chosen subalgebra,

with o the right-translation action on the coefficient leg.  Sections are
stored in the canonical coefficient basis: data maps (lam, a, b) -> sparse
V-vector.  Everything is graded by the coefficient weight, and all checks
run exactly on graded pieces selected by a finite truncation policy, which
stands in for the completed function algebra.

Grades are labeled two ways: a section built from an intertwiner
phi: W(lam) -> V has coefficient support in the dual weight of lam (the
antipode flips the grade); "inducing grade" below always means lam itself.

The module also houses the trivialization maps eta and kappa (multiplication
against the coefficient matrix of a full module, with an antipode twist on
one side), Frobenius reciprocity in both directions, and the holomorphic
(parabolic-invariant) section spaces with their isomorphism checks.
"""

from __future__ import annotations

from .cartan import dominant_orbit_rep, dual_weight, is_dominant, weyl_dim
from .coeff import (
    CoeffAlgebra,
    CoeffElement,
    antipode,
    circ_action,
    product,
)
# kernel_basis is no longer called here, but perfbench's tracer test checks
# that this module's binding of it gets wrapped, so the name stays bound
from .linalg import (  # noqa: F401
    Mat,
    accumulate,
    intertwiner_kernel,
    kernel_basis,
    rank,
)
from .parabolic import (
    ParabolicData,
    hom_space,
    levi_lowest_weight,
    restrict_levi,
)
from .scalar import RF_ONE, RF_ZERO, RationalFunction
from .uqrep import (
    AlgebraWord,
    IrrepModule,
    act_word,
    antipode_inv_word,
    antipode_word,
    counit,
)


class TruncationPolicy:
    """Finite set of inducing grades: explicit list or a height bound.

    The height of a dominant weight is the sum of its fundamental
    coordinates; a bound h keeps every dominant weight of height <= h.
    """

    __slots__ = ("explicit", "height")

    def __init__(self, explicit=None, height=None):
        if (explicit is None) == (height is None):
            raise ValueError("give exactly one of explicit weights or a height bound")
        self.explicit = [tuple(w) for w in explicit] if explicit is not None else None
        self.height = height
        if height is not None and height < 0:
            raise ValueError("height bound must be nonnegative")

    def weights(self, cd):
        if self.explicit is not None:
            for w in self.explicit:
                if not is_dominant(w):
                    raise ValueError(f"truncation weight {w} not dominant")
            return sorted(set(self.explicit))
        out = []

        def rec(prefix, remaining):
            if len(prefix) == cd.rank:
                out.append(tuple(prefix))
                return
            for c in range(remaining + 1):
                rec(prefix + [c], remaining - c)

        rec([], self.height)
        return sorted(out)

    def __repr__(self):
        if self.explicit is not None:
            return f"TruncationPolicy(explicit={self.explicit})"
        return f"TruncationPolicy(height={self.height})"


class Section:
    """V-valued element of the coefficient algebra; see the module docstring."""

    __slots__ = ("alg", "p", "vmod", "data")

    def __init__(self, alg: CoeffAlgebra, p: ParabolicData, vmod: IrrepModule,
                 data=None):
        self.alg = alg
        self.p = p
        self.vmod = vmod
        self.data = {}
        if data:
            for key, vec in data.items():
                vec = {r: x for r, x in vec.items() if x}
                if vec:
                    lam, a, b = key
                    self.data[(tuple(lam), a, b)] = vec

    def copy_with(self, data):
        return Section(self.alg, self.p, self.vmod, data)

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, Section)
            and self.vmod is other.vmod
            and self.data == other.data
        )

    def __add__(self, other):
        out = {k: dict(v) for k, v in self.data.items()}
        for key, vec in other.data.items():
            accumulate(out.setdefault(key, {}), vec.items())
        return self.copy_with(out)

    def __sub__(self, other):
        return self + other.scale(-RF_ONE)

    def scale(self, c: RationalFunction):
        if not c:
            return self.copy_with({})
        return self.copy_with(
            {key: {r: c * x for r, x in vec.items()} for key, vec in self.data.items()}
        )

    def coeff_support(self):
        """Canonical coefficient weights carrying the section."""
        return sorted({key[0] for key in self.data})

    def to_coeff(self) -> CoeffElement:
        """For one-dimensional V: forget the vector leg."""
        if self.vmod.dim != 1:
            raise ValueError("section does not take values in a line")
        return CoeffElement({key: vec.get(0, RF_ZERO) for key, vec in self.data.items()})

    def flat_items(self):
        for key, vec in self.data.items():
            for r, x in vec.items():
                yield (key, r), x

    def to_json(self):
        from .scalar import rf_to_text

        return [
            [list(lam), a, b, sorted([r, rf_to_text(x)] for r, x in vec.items())]
            for (lam, a, b), vec in sorted(self.data.items())
        ]

    @classmethod
    def from_json(cls, alg, p, vmod, obj):
        from .scalar import rf_from_text

        data = {}
        for lam, a, b, vec in obj:
            data[(tuple(lam), a, b)] = {int(r): rf_from_text(t) for r, t in vec}
        return cls(alg, p, vmod, data)

    def __repr__(self):
        return f"Section(grades={self.coeff_support()}, keys={len(self.data)})"


def circ_on_section(zeta: Section, x: AlgebraWord) -> Section:
    """Right-translation action on the coefficient leg, componentwise in V."""
    alg = zeta.alg
    out = {}
    for (lam, a, b), vec in zeta.data.items():
        for k0, m in alg.word_matrix(lam, x, b - 1, "col").items():
            accumulate(out.setdefault((lam, a, k0 + 1), {}),
                       ((r, m * xx) for r, xx in vec.items()))
    return zeta.copy_with(out)


def value_action(zeta: Section, x: AlgebraWord) -> Section:
    """(id (x) x) zeta: act on the V-leg only."""
    mat = act_word(zeta.vmod, x)
    out = {}
    for key, vec in zeta.data.items():
        out[key] = mat.apply(vec)
    return zeta.copy_with(out)


def defining_property_holds(zeta: Section, flavor="levi") -> bool:
    """Check x o zeta = (id (x) S(x)) zeta on every subalgebra generator."""
    p = zeta.p
    gens = p.levi_generators() if flavor == "levi" else p.parabolic_generators()
    cd = zeta.alg.cd
    for gen in gens:
        word = AlgebraWord.of_gen(gen)
        lhs = circ_on_section(zeta, word)
        rhs = value_action(zeta, antipode_word(cd, word))
        if lhs != rhs:
            return False
    return True


def dot_on_section(x: AlgebraWord, zeta: Section) -> Section:
    """Left-translation action on the coefficient leg."""
    return dot_on_sections(x, [zeta])[0]


def dot_on_sections(x: AlgebraWord, zetas) -> list:
    """``dot_on_section`` on each section, with S^-1(x) formed once."""
    if not zetas:
        return []
    xs = antipode_inv_word(zetas[0].alg.cd, x)
    images = []
    for zeta in zetas:
        out = {}
        for (lam, a, b), vec in zeta.data.items():
            for k0, m in zeta.alg.word_matrix(lam, xs, a - 1, "row").items():
                accumulate(out.setdefault((lam, k0 + 1, b), {}),
                           ((r, m * xx) for r, xx in vec.items()))
        images.append(zeta.copy_with(out))
    return images


def _left_generators(cd):
    return [(kind, i) for kind in "efk" for i in range(1, cd.rank + 1)]


def _carries_module(module, zetas, gens) -> bool:
    """x . zeta_i = sum_j M(x)[j, i] zeta_j for each generator x: the sections
    transform under the left action by the module's matrices."""
    for gen in gens:
        word = AlgebraWord.of_gen(gen)
        cols = module.gen_matrix(gen).columns()
        for i, lhs in enumerate(dot_on_sections(word, zetas)):
            rhs = lhs.copy_with({})
            for j, c in cols.get(i, ()):
                rhs = rhs + zetas[j].scale(c)
            if lhs != rhs:
                return False
    return True


def omega_coaction(zeta: Section) -> dict:
    """(Delta (x) id) zeta as {((lam,a,k), (lam,k,b)): V-vector}."""
    out = {}
    for (lam, a, b), vec in zeta.data.items():
        for k in range(1, zeta.alg.irrep(lam).dim + 1):
            accumulate(out.setdefault(((lam, a, k), (lam, k, b)), {}), vec.items())
    return {k: v for k, v in out.items() if v}


def omega_counit_reconstructs(zeta: Section) -> bool:
    """(counit (x) id (x) id) applied to the coaction returns the section."""
    acc = {}
    for ((lam, a, k), (lam2, k2, b)), vec in omega_coaction(zeta).items():
        if a == k:
            accumulate(acc.setdefault((lam2, k2, b), {}), vec.items())
    acc = {k: v for k, v in acc.items() if v}
    return acc == zeta.data


def omega_compatible(zeta: Section, flavor="levi") -> bool:
    """(id (x) p o) omega(zeta) = omega((id (x) S(p)) zeta) on generators."""
    alg = zeta.alg
    cd = alg.cd
    p = zeta.p
    gens = p.levi_generators() if flavor == "levi" else p.parabolic_generators()
    om = omega_coaction(zeta)
    for gen in gens:
        word = AlgebraWord.of_gen(gen)
        lhs = {}
        for (key1, (lam, k, b)), vec in om.items():
            for k0, m in alg.word_matrix(lam, word, b - 1, "col").items():
                accumulate(lhs.setdefault((key1, (lam, k, k0 + 1)), {}),
                           ((r, m * x) for r, x in vec.items()))
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = omega_coaction(value_action(zeta, antipode_word(cd, word)))
        if lhs != rhs:
            return False
    return True


# --- section construction -------------------------------------------------------


def sections_from_hom(alg: CoeffAlgebra, p: ParabolicData, source: IrrepModule,
                      vmod: IrrepModule, phi: Mat) -> list:
    """The canonical independent sections attached to one intertwiner.

    For phi: W(lam) -> V the i-th section pairs the antipoded coefficients of
    row i against the images of the canonical basis; in canonical storage,
    with Q the dual intertwiner of lam, it reads
    sum_{a,b} Q[i,a] t^(lam*)_{ab} (x) chi_b,  chi_b = sum_j Qinv[b,j] phi(w_j).
    """
    lam_dual, q, qinv = alg.dual_data(source.hw)
    d = source.dim
    # phi's column index is built on each call and never kept: phi and Q may
    # be changed in place
    phi_cols = phi.columns()
    chi = [{} for _ in range(d)]
    for (b, j), y in qinv.data.items():
        accumulate(chi[b], ((r, y * x) for r, x in phi_cols.get(j, ())))
    data = [{} for _ in range(d)]
    for (i, a), x in q.data.items():
        data[i].update(((lam_dual, a + 1, b + 1), {r: x * y for r, y in chi[b].items()})
                       for b in range(d) if chi[b])
    return [Section(alg, p, vmod, di) for di in data]


def sections_direct(alg: CoeffAlgebra, vmod: IrrepModule, p: ParabolicData,
                    lam, flavor="levi") -> list:
    """Solve the defining constraints on one inducing grade directly.

    The system block-diagonalizes over the first coefficient index with
    identical blocks, so it is solved once for the column profile and
    replicated: the returned basis has (block solution count) x d_lam
    sections.  Must span the same space as the intertwiner route.
    """
    cd = alg.cd
    lam = tuple(lam)
    lam_dual = dual_weight(cd, lam)
    m = alg.irrep(lam_dual)
    d = m.dim
    vspaces = vmod.weight_spaces()
    # unknown column profile: w_b in V with torus matching tau_r = -wt_b
    unknowns = []
    for b in range(d):
        neg = tuple(-c for c in m.weights[b])
        for r in vspaces.get(neg, ()):
            unknowns.append((b, r))
    if not unknowns:
        return []
    gens = [("e", j) for j in p.theta] + [("f", j) for j in p.theta]
    if flavor == "parabolic":
        gens += [("e", j) for j in p.complement]
    # sum_b M[k,b] w_b[r] - sum_s MS[r,s] w_k[s] = 0 for each (k, r)
    pairs = [(m.gen_matrix(g),
              act_word(vmod, antipode_word(cd, AlgebraWord.of_gen(g))).transpose())
             for g in gens]
    out = []
    for vec in intertwiner_kernel(unknowns, pairs):
        profile = {}
        for (b, r), x in vec.items():
            profile.setdefault(b, {})[r] = x
        for a in range(d):
            data = {}
            for b, v in profile.items():
                data[(lam_dual, a + 1, b + 1)] = dict(v)
            out.append(Section(alg, p, vmod, data))
    return out


def invariant_functions(alg: CoeffAlgebra, p: ParabolicData,
                        trunc: TruncationPolicy) -> dict:
    """Per inducing grade, a basis of the invariant coefficient functions."""
    cd = alg.cd
    trivial = alg.irreps.levi(cd, p.theta, (0,) * cd.rank)
    out = {}
    for lam in trunc.weights(cd):
        source = alg.irrep(lam)
        homs = hom_space(source, trivial, p, "levi")
        secs = []
        for phi in homs:
            secs.extend(sections_from_hom(alg, p, source, trivial, phi))
        out[lam] = [s.to_coeff() for s in secs]
    return out


def is_invariant_function(alg: CoeffAlgebra, p: ParabolicData,
                          f: CoeffElement) -> bool:
    """x o f = counit(x) f for the reductive generators."""
    for gen in p.levi_generators():
        word = AlgebraWord.of_gen(gen)
        expect = f.scale(counit(alg.cd, word))
        if circ_action(alg, word, f) != expect:
            return False
    return True


def product_closure_check(alg: CoeffAlgebra, p: ParabolicData,
                          a: CoeffElement, b: CoeffElement) -> CoeffElement:
    """Product of two invariant functions; raises if invariance breaks."""
    ab = product(alg, a, b)
    if not is_invariant_function(alg, p, ab):
        raise ArithmeticError("product of invariants failed the invariance check")
    return ab


def section_times_invariant(zeta: Section, f: CoeffElement, side="left") -> Section:
    """Module action of invariant functions on sections, by coefficient products."""
    out_data = {}
    for key, vec in zeta.data.items():
        basis = CoeffElement({key: RF_ONE})
        left, right = (f, basis) if side == "left" else (basis, f)
        _coeff_product_into(zeta.alg, left, right, vec, out_data)
    return zeta.copy_with(out_data)


# --- linear algebra over section spaces ----------------------------------------


def sections_matrix(sections):
    """Dense matrix of sections over their joint coordinate set."""
    keys = sorted({kr for s in sections for kr, _ in s.flat_items()})
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for s in sections:
        row = [RF_ZERO] * len(keys)
        for kr, x in s.flat_items():
            row[index[kr]] = x
        rows.append(row)
    return rows, keys


def span_rank(sections) -> int:
    if not sections:
        return 0
    rows, _ = sections_matrix(sections)
    return rank(rows)


def same_span(secs1, secs2) -> bool:
    if not secs1 and not secs2:
        return True
    r1 = span_rank(secs1)
    r2 = span_rank(secs2)
    if r1 != r2:
        return False
    rows, _ = sections_matrix(list(secs1) + list(secs2))
    return rank(rows) == r1


def coordinates_in_basis(sections, basis):
    """Express each section in a given independent section basis, exactly."""
    rows_basis, keys = sections_matrix(list(basis) + list(sections))
    nb = len(basis)
    cols = [[rows_basis[i][j] for i in range(nb)] for j in range(len(keys))]
    rhs = [[rows_basis[nb + s][j] for j in range(len(keys))] for s in range(len(sections))]
    from .linalg import solve

    sols = solve(cols, rhs)
    return sols


# --- trivialization maps --------------------------------------------------------


def _coeff_product_into(alg, left: CoeffElement, right: CoeffElement, vec, out_data):
    """Add product(left, right) (x) vec into the section data ``out_data``."""
    for pkey, c in product(alg, left, right).terms.items():
        accumulate(out_data.setdefault(pkey, {}), ((r, c * x) for r, x in vec.items()))


def eta_map(zeta: Section, wmod: IrrepModule, direction="forward") -> Section:
    """Right trivialization of the bundle induced by a full module.

    forward: f (x) w_i -> sum_j t_{ji} f (x) w_j; inverse uses the antipoded
    coefficients.  The two directions compose to the identity.
    """
    alg = zeta.alg
    lam_w = wmod.hw
    out_data = {}
    for key, vec in zeta.data.items():
        basis = CoeffElement({key: RF_ONE})
        for i, x in vec.items():
            for j in range(wmod.dim):
                t_ji = CoeffElement.basis(lam_w, j + 1, i + 1)
                left = t_ji if direction == "forward" else antipode(alg, t_ji)
                _coeff_product_into(alg, left, basis, {j: x}, out_data)
    return Section(alg, zeta.p, wmod, out_data)


def kappa_map(zeta: Section, wmod: IrrepModule, direction="forward") -> Section:
    """Left trivialization: multiplication on the right by twice- or once-
    antipoded coefficients."""
    alg = zeta.alg
    lam_w = wmod.hw
    out_data = {}
    for key, vec in zeta.data.items():
        basis = CoeffElement({key: RF_ONE})
        for i, x in vec.items():
            for j in range(wmod.dim):
                t_ji = CoeffElement.basis(lam_w, j + 1, i + 1)
                right = antipode(alg, t_ji)
                if direction == "forward":
                    right = antipode(alg, right)
                _coeff_product_into(alg, basis, right, {j: x}, out_data)
    return Section(alg, zeta.p, wmod, out_data)


# --- complements and Frobenius reciprocity --------------------------------------


def levi_complement(alg: CoeffAlgebra, p: ParabolicData, vmod: IrrepModule):
    """Full-module envelope of a Levi irreducible and the complement summands.

    Returns (W, matched, complement) where W is the irreducible module of the
    dominant orbit representative of the Levi highest weight, matched is the
    branching summand isomorphic to the input, and complement lists the rest.
    """
    cd = alg.cd
    mu = vmod.hw
    lam, _ = dominant_orbit_rep(cd, mu)
    w = alg.irrep(lam)
    branching = restrict_levi(w, p, alg.irreps)
    matched = None
    complement = []
    for entry in branching.summands:
        if matched is None and entry[0] == mu:
            matched = entry
        else:
            complement.append(entry)
    if matched is None:
        raise ArithmeticError(
            f"Levi module {mu} did not appear in the branching of {lam}"
        )
    return w, matched, complement


def frobenius_maps(alg: CoeffAlgebra, p: ParabolicData, wmod: IrrepModule,
                   vmod: IrrepModule, trunc: TruncationPolicy) -> dict:
    """Both sides of Frobenius reciprocity, with explicit inverse maps.

    Returns a report carrying the reductive intertwiner basis, the induced
    section-valued intertwiners, the round-trip identities, and the
    independently computed dimension of the induced Hom space.
    """
    cd = alg.cd
    hom_red = hom_space(wmod, vmod, p, "levi")

    induced = []   # per phi: list of sections, image of each basis vector
    for phi in hom_red:
        induced.append(sections_from_hom(alg, p, wmod, vmod, phi))

    # F(psi) = evaluation of the coefficient leg at the unit
    def ev_unit(sections) -> Mat:
        phi = Mat(vmod.dim, wmod.dim)
        for i, zeta in enumerate(sections):
            accumulate(phi.data, (((r, i), x) for (lam, a, b), vec in zeta.data.items() if a == b
                                  for r, x in vec.items()))
        return phi

    roundtrip_fF = all(
        ev_unit(induced[n]) == hom_red.maps[n] for n in range(len(hom_red))
    )

    # intertwiner property of the induced maps under the left action
    gens = _left_generators(cd)
    intertwines = all(_carries_module(wmod, sections, gens) for sections in induced)

    # independent dimension of Hom(W, truncated section space) under the
    # left action, solved as a plain intertwiner system over the section basis
    basis = []
    for lam in trunc.weights(cd):
        basis.extend(sections_direct(alg, vmod, p, lam, "levi"))
    dim_induced, psi_mats = _module_hom(alg, p, wmod, vmod, basis, gens)

    # round trip in the other order: each solved intertwiner evaluates at the
    # unit to a reductive intertwiner whose induced sections rebuild it
    roundtrip_Ff = True
    for psi in psi_mats:
        images = []
        for i in range(wmod.dim):
            img = Section(alg, p, vmod)
            for c in range(len(basis)):
                coeff = psi[(c, i)]
                if coeff:
                    img = img + basis[c].scale(coeff)
            images.append(img)
        phi = ev_unit(images)
        rebuilt = sections_from_hom(alg, p, wmod, vmod, phi)
        if rebuilt != images:
            roundtrip_Ff = False

    return {
        "dim_reductive": len(hom_red),
        "dim_induced": dim_induced,
        "dims_equal": len(hom_red) == dim_induced,
        "induced_intertwines": intertwines,
        "F_after_Fbar_is_identity": roundtrip_fF,
        "Fbar_after_F_is_identity": roundtrip_Ff,
        "hom_basis": hom_red,
        "induced_sections": induced,
    }


def _module_hom(alg, p, wmod, vmod, basis, gens):
    """Intertwiners from a module into a span of sections under the left action."""
    if not basis:
        return 0, []
    nb = len(basis)
    action = {}
    for gen in gens:
        word = AlgebraWord.of_gen(gen)
        coords = coordinates_in_basis(dot_on_sections(word, basis), basis)
        a = Mat(nb, nb)
        for c, vec in enumerate(coords):
            for rr, x in vec.items():
                a.data[(rr, c)] = x
        action[gen] = a
    # unknowns psi: nb x dim(W) with psi Mw(g) = A_g psi
    unknowns = [(c, i) for c in range(nb) for i in range(wmod.dim)]
    mats = [Mat(nb, wmod.dim, vec) for vec in intertwiner_kernel(
        unknowns, [(action[gen], wmod.gen_matrix(gen)) for gen in gens])]
    return len(mats), mats


# --- holomorphic sections and the highest-weight correspondence -----------------


def holomorphic_sections(alg: CoeffAlgebra, vmod: IrrepModule, p: ParabolicData,
                         trunc: TruncationPolicy) -> dict:
    """Parabolic-invariant sections per inducing grade in the truncation."""
    out = {}
    for lam in trunc.weights(alg.cd):
        secs = sections_direct(alg, vmod, p, lam, "parabolic")
        if secs:
            out[lam] = secs
    return out


def borel_weil_check(alg: CoeffAlgebra, vmod: IrrepModule, p: ParabolicData,
                     trunc: TruncationPolicy) -> dict:
    """Verify the holomorphic-section module against the predicted irreducible.

    vmod must be an irreducible module of the parabolic subalgebra (a Levi
    module with the outside raising generators acting by zero).  The report
    carries: per-grade dimensions, the predicted grade and dimension, the
    left-action matrices against the canonical module, and the explicit
    isomorphism route through the coefficient matrix of the canonical module.
    Conclusiveness rests on the intertwiner-dimension criterion: only the
    grade whose lowest weight matches the target's can contribute.
    """
    cd = alg.cd
    mu_tilde = levi_lowest_weight(p, vmod.hw)
    neg = tuple(-c for c in mu_tilde)
    expected_grade = dual_weight(cd, neg) if is_dominant(neg) else None
    expected_dim = weyl_dim(cd, expected_grade) if expected_grade else 0

    grades = trunc.weights(cd)
    conclusive = expected_grade is None or expected_grade in grades

    per_grade = {}
    for lam in grades:
        secs = sections_direct(alg, vmod, p, lam, "parabolic")
        per_grade[lam] = secs
    total = sum(len(s) for s in per_grade.values())

    support_ok = all(
        (lam == expected_grade) == bool(secs) for lam, secs in per_grade.items()
    )
    dim_ok = total == (expected_dim if conclusive else total)

    action_ok = True
    route_ok = True
    span_ok = True
    if expected_grade is not None and expected_grade in grades and expected_dim:
        source = alg.irrep(expected_grade)
        homs = hom_space(source, vmod, p, "parabolic")
        if len(homs) != 1:
            action_ok = route_ok = False
        else:
            phi = homs.maps[0]
            zetas = sections_from_hom(alg, p, source, vmod, phi)
            # left action realizes the canonical matrices on these sections
            action_ok = _carries_module(source, zetas, _left_generators(cd))
            # composite route: trivialization sections of the canonical module
            # pushed through the intertwiner reproduce the basis
            phi_cols = phi.columns()
            for i in range(source.dim):
                pushed_data = {}
                for j in range(source.dim):
                    st = antipode(alg, CoeffElement.basis(source.hw, j + 1, i + 1))
                    for key, c in st.terms.items():
                        accumulate(pushed_data.setdefault(key, {}),
                                   ((r, c * x) for r, x in phi_cols.get(j, ())))
                pushed = Section(alg, p, vmod, pushed_data)
                if pushed != zetas[i]:
                    route_ok = False
            span_ok = same_span(per_grade.get(expected_grade, []), zetas)

    status = "inconclusive" if not conclusive else (
        "pass" if (support_ok and dim_ok and action_ok and route_ok and span_ok)
        else "fail"
    )
    return {
        "status": status,
        "conclusive": conclusive,
        "expected_grade": expected_grade,
        "expected_dim": expected_dim,
        "total_dim": total,
        "per_grade_dims": {str(k): len(v) for k, v in sorted(per_grade.items())},
        "support_ok": support_ok,
        "dim_ok": dim_ok,
        "action_ok": action_ok,
        "route_ok": route_ok,
        "span_ok": span_ok,
        "sections": per_grade,
    }


def trivial_bundle_check(alg: CoeffAlgebra, wmod: IrrepModule, p: ParabolicData,
                         trunc: TruncationPolicy) -> dict:
    """Holomorphic sections of a bundle induced from a full module.

    The space must have the dimension of the module itself, and the right
    trivialization must carry its basis onto unit-coefficient elements,
    exhibiting the isomorphism with (unit) (x) W.
    """
    cd = alg.cd
    per_grade = holomorphic_sections(alg, wmod, p, trunc)
    total = sum(len(s) for s in per_grade.values())
    dim_ok = total == wmod.dim
    support_ok = set(per_grade) <= {tuple(wmod.hw)}

    unit_key = ((0,) * cd.rank, 1, 1)
    eta_images = []
    eta_ok = True
    for secs in per_grade.values():
        for zeta in secs:
            image = eta_map(zeta, wmod, "forward")
            eta_images.append(image)
            if set(image.data) - {unit_key}:
                eta_ok = False
    vectors = [img.data.get(unit_key, {}) for img in eta_images]
    rows = [[vec.get(r, RF_ZERO) for r in range(wmod.dim)] for vec in vectors]
    full_rank = bool(rows) and rank(rows) == wmod.dim
    return {
        "status": "pass" if (dim_ok and support_ok and eta_ok and full_rank) else "fail",
        "dim": total,
        "dim_ok": dim_ok,
        "support_ok": support_ok,
        "unit_coefficient_only": eta_ok,
        "values_span_module": full_rank,
    }
