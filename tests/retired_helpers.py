"""Frozen copies of code that ``qgroups`` replaced or no longer calls.

Kept as references for the tests: ``coproduct_word`` (formerly in
``qgroups.uqrep``), ``tensor_hom`` (formerly in ``qgroups.parabolic``) and
``basis_inv`` (formerly the property ``CGDecomposition.basis_inv`` of
``qgroups.tensor``, whose only caller was ``tensor_hom``) lost their last
caller in the package, as did ``weyl_orbit`` (``qgroups.cartan``),
``check_intertwiner`` (``qgroups.parabolic``), ``rf_arith``
(``qgroups.scalar``), ``cartan_involution_word`` (``qgroups.uqrep``) and
``leading_coeff`` (formerly the method ``LaurentPoly.leading_coeff``),
``inner`` and ``inner_with_root`` (``qgroups.cartan``).
``fraction_v_power`` is the general path that the coefficient-one shortcut of
``v_power`` now bypasses, and ``direct_check_serre`` is ``check_serre`` as it
was before its f-side records copied their e-side mirrors: every record
computed from the matrices.  ``gram_build_module`` is ``build_module`` as it
was before it read each pairing off the E columns already built: it fills
the candidate Gram matrix and sums every pairing from it.  ``bar`` (formerly
the method ``RationalFunction.bar``) lost its last caller in the package.
``difference_check_serre`` and ``copying_serre_sum`` are ``check_serre`` and
``_serre_sum`` as they were before each value was built once: every
[e_i, f_j] formed a difference matrix, and each Serre term was added to a
copy of the running total.  ``mat_neg`` and ``mat_sub`` (formerly
``Mat.__neg__`` and ``Mat.__sub__`` of ``qgroups.linalg``) lost their last
caller in the package when ``check_serre`` stopped forming that difference.
``ungraded_coeff_eval`` and ``ungraded_word_pairing`` are ``coeff_eval`` and
``word_pairing`` as they were before the weight grading: every term reads
its column of x, and every leg pair of every word reads its first entry.
``row_dot_on_sections``, ``chained_carries_module``, ``all_columns_route``,
``chained_psi_images`` and ``zero_scan_rref`` are ``bundle.dot_on_sections``,
``bundle._carries_module``, the route loop of ``bundle.borel_weil_check``,
the image sums of ``bundle.frobenius_maps`` and ``linalg.rref`` as they were
before the bundle checks stopped computing terms no verdict reads: each
section key read its row of S^-1(x) afresh, each module sum and each image
was built by chained ``Section.scale`` and ``Section.__add__`` copies, the
route antipoded t_{ji} for every j, also where the column j of phi is zero,
and elimination subtracted every entry of the pivot row, zeros too.
``letterwise_leg_pairs`` and ``letterwise_word_weight`` are
``uqrep._leg_pairs`` and ``CoeffAlgebra._make_word_weight`` as they were
before each word's data was built from its suffix: every word expanded all
of its legs letter by letter, and walked all of its letters for its weight.
``fraction_rf_from_text`` is ``scalar.rf_from_text`` as it was before it
read coefficients as ints: each coefficient was a ``Fraction`` of its text,
gathered into a ``LaurentPoly``.
``section_add``, ``section_sub`` and ``section_scale`` (formerly
``Section.__add__``, ``Section.__sub__`` and ``Section.scale`` of
``qgroups.bundle``) lost their last caller in the package when the bundle
checks summed each combination into one dict.
``loop_decompose`` and ``loop_restrict_levi`` are ``tensor.decompose`` and
``parabolic.restrict_levi`` as they were before both splits went through
``tensor.canonical_blocks``: each ordered the weights, extracted the
highest-weight vectors, rebuilt the blocks and checked their dimensions in
a loop of its own.  ``peeling_char_decompose_oracle`` and
``peeling_branching_oracle`` are ``cartan.char_decompose_oracle`` and
``parabolic.branching_oracle`` as they were before both peeled through
``cartan.peel_characters``, the second through the former
``parabolic.levi_weight_multiplicities``.  ``rebuilt_k_matrix`` is the former
``TensorModule.k_matrix``, which built a new diagonal on every call.
``cartan_involution_word`` maps its words with its own loop and its own
q_i^-1, since ``uqrep._map_word`` now knows only the antipode table.
Do not optimize them.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from qgroups import uqrep
from qgroups.bundle import Section
from qgroups.coeff import CoeffElement, antipode
from qgroups.uqrep import AlgebraWord, _coproduct_legs, antipode_inv_word
from qgroups.cartan import (CartanData, _require_dominant, character_product, freudenthal,
                            inner_scaled, is_dominant, reflect, weight_multiplicities)
from qgroups.linalg import Mat, _mat, accumulate, index_applier, raising_kernel
from qgroups.parabolic import LeviBranching
from qgroups.scalar import (LP_ZERO, RF_ONE, RF_ZERO, LaurentPoly, RationalFunction, _ONE,
                            _rf, gauss_binomial, q_integer)
from qgroups.tensor import (CGDecomposition, _height_key, _pairing_inverse, decompose,
                            tensor_module)


def mat_neg(m: Mat) -> Mat:
    """-m, entry by entry (formerly ``Mat.__neg__``)."""
    return _mat(m.nrows, m.ncols, {rc: -x for rc, x in m.data.items()})


def mat_sub(a: Mat, b: Mat) -> Mat:
    """a - b, as a + (-b) (formerly ``Mat.__sub__``)."""
    return a + mat_neg(b)


def coproduct_word(cd, x) -> dict:
    """Coproduct as {(word_left, word_right): coefficient}.

    A leg pair determines its word (at each position an e or f stands on one
    leg, or both legs carry the same Cartan generator), so the pairs of
    different words are distinct and each carries its word's coefficient.
    """
    return {key: c for word, c in x.terms.items() for key in uqrep._coproduct_legs(word)}


def tensor_hom(alg, p, phi1: Mat, src1, tgt1, phi2: Mat, src2, tgt2):
    """Induced intertwiner on highest-weight sums.

    Composes the inclusion of the top tensor component with phi1 (x) phi2 and
    the Levi projection onto the top component of the target product.  The
    result is a nonzero intertwiner from the module of weight hw1 + hw2 to
    the Levi module of weight mu1 + mu2; a zero composite raises.
    """
    lam_sum = tuple(a + b for a, b in zip(src1.hw, src2.hw))
    mu_sum = tuple(a + b for a, b in zip(tgt1.hw, tgt2.hw))

    tsrc = tensor_module(src1, src2)
    cg_src = decompose(tsrc, alg.irreps)
    incl = None
    for nu, copies, canon in cg_src.components:
        if nu == lam_sum:
            incl = Mat(tsrc.dim, canon.dim)
            columns = cg_src.basis.columns()
            for c in range(canon.dim):
                incl.set_column(c, dict(columns.get(copies[0] + c, ())))
            break
    if incl is None:
        raise ArithmeticError("top component missing from source product")

    ttgt = tensor_module(tgt1, tgt2)
    cg_tgt = decompose(ttgt, alg.irreps)
    proj = None
    for nu, copies, canon in cg_tgt.components:
        if nu == mu_sum:
            proj = Mat(canon.dim, ttgt.dim)
            off = copies[0]
            for (r, c), x in basis_inv(cg_tgt).data.items():
                if off <= r < off + canon.dim:
                    proj.data[(r - off, c)] = x
            break
    if proj is None:
        raise ArithmeticError("top component missing from target product")

    composite = proj @ phi1.kron(phi2) @ incl
    if composite.is_zero():
        raise ArithmeticError("induced intertwiner vanished")
    return composite


def basis_inv(cg) -> Mat:
    """The whole inverse of a decomposition's basis, every column formed by
    ``inverse_column``."""
    n = cg.t.dim
    inv = Mat(n, n)
    offsets = {nu: copies for nu, copies, _ in cg.components}
    rows = cg.rows()
    for j in range(n):
        for (nu, copy), entries in cg.inverse_column(j, rows.get(j, ())).items():
            off = offsets[nu][copy]
            for k, y in entries:
                inv.data[(off + k, j)] = y
    return inv


def fraction_v_power(e, c=1) -> RationalFunction:
    """``RationalFunction.v_power`` through a Fraction for every c: a new
    instance on each call."""
    c = Fraction(c)
    if not c:
        return _rf(0, 1, 0, _ONE, _ONE)
    return _rf(c.numerator, c.denominator, e, _ONE, _ONE)


def weyl_orbit(cd: CartanData, mu):
    """Full Weyl orbit of a weight, by reflection closure."""
    seen = {tuple(mu)}
    queue = [tuple(mu)]
    while queue:
        w = queue.pop()
        for i in range(1, cd.rank + 1):
            s = reflect(cd, w, i)
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


def check_intertwiner(phi: Mat, m, target, p, flavor: str) -> bool:
    """Exact re-verification of the intertwining equations for one map."""
    gens = [("k", i) for i in range(1, p.cd.rank + 1)]
    gens += [("e", j) for j in p.theta] + [("f", j) for j in p.theta]
    if flavor == "parabolic":
        gens += [("e", j) for j in p.complement]
    for gen in gens:
        if (phi @ m.gen_matrix(gen)) != (target.gen_matrix(gen) @ phi):
            return False
    return True


def rf_arith(a: RationalFunction, b: RationalFunction, op: str) -> RationalFunction:
    """Field arithmetic entry point; op is one of add, sub, mul, div."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def _q_i(cd, i, sign=1):
    """q_i^sign = v^(2 d_i sign)."""
    return RationalFunction.v_power(2 * cd.d[i - 1] * sign)


# theta = (compact star) after the antipode: an algebra homomorphism
_CARTAN_INVOLUTION = {
    "e": lambda cd, i: ("f", -_q_i(cd, i)),
    "f": lambda cd, i: ("e", -_q_i(cd, i, -1)),
    "k": lambda cd, i: ("K", RF_ONE),
    "K": lambda cd, i: ("k", RF_ONE),
}


def cartan_involution_word(cd, x):
    """theta(x), letter by letter in the word's own order (a homomorphism
    keeps the order of the letters)."""
    out = {}
    for word, c in x.terms.items():
        gens = []
        for kind, i in word:
            new_kind, factor = _CARTAN_INVOLUTION[kind](cd, i)
            gens.append((new_kind, i))
            c = c * factor
        out[tuple(gens)] = c
    return AlgebraWord(out)


def leading_coeff(p):
    """The coefficient of a ``LaurentPoly``'s highest power of v."""
    return p.terms[p.degree()]


def inner(cd: CartanData, lam, mu) -> Fraction:
    """Inner product (lam, mu) induced by the normalization (a_i, a_i) = 2 d_i."""
    return Fraction(inner_scaled(cd, lam, mu), cd.denom)


def inner_with_root(cd: CartanData, lam, root) -> int:
    """(lam, alpha) with alpha in simple-root coordinates; integral for integral lam."""
    return sum(c * x * dj for c, x, dj in zip(root, lam, cd.d))


def direct_check_serre(m) -> list:
    """Verify every defining relation as an exact matrix identity.

    Returns a list of {"relation": ..., "ok": bool}; failures are entries,
    not exceptions.  The K relations are read off the diagonals of the stored
    k_i and k_i^-1, each first checked to be diagonal (all that k_i k_j =
    k_j k_i asks); k_i x k_i^-1 = v^p x is checked on each nonzero x[r, c].
    The Serre sums form no product with the identity.
    """
    cd = m.cd
    report = []
    idx = m.lowering
    rank = range(1, cd.rank + 1)

    def record(name, ok):
        report.append({"relation": name, "ok": bool(ok)})

    def diagonal(k):   # the diagonal entries, or None unless k is diagonal
        return None if any(r != c for r, c in k.data) else [k[s, s] for s in range(m.dim)]

    kd = {i: (diagonal(m.k_matrix(i)), diagonal(m.k_matrix(i, inverse=True))) for i in rank}
    for i in rank:
        ki, kiv = kd[i]
        both = ki is not None and kiv is not None
        record(f"k{i} k{i}^-1 = 1", both and all((x * y).is_one() for x, y in zip(ki, kiv)))
        for j in rank:
            record(f"k{i} k{j} = k{j} k{i}", ki is not None and kd[j][0] is not None)
        for j in idx:
            pairing = cd.d[i - 1] * cd.cartan[i - 1][j - 1]
            for kind, p in (("e", pairing), ("f", -pairing)):
                vp = RationalFunction.v_power(p)
                x = m.gen_matrix((kind, j)).data
                record(f"k{i} {kind}{j} k{i}^-1 = v^({p}) {kind}{j}",
                       both and all(ki[r] * y * kiv[c] == vp * y for (r, c), y in x.items()))

    for i in idx:
        ei = m.e_matrix(i)
        for j in idx:
            ej, fj = m.e_matrix(j), m.f_matrix(j)
            lhs = mat_sub(ei @ fj, fj @ ei)
            if i == j:
                rhs = Mat.diag(
                    q_integer(m.weights[s][i - 1], cd.d[i - 1]) for s in range(m.dim)
                )
            else:
                rhs = Mat.zero(m.dim, m.dim)
            record(f"[e{i}, f{j}]", lhs == rhs)

    for i in idx:
        for j in idx:
            if i == j:
                continue
            n = 1 - cd.cartan[i - 1][j - 1]
            coeffs = [gauss_binomial(n, t, cd.d[i - 1]) for t in range(n + 1)]
            coeffs[1::2] = [-c for c in coeffs[1::2]]
            for kind in ("e", "f"):
                xi = m.gen_matrix((kind, i))
                xj = m.gen_matrix((kind, j))
                powers = [None, xi]   # xi^t at t = 1..n
                for _ in range(n - 1):
                    powers.append(powers[-1] @ xi)
                total = xj @ powers[n]   # the terms t = 0..n, summed in order
                for t in range(1, n):
                    total = total + (powers[t] @ xj @ powers[n - t]).scale(coeffs[t])
                total = total + (powers[n] @ xj).scale(coeffs[n])
                record(f"serre {kind}{i},{kind}{j}", total.is_zero())
    return report


def gram_build_module(cd: CartanData, hw, lowering) -> uqrep.IrrepModule:
    """``uqrep.build_module`` as it was before it read each pairing off the E
    columns: it fills the candidate Gram matrix G and sums every pairing and
    self-pairing from it."""
    lowering = tuple(sorted(lowering))
    for i in lowering:
        if hw[i - 1] < 0:
            raise ValueError(f"weight {hw} not dominant for lowering set {lowering}")

    weights = [tuple(hw)]
    gram = [RF_ONE]
    constructions = [[]]
    e_cols = {i: {} for i in lowering}   # column index -> {row: RF}
    f_cols = {i: {} for i in lowering}
    level = [0]

    alphas = {i: cd.alpha_fundamental(i) for i in lowering}

    while level:
        groups = {}
        for p in level:
            wp = weights[p]
            for i in lowering:
                w = tuple(wp[t] - alphas[i][t] for t in range(cd.rank))
                groups.setdefault(w, []).append((p, i))
        new_level = []
        for w in sorted(groups, key=uqrep._weight_key):
            cands = groups[w]
            ncand = len(cands)
            # raising action on each candidate: e_j f_i w_p =
            #   f_i e_j w_p + delta_ij [<wt(p), i>] w_p
            ecols = []
            for p, i in cands:
                col = {}
                for j in lowering:
                    terms = [(rr, y * x) for r, x in e_cols[j].get(p, {}).items()
                             for rr, y in f_cols[i].get(r, {}).items()]
                    if j == i:
                        terms.append((p, q_integer(weights[p][i - 1], cd.d[i - 1])))
                    col[j] = accumulate({}, terms)
                ecols.append(col)
            # candidate pair Gram: (c_a, c_b) = g_{p_a} * [e_{i_a} c_b]_{p_a}
            G = [[RF_ZERO] * ncand for _ in range(ncand)]
            for a, (pa, ia) in enumerate(cands):
                ga = gram[pa]
                for b in range(ncand):
                    comp = ecols[b][ia].get(pa)
                    if comp:
                        G[a][b] = ga * comp
            # Gram-Schmidt over the candidate span; zero self-pairing means the
            # candidate is already a combination of the accepted vectors
            accepted = []   # (basis_index, coeffs over candidate indices, g)
            for b, (pb, ib) in enumerate(cands):
                proj = {}
                for s_idx, coeffs, g in accepted:
                    pair = RF_ZERO
                    for u, cu in coeffs.items():
                        if G[u][b]:
                            pair = pair + cu * G[u][b]
                    if pair:
                        proj[s_idx] = pair / g
                r_coeffs = {b: RF_ONE}
                for s_idx, coeffs, g in accepted:
                    x = proj.get(s_idx)
                    if x:
                        accumulate(r_coeffs, ((u, -x * cu) for u, cu in coeffs.items()))
                g_r = RF_ZERO
                for u, cu in r_coeffs.items():
                    if G[u][b]:
                        g_r = g_r + cu * G[u][b]
                if g_r:
                    s_new = len(weights)
                    weights.append(w)
                    gram.append(g_r)
                    constructions.append(
                        [(cands[u][0], cands[u][1], cu) for u, cu in sorted(r_coeffs.items())]
                    )
                    # raising matrices on the new basis vector
                    for j in lowering:
                        acc = accumulate({}, ((rr, cu * y) for u, cu in r_coeffs.items()
                                              for rr, y in ecols[u][j].items()))
                        if acc:
                            e_cols[j][s_new] = acc
                    coords = {s_new: RF_ONE}
                    for s_idx, x in proj.items():
                        coords[s_idx] = x
                    accepted.append((s_new, r_coeffs, g_r))
                    new_level.append(s_new)
                else:
                    coords = dict(proj)
                # lowering matrix column for the candidate's parent
                if coords:
                    accumulate(f_cols[ib].setdefault(pb, {}), coords.items())
        level = new_level

    dim = len(weights)
    E = {
        i: Mat(dim, dim, {(r, c): x for c, col in e_cols[i].items() for r, x in col.items()})
        for i in lowering
    }
    F = {
        i: Mat(dim, dim, {(r, c): x for c, col in f_cols[i].items() for r, x in col.items()})
        for i in lowering
    }
    ratios = [gram[0]] + [g / gram[entry[-1][0]]
                          for g, entry in zip(gram[1:], constructions[1:])]
    m = uqrep.IrrepModule(cd, hw, lowering, weights, E, F, ratios, constructions)
    m._gram = gram   # this builder's own values, not an expansion of the ratios
    return m


def bar(x: RationalFunction) -> RationalFunction:
    """The field automorphism v -> 1/v."""
    cn = x._cn
    if not cn:
        return x
    n, d = x._n[::-1], x._d[::-1]
    if n[-1] < 0:
        n, cn = tuple(-c for c in n), -cn
    if d[-1] < 0:
        d, cn = tuple(-c for c in d), -cn
    return _rf(cn, x._cd, len(d) - len(n) - x._s, n, d)


def copying_serre_sum(xi: Mat, xj: Mat, coeffs) -> Mat:
    """``uqrep._serre_sum`` as it was before it summed into one dict: each
    term is scaled into a new matrix and added to a copy of the running
    total."""
    n = len(coeffs) - 1
    powers = [None, xi]   # xi^t at t = 1..n
    for _ in range(n - 1):
        powers.append(powers[-1] @ xi)
    total = xj @ powers[n]   # the terms t = 0..n, summed in order
    for t in range(1, n):
        total = total + (powers[t] @ xj @ powers[n - t]).scale(coeffs[t])
    return total + (powers[n] @ xj).scale(coeffs[n])


def difference_check_serre(m) -> list:
    """``uqrep.check_serre`` as it was before it compared E_i F_j with
    F_j E_i: each [e_i, f_j] forms the difference E_i F_j - F_j E_i (through
    a negated copy) and compares it with ``Mat.diag`` of the q-integers or
    ``Mat.zero``; the Serre sums go through ``copying_serre_sum``."""
    cd = m.cd
    report = []
    idx = m.lowering
    rank = range(1, cd.rank + 1)
    mirrored = uqrep._gram_mirrors(m)

    def record(name, ok):
        ok = bool(ok)
        report.append({"relation": name, "ok": ok})
        return ok

    def diagonal(k):   # the diagonal entries, or None unless k is diagonal
        return None if any(r != c for r, c in k.data) else [k[s, s] for s in range(m.dim)]

    kd = {i: (diagonal(m.k_matrix(i)), diagonal(m.k_matrix(i, inverse=True))) for i in rank}
    for i in rank:
        ki, kiv = kd[i]
        both = ki is not None and kiv is not None

        def conjugates(x, p):   # k_i x k_i^-1 = v^p x on each stored x[r, c]
            vp = RationalFunction.v_power(p)
            return both and all(ki[r] * y * kiv[c] == vp * y for (r, c), y in x.data.items())

        inverse = record(f"k{i} k{i}^-1 = 1",
                         both and all((x * y).is_one() for x, y in zip(ki, kiv)))
        for j in rank:
            record(f"k{i} k{j} = k{j} k{i}", ki is not None and kd[j][0] is not None)
        for j in idx:
            p = cd.d[i - 1] * cd.cartan[i - 1][j - 1]
            ok = conjugates(m.f_matrix(j), -p)
            record(f"k{i} e{j} k{i}^-1 = v^({p}) e{j}",
                   ok if mirrored and inverse else conjugates(m.e_matrix(j), p))
            record(f"k{i} f{j} k{i}^-1 = v^({-p}) f{j}", ok)

    commutes = {}
    for i in idx:
        ei = m.e_matrix(i)
        for j in idx:
            if mirrored and i != j and (j, i) in commutes:
                ok = commutes[j, i]
            else:
                ej, fj = m.e_matrix(j), m.f_matrix(j)
                lhs = mat_sub(ei @ fj, fj @ ei)
                if i == j:
                    rhs = Mat.diag(
                        q_integer(m.weights[s][i - 1], cd.d[i - 1]) for s in range(m.dim)
                    )
                else:
                    rhs = Mat.zero(m.dim, m.dim)
                ok = lhs == rhs
            commutes[i, j] = record(f"[e{i}, f{j}]", ok)

    for i in idx:
        for j in idx:
            if i == j:
                continue
            n = 1 - cd.cartan[i - 1][j - 1]
            coeffs = [gauss_binomial(n, t, cd.d[i - 1]) for t in range(n + 1)]
            coeffs[1::2] = [-c for c in coeffs[1::2]]
            ok = copying_serre_sum(m.f_matrix(i), m.f_matrix(j), coeffs).is_zero()
            record(f"serre e{i},e{j}", ok if mirrored else
                   copying_serre_sum(m.e_matrix(i), m.e_matrix(j), coeffs).is_zero())
            record(f"serre f{i},f{j}", ok)
    return report


def ungraded_coeff_eval(alg, a, x) -> RationalFunction:
    """``coeff.coeff_eval`` before the weight grading: each (lam, j) column
    is evaluated once and t^(lam)_{ij} reads its entry i."""
    cols = {}
    total = RF_ZERO
    for (lam, i, j), c in a.terms.items():
        col = cols.get((lam, j))
        if col is None:
            col = cols[(lam, j)] = alg.word_matrix(lam, x, j - 1)
        mij = col.get(i - 1)
        if mij:
            total = total + c * mij
    return total


def ungraded_word_pairing(alg, a, b, x) -> RationalFunction:
    """``coeff.word_pairing`` before the weight grading: each coproduct leg
    pair of each word reads its two entries through ``word_matrix``."""
    total = RF_ZERO
    for (lam, i, j), ca in a.terms.items():
        for (mu, r, s), cb in b.terms.items():
            part = RF_ZERO
            for word, c in x.terms.items():
                legs = RF_ZERO
                for w1, w2 in _coproduct_legs(word):
                    v1 = alg.word_matrix(lam, w1, j - 1).get(i - 1)
                    if v1:
                        v2 = alg.word_matrix(mu, w2, s - 1).get(r - 1)
                        if v2:
                            legs = legs + v1 * v2
                if legs:
                    part = part + c * legs
            if part:
                total = total + ca * cb * part
    return total


def section_add(a: Section, b: Section) -> Section:
    """a + b, on a copy of a's vectors (formerly ``Section.__add__``)."""
    out = {k: dict(v) for k, v in a.data.items()}
    for key, vec in b.data.items():
        accumulate(out.setdefault(key, {}), vec.items())
    return a.copy_with(out)


def section_sub(a: Section, b: Section) -> Section:
    """a - b, as a + (-1) b (formerly ``Section.__sub__``)."""
    return section_add(a, section_scale(b, -RF_ONE))


def section_scale(s: Section, c: RationalFunction) -> Section:
    """c s (formerly ``Section.scale``)."""
    if not c:
        return s.copy_with({})
    return s.copy_with({key: {r: c * x for r, x in vec.items()} for key, vec in s.data.items()})


def row_dot_on_sections(x, zetas) -> list:
    """``bundle.dot_on_sections`` with a ``word_matrix`` row read per key."""
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


def chained_carries_module(module, zetas, gens) -> bool:
    """``bundle._carries_module`` with each sum a chain of section copies."""
    for gen in gens:
        word = AlgebraWord.of_gen(gen)
        cols = module.gen_matrix(gen).columns()
        for i, lhs in enumerate(row_dot_on_sections(word, zetas)):
            rhs = lhs.copy_with({})
            for j, c in cols.get(i, ()):
                rhs = section_add(rhs, section_scale(zetas[j], c))
            if lhs != rhs:
                return False
    return True


def chained_combination(template, terms):
    """sum c zeta over the (zeta, c) terms as a chain of section copies."""
    out = template.copy_with({})
    for zeta, c in terms:
        out = section_add(out, section_scale(zeta, c))
    return out


def all_columns_route(alg, p, source, vmod, phi) -> list:
    """The route sections of ``bundle.borel_weil_check``, with S(t_{ji})
    formed for every j."""
    phi_cols = phi.columns()
    out = []
    for i in range(source.dim):
        pushed_data = {}
        for j in range(source.dim):
            st = antipode(alg, CoeffElement.basis(source.hw, j + 1, i + 1))
            for key, c in st.terms.items():
                accumulate(pushed_data.setdefault(key, {}),
                           ((r, c * x) for r, x in phi_cols.get(j, ())))
        out.append(Section(alg, p, vmod, pushed_data))
    return out


def chained_psi_images(alg, p, vmod, basis, psi, dim) -> list:
    """The images of ``bundle.frobenius_maps``'s second round trip, each a
    chain of section copies over every basis index."""
    images = []
    for i in range(dim):
        img = Section(alg, p, vmod)
        for c in range(len(basis)):
            coeff = psi[(c, i)]
            if coeff:
                img = section_add(img, section_scale(basis[c], coeff))
        images.append(img)
    return images


def zero_scan_rref(rows, ncols=None):
    """``linalg.rref`` subtracting every entry of the pivot row."""
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def letterwise_leg_pairs(word) -> tuple:
    """``uqrep._leg_pairs`` expanding every leg letter by letter."""
    legs = [((), ())]
    for kind, i in word:
        if kind in ("e", "f"):
            pieces = ((((kind, i),), (("k", i),)), ((("K", i),), ((kind, i),)))
        else:
            pieces = ((((kind, i),), ((kind, i),)),)
        legs = [(w1 + p1, w2 + p2) for w1, w2 in legs for p1, p2 in pieces]
    words = uqrep._LEG_WORDS
    return tuple((words[w1], words[w2]) for w1, w2 in legs)


def letterwise_word_weight(alg, word):
    """``CoeffAlgebra._make_word_weight`` walking every letter of the word."""
    wt = alg.zero_weight
    for kind, k in word:
        if kind == "e" or kind == "f":
            wt = tuple(map(add if kind == "e" else sub, wt, alg._alphas[k - 1]))
    return wt


def _fraction_poly_parse(text: str) -> LaurentPoly:
    text = text.strip()
    if text == "0":
        return LP_ZERO
    terms = {}
    for bit in text.split(" + "):
        coeff, _, power = bit.partition("*v^")
        terms[int(power)] = Fraction(coeff)
    return LaurentPoly(terms)


def fraction_rf_from_text(text: str) -> RationalFunction:
    """``scalar.rf_from_text`` with a ``Fraction`` per coefficient."""
    num_text, sep, den_text = text.partition(" / ")
    if not sep:
        raise ValueError(f"malformed rational function text: {text!r}")
    num = _fraction_poly_parse(num_text)
    den = _fraction_poly_parse(den_text)
    return RationalFunction(num, den)


def loop_decompose(t, irrep_cache):
    """``tensor.decompose`` with its own weight order, extraction and check."""
    cd = t.cd
    full = len(t.lowering) == cd.rank

    hwvs = {}
    for w in set(t.weights):
        if all(w[i - 1] >= 0 for i in t.lowering):
            idx = t.weight_spaces().get(tuple(w), [])
            vecs = raising_kernel([t.e_matrix(i) for i in t.lowering], idx)
            if vecs:
                hwvs[w] = vecs

    f_apply = index_applier(t.f_matrix)
    components = []
    blocks = {}
    basis = Mat(t.dim, t.dim)
    col = 0
    block_index = {}
    for nu in sorted(hwvs, key=lambda w: _height_key(cd, w)):
        if full:
            canon = irrep_cache.irrep(cd, nu)
        else:
            canon = irrep_cache.levi(cd, t.lowering, nu)
        copies = []
        firsts = []
        for u in hwvs[nu]:
            cols = canon.embed_from_highest(f_apply, u)
            offset = col
            for k, colvec in enumerate(cols):
                basis.set_column(offset + k, colvec)
                block_index[offset + k] = (nu, len(copies), k)
            copies.append(offset)
            firsts.append(cols[0])
            col += canon.dim
        components.append((nu, copies, canon))
        blocks[nu] = (_pairing_inverse(t, firsts), canon.gram)

    if col != t.dim:
        raise ArithmeticError(
            f"isotypic dimensions sum to {col}, product dimension is {t.dim}"
        )
    return CGDecomposition(t, components, basis, block_index, blocks)


def loop_restrict_levi(m, p, cache):
    """``parabolic.restrict_levi`` with its own weight order, extraction and check."""
    cd = p.cd
    rho = (1,) * cd.rank
    spaces = m.weight_spaces()
    order = sorted(spaces, key=lambda w: (-inner_scaled(cd, w, rho), tuple(-c for c in w)))
    summands = []
    covered = 0
    f_apply = index_applier(m.f_matrix)
    for w in order:
        if any(w[j - 1] < 0 for j in p.theta):
            continue
        hwvs = raising_kernel([m.e_matrix(j) for j in p.theta], spaces[w])
        if not hwvs:
            continue
        levi_mod = cache.levi(cd, p.theta, w)
        for u in hwvs:
            cols = levi_mod.embed_from_highest(f_apply, u)
            summands.append((w, levi_mod, cols))
            covered += levi_mod.dim
    if covered != m.dim:
        raise ArithmeticError(
            f"branching covers {covered} of {m.dim} dimensions"
        )
    return LeviBranching(m, p, summands)


def peeling_char_decompose_oracle(cd, lam, mu) -> dict:
    """``cartan.char_decompose_oracle`` with its own peel loop."""
    _require_dominant(lam)
    _require_dominant(mu)
    remaining = {w: m for w, m in character_product(cd, lam, mu).items() if m}
    out = {}
    rho = (1,) * cd.rank
    while remaining:
        lead = max(remaining, key=lambda w: (inner_scaled(cd, w, rho), w))
        if not is_dominant(lead):
            raise ArithmeticError(f"leading weight {lead} not dominant")
        mult = remaining[lead]
        if mult < 0:
            raise ArithmeticError("negative multiplicity in character subtraction")
        out[lead] = out.get(lead, 0) + mult
        for w, m in weight_multiplicities(cd, lead).items():
            left = remaining.get(w, 0) - mult * m
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
    return out


def levi_weight_multiplicities(p, mu) -> dict:
    """The former ``parabolic.levi_weight_multiplicities``."""
    for j in p.theta:
        if mu[j - 1] < 0:
            raise ValueError(f"{mu} is not Theta-dominant")
    return freudenthal(p.cd, mu, p.theta)


def peeling_branching_oracle(cd, p, lam) -> dict:
    """``parabolic.branching_oracle`` with its own peel loop."""
    remaining = dict(weight_multiplicities(cd, lam))
    rho = (1,) * cd.rank
    out = {}
    while remaining:
        lead = max(remaining, key=lambda w: (inner_scaled(cd, w, rho), w))
        mult = remaining[lead]
        for j in p.theta:
            if lead[j - 1] < 0:
                raise ArithmeticError("leading branch weight not Theta-dominant")
        if mult <= 0:
            raise ArithmeticError("negative branching multiplicity")
        out[lead] = out.get(lead, 0) + mult
        for w, m in levi_weight_multiplicities(p, lead).items():
            left = remaining.get(w, 0) - mult * m
            if left:
                remaining[w] = left
            elif w in remaining:
                del remaining[w]
    return out


def rebuilt_k_matrix(t, i, inverse=False) -> Mat:
    """The former ``TensorModule.k_matrix``: a new diagonal on every call."""
    sign = -1 if inverse else 1
    return Mat.diag(
        RationalFunction.v_power(sign * w[i - 1] * t.cd.d[i - 1])
        for w in t.weights
    )
