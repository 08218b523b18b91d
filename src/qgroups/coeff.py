"""The matrix-coefficient algebra of the quantum group, with its Hopf structure.

Elements are finite Q(v)-combinations of the canonical coefficients
t^(lam)_{ij} attached to the canonical module bases built in uqrep.  Every
operation returns its result re-expressed in this one family, so equality is
dict equality:

  * multiplication routes through the tensor decomposition of the two
    modules involved;
  * the antipode sends t^(lam)_{ij} to the dual-module coefficient, which is
    re-expanded through an explicitly computed intertwiner between the
    canonical module of the dual highest weight and the dual representation
    x -> t^(lam)(S(x))^T;
  * the star operation is the antipode with transposed indices and diagonal
    Gram corrections (the bases are orthogonal, not orthonormal, since
    normalizing would leave Q(v)).

The Haar functional reads off the coefficient of the unit; Schur
orthogonality closed forms live here too, next to the left and right
translation actions.

Pairing t^(lam)_{ij} with an algebra element x reads one entry of the
module matrix of x, and the translation actions and the section
equivariance checks need one column or one row of it.  So the evaluator
``CoeffAlgebra.word_matrix`` never forms a whole word matrix: it applies
the generators of each word to one basis vector, right to left for a
column and left to right for a row.  The name is kept because the
benchmark's layer map refers to it.
"""

from __future__ import annotations

from .cartan import CartanData, dual_weight
from .linalg import Mat, invert, kernel_basis
from .scalar import (
    NumericValue,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    rf_from_text,
    rf_to_text,
    specialize,
)
from .tensor import decompose, tensor_module
from .uqrep import (
    AlgebraWord,
    IrrepCache,
    IrrepModule,
    antipode_inv_word,
    cartan_involution_word,
    coproduct_word,
    k2rho,
    quantum_dimension,
)


class CoeffElement:
    """Finite combination {(lam, i, j): coefficient}, indices 1-based."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    lam, i, j = key
                    self.terms[(tuple(lam), int(i), int(j))] = c

    @classmethod
    def basis(cls, lam, i, j, coeff=RF_ONE):
        return cls({(tuple(lam), i, j): coeff})

    @classmethod
    def unit(cls, cd: CartanData):
        return cls({((0,) * cd.rank, 1, 1): RF_ONE})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, RF_ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return CoeffElement(out)

    def __sub__(self, other):
        return self + other.scale(-RF_ONE)

    def scale(self, c: RationalFunction):
        if not c:
            return CoeffElement()
        return CoeffElement({key: c * x for key, x in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, CoeffElement) and self.terms == other.terms

    def support(self):
        return sorted({key[0] for key in self.terms})

    def to_json(self):
        return [
            [list(lam), i, j, rf_to_text(c)]
            for (lam, i, j), c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json(cls, obj):
        return cls(
            {(tuple(lam), i, j): rf_from_text(text) for lam, i, j, text in obj}
        )

    def __repr__(self):
        bits = []
        for (lam, i, j), c in sorted(self.terms.items()):
            bits.append(f"({c}) t{lam}[{i},{j}]")
        return " + ".join(bits) if bits else "0"


class CoeffTensor:
    """Finite combination of pairs of coefficient keys (coproduct output)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, RF_ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return CoeffTensor(out)

    def __eq__(self, other):
        return isinstance(other, CoeffTensor) and self.terms == other.terms

    def __repr__(self):
        return f"CoeffTensor({len(self.terms)} terms)"


class CoeffAlgebra:
    """Context for one algebra: module cache plus derived structure caches."""

    def __init__(self, cd: CartanData, irreps: IrrepCache | None = None):
        self.cd = cd
        self.irreps = irreps or IrrepCache()
        self._cg = {}
        self._dual = {}
        self._gen_lines = {}
        self._word_vecs = {}
        self.zero_weight = (0,) * cd.rank

    def irrep(self, lam) -> IrrepModule:
        return self.irreps.irrep(self.cd, tuple(lam))

    def word_matrix(self, lam, x, index, side="col") -> dict:
        """Column ``index`` (or row, for side="row") of the matrix of x on lam.

        x is an AlgebraWord or a single word (a tuple of generators, with
        coefficient one); positions are 0-based and the result is a fresh
        sparse {position: RationalFunction} dict.  Only one basis vector is
        pushed through each word; the vector of every word and of its
        suffixes (prefixes, for rows) is memoized.  The name is older than
        this contract and stays because the benchmark's layer map uses it.
        """
        terms = {x: RF_ONE} if isinstance(x, tuple) else x.terms
        out = {}
        for word, c in terms.items():
            vec = self._word_vec(lam, word, index, side)
            unit = c.is_one()
            for r, y in vec.items():
                y = y if unit else c * y
                s = out.get(r)
                s = y if s is None else s + y
                if s:
                    out[r] = s
                else:
                    del out[r]
        return out

    def _word_vec(self, lam, word, index, side):
        key = (lam, word, index, side)
        vec = self._word_vecs.get(key)
        if vec is not None:
            return vec
        if not word:
            vec = {index: RF_ONE}
        else:
            # a column takes the leftmost generator last, a row the rightmost
            gen, rest = (word[0], word[1:]) if side == "col" else (word[-1], word[:-1])
            vec = self._apply_gen(lam, gen, self._word_vec(lam, rest, index, side), side)
        if len(self._word_vecs) < (1 << 16):
            self._word_vecs[key] = vec
        return vec

    def _apply_gen(self, lam, gen, vec, side):
        """One generator on a column vector (side="col") or a row vector."""
        key = (lam, gen, side)
        lines = self._gen_lines.get(key)
        if lines is None:
            lines = {}
            for (r, c), x in self.irrep(lam).gen_matrix(gen).data.items():
                if side == "col":
                    lines.setdefault(c, []).append((r, x))
                else:
                    lines.setdefault(r, []).append((c, x))
            self._gen_lines[key] = lines
        out = {}
        for a, y in vec.items():
            for b, x in lines.get(a, ()):
                p = x * y
                s = out.get(b)
                s = p if s is None else s + p
                if s:
                    out[b] = s
                else:
                    del out[b]
        return out

    def cg(self, lam, mu):
        """Cached decomposition data for the product of two modules.

        Returns (decomposition, row_map, col_map) where row_map[I] lists
        (nu, copy, a, x) over the nonzeros of row I of the isotypic basis and
        col_map[J] lists (nu, copy, b, y) over column J of its inverse.
        """
        key = (tuple(lam), tuple(mu))
        hit = self._cg.get(key)
        if hit is not None:
            return hit
        t = tensor_module(self.irrep(lam), self.irrep(mu))
        cgd = decompose(t, self.irreps)
        row_map = {}
        for (r, c), x in cgd.basis.data.items():
            nu, copy, a = cgd.block_index[c]
            row_map.setdefault(r, []).append((nu, copy, a, x))
        col_map = {}
        for (r, c), y in cgd.basis_inv.data.items():
            nu, copy, b = cgd.block_index[r]
            col_map.setdefault(c, []).append((nu, copy, b, y))
        return self._cg.setdefault(key, (cgd, row_map, col_map))

    def dual_data(self, lam):
        """Intertwiner between the canonical dual-weight module and the dual rep.

        Returns (lam_dual, Q, Qinv) with t^(lam)(S(x))^T = Q t^(lam^dual)(x) Q^-1.
        """
        lam = tuple(lam)
        hit = self._dual.get(lam)
        if hit is not None:
            return hit
        cd = self.cd
        m = self.irrep(lam)
        lam_dual = dual_weight(cd, lam)
        canon = self.irrep(lam_dual)

        def dual_gen(gen):
            kind, i = gen
            if kind == "e":
                qi = RationalFunction.v_power(2 * cd.d[i - 1])
                return m.e_matrix(i).transpose().scale(-qi)
            if kind == "f":
                qi_inv = RationalFunction.v_power(-2 * cd.d[i - 1])
                return m.f_matrix(i).transpose().scale(-qi_inv)
            if kind == "k":
                return m.k_matrix(i, inverse=True)
            return m.k_matrix(i)

        # highest-weight vector of the dual representation: weight of dual
        # index s is minus the module weight, so look at lam_dual directly
        target = [s for s in range(m.dim)
                  if tuple(-c for c in m.weights[s]) == lam_dual]
        rows = []
        for i in range(1, cd.rank + 1):
            e = dual_gen(("e", i))
            cols = {c: {} for c in target}
            touched = set()
            for (r, c), x in e.data.items():
                if c in cols:
                    cols[c][r] = x
                    touched.add(r)
            for r in sorted(touched):
                rows.append([cols[c].get(r, RF_ZERO) for c in target])
        if not rows:
            rows = [[RF_ZERO] * len(target)]
        kern = kernel_basis(rows, len(target))
        if len(kern) != 1:
            raise ArithmeticError(
                f"dual highest-weight space of {lam} has dimension {len(kern)}"
            )
        hwv = {target[k]: x for k, x in kern[0].items()}

        f_mats = {i: dual_gen(("f", i)) for i in range(1, cd.rank + 1)}
        cols = canon.embed_from_highest(lambda i, vec: f_mats[i].apply(vec), hwv)
        q = Mat(m.dim, canon.dim)
        for c, col in enumerate(cols):
            q.set_column(c, col)
        qinv = invert(q)
        return self._dual.setdefault(lam, (lam_dual, q, qinv))

    def unit(self) -> CoeffElement:
        return CoeffElement.unit(self.cd)


# --- evaluation and Hopf operations -------------------------------------------


def coeff_eval(alg: CoeffAlgebra, a: CoeffElement, x) -> RationalFunction:
    """Pairing of a coefficient element against an algebra word.

    x is an AlgebraWord or a single word; each (lam, j) column is evaluated
    once and t^(lam)_{ij} reads its entry i.
    """
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


def coproduct(alg: CoeffAlgebra, a: CoeffElement) -> CoeffTensor:
    """Delta(t_ij) = sum_k t_ik (x) t_kj, extended linearly."""
    out = {}
    for (lam, i, j), c in a.terms.items():
        d = alg.irrep(lam).dim
        for k in range(1, d + 1):
            key = ((lam, i, k), (lam, k, j))
            s = out.get(key, RF_ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return CoeffTensor(out)


def product(alg: CoeffAlgebra, a: CoeffElement, b: CoeffElement) -> CoeffElement:
    """Multiplication dual to the coproduct of the enveloping algebra.

    For basis coefficients this is the product-module coefficient at the
    paired indices, pushed through the isotypic change of basis.
    """
    out = {}
    for (lam, i, j), ca in a.terms.items():
        for (mu, r, s), cb in b.terms.items():
            c = ca * cb
            if lam == alg.zero_weight:
                key = (mu, r, s)
                val = out.get(key, RF_ZERO) + c
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
                continue
            if mu == alg.zero_weight:
                key = (lam, i, j)
                val = out.get(key, RF_ZERO) + c
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
                continue
            _, row_map, col_map = alg.cg(lam, mu)
            dmu = alg.irrep(mu).dim
            row_i = (i - 1) * dmu + (r - 1)
            col_j = (j - 1) * dmu + (s - 1)
            left = row_map.get(row_i, ())
            right = col_map.get(col_j, ())
            if not left or not right:
                continue
            rindex = {}
            for nu, copy, bb, y in right:
                rindex.setdefault((nu, copy), []).append((bb, y))
            for nu, copy, aa, x in left:
                for bb, y in rindex.get((nu, copy), ()):
                    key = (nu, aa + 1, bb + 1)
                    val = out.get(key, RF_ZERO) + c * x * y
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
    return CoeffElement(out)


def antipode(alg: CoeffAlgebra, a: CoeffElement) -> CoeffElement:
    """S(t^(lam)_{ij}) expanded in the canonical coefficients of the dual weight."""
    out = {}
    for (lam, i, j), c in a.terms.items():
        lam_dual, q, qinv = alg.dual_data(lam)
        qrow = {}
        for (r, cc), x in q.data.items():
            if r == j - 1:
                qrow[cc] = x
        qicol = {}
        for (r, cc), y in qinv.data.items():
            if cc == i - 1:
                qicol[r] = y
        for aa, x in qrow.items():
            for bb, y in qicol.items():
                key = (lam_dual, aa + 1, bb + 1)
                val = out.get(key, RF_ZERO) + c * x * y
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
    return CoeffElement(out)


def star(alg: CoeffAlgebra, a: CoeffElement) -> CoeffElement:
    """The anti-involution; in an orthonormal basis it would send t_ij to the
    dual-module coefficient with the same indices, here Gram factors appear."""
    flipped = {}
    for (lam, i, j), c in a.terms.items():
        gram = alg.irrep(lam).gram
        factor = gram[j - 1] / gram[i - 1]
        key = (lam, j, i)
        val = flipped.get(key, RF_ZERO) + c * factor
        if val:
            flipped[key] = val
        else:
            flipped.pop(key, None)
    return antipode(alg, CoeffElement(flipped))


def haar(alg: CoeffAlgebra, a: CoeffElement) -> RationalFunction:
    """The normalized two-sided invariant integral: coefficient of the unit."""
    return a.terms.get((alg.zero_weight, 1, 1), RF_ZERO)


def schur_pair(alg: CoeffAlgebra, lam, i, j, r, s, mu, variant="t_dual"):
    """Closed form of the integral of a product of two matrix coefficients.

    variant "t_dual": integral of t^(lam)_{ij} times the dual coefficient
    with indices (r, s) of mu; equals delta_{lam,mu} delta_{ir} times the
    (s, j) entry of the k2rho action divided by the quantum dimension.

    variant "dual_t": the mirrored integral; equals delta_{lam,mu}
    delta_{js} times the dual (i, r) entry of the k2rho action over the
    quantum dimension.
    """
    lam, mu = tuple(lam), tuple(mu)
    if lam != mu:
        return RF_ZERO
    m = alg.irrep(lam)
    mono = k2rho(alg.cd)
    dq = quantum_dimension(m)
    if variant == "t_dual":
        if i != r or s != j:
            return RF_ZERO
        return RationalFunction.v_power(mono.weight_exponent(m.weights[s - 1])) / dq
    if variant == "dual_t":
        if j != s or i != r:
            return RF_ZERO
        return RationalFunction.v_power(-mono.weight_exponent(m.weights[i - 1])) / dq
    raise ValueError(f"unknown variant {variant!r}")


def circ_action(alg: CoeffAlgebra, x: AlgebraWord, a: CoeffElement) -> CoeffElement:
    """Right-translation action: x acts through the second coefficient index."""
    out = {}
    for (lam, i, j), c in a.terms.items():
        for k0, val in alg.word_matrix(lam, x, j - 1, "col").items():
            key = (lam, i, k0 + 1)
            s = out.get(key, RF_ZERO) + c * val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return CoeffElement(out)


def dot_action(alg: CoeffAlgebra, x: AlgebraWord, a: CoeffElement) -> CoeffElement:
    """Left-translation action, through the inverse antipode on the word."""
    xs = antipode_inv_word(alg.cd, x)
    out = {}
    for (lam, i, j), c in a.terms.items():
        for k0, val in alg.word_matrix(lam, xs, i - 1, "row").items():
            key = (lam, k0 + 1, j)
            s = out.get(key, RF_ZERO) + c * val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return CoeffElement(out)


def haar_positivity(alg: CoeffAlgebra, a: CoeffElement, v0) -> NumericValue:
    """Specialized value of the integral of star(a) * a at a rational v0."""
    pairing = haar(alg, product(alg, star(alg, a), a))
    return specialize(pairing, v0)


def cartan_involution(alg, x):
    return cartan_involution_word(alg.cd, x)


def word_pairing(alg: CoeffAlgebra, a: CoeffElement, b: CoeffElement,
                 x: AlgebraWord) -> RationalFunction:
    """Evaluate a (x) b against the coproduct of a word."""
    total = RF_ZERO
    for (w1, w2), c in coproduct_word(alg.cd, x).items():
        v1 = coeff_eval(alg, a, w1)
        if not v1:
            continue
        v2 = coeff_eval(alg, b, w2)
        if v2:
            total = total + c * v1 * v2
    return total


def k2rho_word(cd: CartanData) -> AlgebraWord:
    """k2rho as an explicit word in the Cartan generators."""
    gens = []
    for jj, c in enumerate(k2rho(cd).exponents):
        kind = "k" if c >= 0 else "K"
        gens.extend([(kind, jj + 1)] * abs(c))
    return AlgebraWord({tuple(gens): RF_ONE})
