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
# kernel_basis is not called here, but perfbench's tracer test checks that
# this module's binding of it gets wrapped, so the name stays bound
from .linalg import (  # noqa: F401
    Mat,
    accumulate,
    apply_index,
    index_applier,
    invert,
    kernel_basis,
)
from .scalar import (
    NumericValue,
    RF_ONE,
    RF_ZERO,
    Memo,
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
    _coproduct_legs,
    antipode_inv_word,
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
        return CoeffElement(accumulate(dict(self.terms), other.terms.items()))

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
        return CoeffTensor(accumulate(dict(self.terms), other.terms.items()))

    def __eq__(self, other):
        return isinstance(other, CoeffTensor) and self.terms == other.terms

    def __repr__(self):
        return f"CoeffTensor({len(self.terms)} terms)"


class CoeffAlgebra:
    """Context for one algebra: module cache plus derived structure caches."""

    def __init__(self, cd: CartanData, irreps: IrrepCache | None = None):
        self.cd = cd
        self.irreps = irreps or IrrepCache()
        self._cg = Memo(self._make_cg)
        self._dual = Memo(self._make_dual)
        self._gen_lines = Memo(self._make_gen_lines)
        self._word_vecs = Memo(self._make_word_vec)
        self.zero_weight = (0,) * cd.rank

    def irrep(self, lam) -> IrrepModule:
        return self.irreps.irrep(self.cd, tuple(lam))

    def word_matrix(self, lam, x, index, side="col") -> dict:
        """Column ``index`` (or row, for side="row") of the matrix of x on lam.

        x is an AlgebraWord or a single word (a tuple of generators, with
        coefficient one); positions are 0-based and the result is a sparse
        {position: RationalFunction} dict that callers only read: for a
        single word, bare or an AlgebraWord of one word with coefficient
        one, it is the memoized vector itself.  Only one basis vector
        is pushed through each word; the vector of every word and of its
        suffixes (prefixes, for rows) is memoized.  The name is older than
        this contract and stays because the benchmark's layer map uses it.
        """
        vecs = self._word_vecs
        if isinstance(x, tuple):
            return vecs[lam, x, index, side]
        if len(x.terms) == 1:
            (word, c), = x.terms.items()
            if c.is_one():
                return vecs[lam, word, index, side]
        out = {}
        for word, c in x.terms.items():
            vec = vecs[lam, word, index, side]
            accumulate(out, vec.items() if c.is_one() else ((r, c * y) for r, y in vec.items()))
        return out

    def _make_word_vec(self, key):
        lam, word, index, side = key
        if not word:
            return {index: RF_ONE}
        # a column takes the leftmost generator last, a row the rightmost
        gen, rest = (word[0], word[1:]) if side == "col" else (word[-1], word[:-1])
        vec = self._word_vecs[lam, rest, index, side]
        return apply_index(self._gen_lines[lam, gen, side], vec)

    def _make_gen_lines(self, key):
        """The column index of one generator's matrix (side="col"), or the
        row index (side="row")."""
        lam, gen, side = key
        mat = self.irrep(lam).gen_matrix(gen)
        return (mat if side == "col" else mat.transpose()).columns()

    def cg(self, lam, mu):
        """Cached decomposition data for the product of two modules.

        Returns (decomposition, row_map, col_map) where row_map[I] lists
        (nu, copy, a, x) over the nonzeros of row I of the isotypic basis and
        col_map[J] is column J of its inverse as {(nu, copy): [(b, y)]},
        formed from row_map[J] on first use and kept.
        """
        return self._cg[tuple(lam), tuple(mu)]

    def _make_cg(self, key):
        lam, mu = key
        cgd = decompose(tensor_module(self.irrep(lam), self.irrep(mu)), self.irreps)
        row_map = cgd.rows()
        return cgd, row_map, Memo(lambda j: cgd.inverse_column(j, row_map.get(j, ())))

    def dual_data(self, lam):
        """Intertwiner between the canonical dual-weight module and the dual rep.

        Returns (lam_dual, Q, Qinv) with t^(lam)(S(x))^T = Q t^(lam^dual)(x) Q^-1.
        """
        return self._dual[tuple(lam)]

    def _make_dual(self, lam):
        cd = self.cd
        m = self.irrep(lam)
        lam_dual = dual_weight(cd, lam)
        canon = self.irrep(lam_dual)

        # the dual representation x -> t^(lam)(S(x))^T has raising matrices
        # -q_i e_i^T and lowering matrices -q_i^-1 f_i^T; the weight of dual
        # index s is minus the module weight.  So its highest-weight space is
        # spanned by the (in an irreducible module, one) basis indices of
        # lowest weight -lam_dual whose row is zero in every e_i.
        raised = {r for i in range(1, cd.rank + 1) for r, _ in m.e_matrix(i).data}
        kern = [s for s in range(m.dim)
                if s not in raised and tuple(-c for c in m.weights[s]) == lam_dual]
        if len(kern) != 1:
            raise ArithmeticError(
                f"dual highest-weight space of {lam} has dimension {len(kern)}"
            )

        def dual_f(i):
            return m.f_matrix(i).transpose().scale(-RationalFunction.v_power(-2 * cd.d[i - 1]))

        cols = canon.embed_from_highest(index_applier(dual_f), {kern[0]: RF_ONE})
        q = Mat(m.dim, canon.dim)
        for c, col in enumerate(cols):
            q.set_column(c, col)
        qinv = invert(q)
        return lam_dual, q, qinv

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
    return CoeffTensor(accumulate({}, ((((lam, i, k), (lam, k, j)), c)
                                       for (lam, i, j), c in a.terms.items()
                                       for k in range(1, alg.irrep(lam).dim + 1))))


def product(alg: CoeffAlgebra, a: CoeffElement, b: CoeffElement) -> CoeffElement:
    """Multiplication dual to the coproduct of the enveloping algebra.

    For basis coefficients this is the product-module coefficient at the
    paired indices, pushed through the isotypic change of basis.
    """
    return CoeffElement(accumulate({}, _product_terms(alg, a, b)))


def _product_terms(alg, a, b):
    """The (key, coefficient) summands of ``product``, unsummed."""
    zero = alg.zero_weight
    for (lam, i, j), ca in a.terms.items():
        for (mu, r, s), cb in b.terms.items():
            c = ca * cb
            if lam == zero or mu == zero:
                # a factor is the unit t^(0)_{11}
                yield ((mu, r, s) if lam == zero else (lam, i, j)), c
                continue
            _, row_map, col_map = alg.cg(lam, mu)
            dmu = alg.irrep(mu).dim
            left = row_map.get((i - 1) * dmu + (r - 1))
            if not left:
                continue
            right = col_map[(j - 1) * dmu + (s - 1)]
            for nu, copy, aa, x in left:
                for bb, y in right.get((nu, copy), ()):
                    yield (nu, aa + 1, bb + 1), c * x * y


def antipode(alg: CoeffAlgebra, a: CoeffElement) -> CoeffElement:
    """S(t^(lam)_{ij}) expanded in the canonical coefficients of the dual weight."""
    out = {}
    for (lam, i, j), c in a.terms.items():
        lam_dual, q, qinv = alg.dual_data(lam)
        qrow = [(cc, x) for (r, cc), x in q.data.items() if r == j - 1]
        qicol = [(r, y) for (r, cc), y in qinv.data.items() if cc == i - 1]
        accumulate(out, (((lam_dual, aa + 1, bb + 1), c * x * y)
                         for aa, x in qrow for bb, y in qicol))
    return CoeffElement(out)


def star(alg: CoeffAlgebra, a: CoeffElement) -> CoeffElement:
    """The anti-involution; in an orthonormal basis it would send t_ij to the
    dual-module coefficient with the same indices, here Gram factors appear."""
    flipped = {}
    for (lam, i, j), c in a.terms.items():
        gram = alg.irrep(lam).gram
        flipped[(lam, j, i)] = c * (gram[j - 1] / gram[i - 1])  # one term per key
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
    return CoeffElement(accumulate({}, (
        ((lam, i, k0 + 1), c * val) for (lam, i, j), c in a.terms.items()
        for k0, val in alg.word_matrix(lam, x, j - 1, "col").items())))


def dot_action(alg: CoeffAlgebra, x: AlgebraWord, a: CoeffElement) -> CoeffElement:
    """Left-translation action, through the inverse antipode on the word."""
    xs = antipode_inv_word(alg.cd, x)
    return CoeffElement(accumulate({}, (
        ((lam, k0 + 1, j), c * val) for (lam, i, j), c in a.terms.items()
        for k0, val in alg.word_matrix(lam, xs, i - 1, "row").items())))


def haar_positivity(alg: CoeffAlgebra, a: CoeffElement, v0) -> NumericValue:
    """Specialized value of the integral of star(a) * a at a rational v0."""
    pairing = haar(alg, product(alg, star(alg, a), a))
    return specialize(pairing, v0)


def word_pairing(alg: CoeffAlgebra, a: CoeffElement, b: CoeffElement,
                 x: AlgebraWord) -> RationalFunction:
    """Evaluate a (x) b against the coproduct of a word."""
    total = RF_ZERO
    for word, c in x.terms.items():
        for w1, w2 in _coproduct_legs(word):
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
