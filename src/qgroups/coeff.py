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

The pairing is weight-graded.  Every module is weight-homogeneous: an
E_k entry at [r, c] has wt(r) = wt(c) + alpha_k, an F_k entry wt(r) =
wt(c) - alpha_k, and K is diagonal (``build_module`` builds it so,
``irrep_from_json`` checks the step of every stored entry, and
``check_serre``'s k_i x k_i^-1 records verify it).  So <t^(lam)_{ij}, w> = 0
unless wt_lam(i) - wt_lam(j) = wt(w), where wt(e_k) = alpha_k, wt(f_k) =
-alpha_k and wt(k_k) = wt(k_k^-1) = 0.  ``coeff_eval`` and ``word_pairing``
compare these weights, as tuples of ints (so exactly, for every weight),
before they read any entry.
"""

from __future__ import annotations

from operator import add, sub

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
from .tensor import DualModule, decompose, highest_weight_vectors, tensor_module
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
        self.terms = {(tuple(lam), int(i), int(j)): c
                      for (lam, i, j), c in (terms or {}).items() if c}

    @staticmethod
    def basis(lam, i, j, coeff=RF_ONE):
        return _coeff({(tuple(lam), int(i), int(j)): coeff} if coeff else {})

    @staticmethod
    def unit(cd: CartanData):
        return _coeff({((0,) * cd.rank, 1, 1): RF_ONE})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return _coeff(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-RF_ONE)

    def scale(self, c: RationalFunction):
        if not c:
            return _coeff({})
        return _coeff({key: c * x for key, x in self.terms.items()})

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


def _coeff(terms):
    """CoeffElement over clean {(lam tuple, int i, int j): nonzero} terms, as is."""
    a = object.__new__(CoeffElement)
    a.terms = terms
    return a


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
        # the weight grading: the weight of each word, the weight step
        # wt_lam(i) - wt_lam(j) of each coefficient index (lam, i, j), and
        # the coproduct legs of each word grouped by their two weights
        self.word_weight = Memo(self._make_word_weight)
        self.weight_step = Memo(self._make_weight_step)
        self.leg_groups = Memo(self._make_leg_groups)
        # the highest weight of each dual module, as the bundle grades read it
        self.dual_weights = Memo(lambda lam: dual_weight(cd, lam))
        self.zero_weight = (0,) * cd.rank
        self._alphas = [cd.alpha_fundamental(k) for k in range(1, cd.rank + 1)]

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

    def _make_word_weight(self, word):
        """wt(e_k) = alpha_k, wt(f_k) = -alpha_k, wt(k_k) = wt(k_k^-1) = 0,
        summed over the word, in fundamental coordinates: the first letter's
        weight added to the memoized weight of the rest."""
        if not word:
            return self.zero_weight
        wt = self.word_weight[word[1:]]
        kind, k = word[0]
        if kind == "e" or kind == "f":
            return tuple(map(add if kind == "e" else sub, wt, self._alphas[k - 1]))
        return wt

    def _make_leg_groups(self, word):
        """{(wt(w1), wt(w2)): [(w1, w2), ...]} over ``_coproduct_legs(word)``:
        each leg is filed under its own weights, so a leg that breaks the
        grading is filed, and read, like any other."""
        wt = self.word_weight
        groups = {}
        for w1, w2 in _coproduct_legs(word):
            groups.setdefault((wt[w1], wt[w2]), []).append((w1, w2))
        return groups

    def _make_weight_step(self, key):
        """wt_lam(i) - wt_lam(j) for the coefficient index (lam, i, j)."""
        lam, i, j = key
        w = self.irrep(lam).weights
        return tuple(map(sub, w[i - 1], w[j - 1]))

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
        m = self.irrep(lam)
        lam_dual = self.dual_weights[lam]
        canon = self.irrep(lam_dual)
        # the dual representation x -> t^(lam)(S(x))^T of an irreducible
        # module has one line of highest weight lam_dual; lowering its vector
        # with the dual's own f_i gives the canonical basis inside it
        dual = DualModule(m)
        hwvs = highest_weight_vectors(dual, lam_dual, m.lowering)
        if len(hwvs) != 1:
            raise ArithmeticError(
                f"dual highest-weight space of {lam} has dimension {len(hwvs)}"
            )
        cols = canon.embed_from_highest(index_applier(dual.f_matrix), hwvs[0])
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

    x is an AlgebraWord or a single word.  The pairing is weight-graded
    (see the module docstring): a term t^(lam)_{ij} reads column j of x
    only when wt_lam(i) - wt_lam(j) is the weight of one of x's words, and
    is zero otherwise.  Each (lam, j) column that is read is evaluated once,
    and t^(lam)_{ij} reads its entry i.
    """
    wt, step = alg.word_weight, alg.weight_step
    words = (x,) if isinstance(x, tuple) else x.terms
    if len(words) == 1:
        word, = words
        weights = (wt[word],)
    else:
        weights = {wt[w] for w in words}
    cols = {}
    total = RF_ZERO
    for key, c in a.terms.items():
        if step[key] not in weights:
            continue
        lam, i, j = key
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
    return _coeff(accumulate({}, _product_terms(alg, a, b)))


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
    return _coeff(out)


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
    return _coeff(accumulate({}, (
        ((lam, i, k0 + 1), c * val) for (lam, i, j), c in a.terms.items()
        for k0, val in alg.word_matrix(lam, x, j - 1, "col").items())))


def dot_action(alg: CoeffAlgebra, x: AlgebraWord, a: CoeffElement) -> CoeffElement:
    """Left-translation action, through the inverse antipode on the word."""
    xs = antipode_inv_word(alg.cd, x)
    return _coeff(accumulate({}, (
        ((lam, k0 + 1, j), c * val) for (lam, i, j), c in a.terms.items()
        for k0, val in alg.word_matrix(lam, xs, i - 1, "row").items())))


def haar_positivity(alg: CoeffAlgebra, a: CoeffElement, v0) -> NumericValue:
    """Specialized value of the integral of star(a) * a at a rational v0."""
    pairing = haar(alg, product(alg, star(alg, a), a))
    return specialize(pairing, v0)


def word_pairing(alg: CoeffAlgebra, a: CoeffElement, b: CoeffElement,
                 x: AlgebraWord) -> RationalFunction:
    """Evaluate a (x) b against the coproduct of a word, term pair by term
    pair: each coproduct leg pair reads its two entries through
    ``word_matrix`` on the bare leg words.

    The pairing is weight-graded (see the module docstring): with dl =
    wt_lam(i) - wt_lam(j) and dm = wt_mu(r) - wt_mu(s), only the legs
    (w1, w2) with wt(w1) = dl and wt(w2) = dm are read (``leg_groups``); any
    other leg pairs to zero on homogeneous modules.  That rests on the
    modules alone.  A word is not skipped for its own weight: that would
    trust the coproduct to be graded, and its legs are what the duality law
    checks."""
    step, groups = alg.weight_step, alg.leg_groups
    total = RF_ZERO
    for key, ca in a.terms.items():
        lam, i, j = key
        dl = step[key]
        for key_b, cb in b.terms.items():
            mu, r, s = key_b
            steps = (dl, step[key_b])
            part = RF_ZERO
            for word, c in x.terms.items():
                legs = RF_ZERO
                for w1, w2 in groups[word].get(steps, ()):
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


def k2rho_word(cd: CartanData) -> AlgebraWord:
    """k2rho as an explicit word in the Cartan generators."""
    gens = []
    for jj, c in enumerate(k2rho(cd).exponents):
        kind = "k" if c >= 0 else "K"
        gens.extend([(kind, jj + 1)] * abs(c))
    return AlgebraWord({tuple(gens): RF_ONE})
