"""Finite-dimensional highest-weight modules of the quantized enveloping algebra.

Modules are built as explicit generator matrices over Q(v).  Starting from
the highest-weight vector, lowering operators are applied level by level,
and each weight space is orthogonalized, candidate by candidate, under the
contravariant form (the bilinear form with (x u, w) = (u, x* w) for the
compact star structure e* = f, f* = e, k* = k).  No pairing is summed: for a
candidate c = f_i v_p, adjointness gives (v_s, c) = g_p E_i[p, s] for each
accepted vector v_s of its weight, and the residual r of c after projection
has (r, r) = g_p [e_i r]_p, both read off raising columns already built.
Because the specialized form is positive definite for real v > 0, v != 1, a
vector is zero in the module exactly when its self-pairing vanishes, so a
candidate with zero residual is dropped and the procedure lands on the
irreducible module with a per-weight orthogonal basis and a diagonal Gram
matrix.  Its size is Weyl's dimension for the lowering set; a vector beyond
that count means residuals that should vanish did not, and raises
ArithmeticError.

The diagonal g is never expanded while building or checking.  Each accepted
vector s stores its parent p(s), the candidate's v_p, and its step ratio
g_s / g_p(s), which is the residual's [e_i r]_p.  A projection needs
g_p / g_s = (g_p / g_p(s)) / (g_s / g_p(s)), and p, p(s) sit on one level, so
it reads a same-level ratio that climbs the two parent chains; those are
memoized per module.  Expanded, g_s is a product of step ratios along the
construction tree, so it grows with the depth of the module, while a step
ratio and a same-level ratio stay small.  ``gram`` is expanded on its first
read and then kept.

The same machinery builds modules of a reductive (Levi) subalgebra by
restricting the set of lowering indices, and a window of a module by
stopping after a given number of levels below the top.  Levels are built
top-down, so a window's basis indices, E/F entries, step ratios and
constructions are those of the full module's first levels; only f_i acts by
zero on its last level, whose lowering columns need the level below.

Conventions (the single convention ledger for everything downstream):
the Cartan generator k_i acts on a weight-mu vector by v^(mu, alpha_i),
k_i e_j k_i^-1 = v^(alpha_i, alpha_j) e_j, and the antipode has
S(e_i) = -q_i e_i, S(f_i) = -q_i^-1 f_i, S(k_i) = k_i^-1 with q_i = v^(2 d_i).
"""

from __future__ import annotations

from .cache import CacheIntegrityError
from .cartan import CartanData, weyl_dim
from .linalg import Mat, _mat, accumulate
from .scalar import (
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    Memo,
    gauss_binomial,
    q_integer,
    rf_from_text,
    rf_to_text,
)


# --- formal algebra words -----------------------------------------------------


def gen_e(i):
    return ("e", i)


def gen_f(i):
    return ("f", i)


def gen_k(i):
    return ("k", i)


def gen_kinv(i):
    return ("K", i)


class AlgebraWord:
    """Formal Q(v)-linear combination of words in e_i, f_i, k_i, k_i^-1.

    No relations are imposed; words only ever get evaluated in modules or
    hit with the structure maps below, all of which send a single generator
    to a scalar multiple of a single generator.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[tuple(w)] = c

    @staticmethod
    def unit():
        return _word({(): RF_ONE})

    @staticmethod
    def of_gen(gen, coeff=RF_ONE):
        return _word({(gen,): coeff} if coeff else {})

    @staticmethod
    def of_word(*gens):
        return _word({gens: RF_ONE})

    def __add__(self, other):
        return _word(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-RF_ONE)

    def scale(self, c: RationalFunction):
        return AlgebraWord({w: c * x for w, x in self.terms.items()})

    def __mul__(self, other):
        return _word(accumulate({}, ((w1 + w2, c1 * c2) for w1, c1 in self.terms.items()
                                     for w2, c2 in other.terms.items())))

    def __eq__(self, other):
        return isinstance(other, AlgebraWord) and self.terms == other.terms

    def __repr__(self):
        return f"AlgebraWord({self.terms})"


def _word(terms):
    """AlgebraWord over clean {word tuple: nonzero} terms, as is."""
    x = object.__new__(AlgebraWord)
    x.terms = terms
    return x


def _q_i(cd: CartanData, i) -> RationalFunction:
    return RationalFunction.v_power(2 * cd.d[i - 1])


def counit(cd: CartanData, x: AlgebraWord) -> RationalFunction:
    total = RF_ZERO
    for word, c in x.terms.items():
        if all(g[0] in ("k", "K") for g in word):
            total = total + c
    return total


# the one antipode table: S sends each generator to a multiple of one generator
_ANTIPODE = {
    "e": lambda cd, i: ("e", -_q_i(cd, i)),
    "f": lambda cd, i: ("f", -_q_i(cd, i).inv()),
    "k": lambda cd, i: ("K", RF_ONE),
    "K": lambda cd, i: ("k", RF_ONE),
}


def _map_word(cd, x: AlgebraWord, inverse) -> AlgebraWord:
    """S(x), or S^-1(x) for inverse=True; both reverse each word.  S sends
    e_i and f_i to multiples of themselves and swaps k_i and k_i^-1 with
    factor one, so S^-1 sends each generator where S does, with the inverse
    factor."""
    out = {}
    for word, c in x.terms.items():
        gens = []
        coeff = c
        for kind, i in reversed(word):
            new_kind, factor = _ANTIPODE[kind](cd, i)
            gens.append((new_kind, i))
            coeff = coeff * (factor.inv() if inverse else factor)
        out[tuple(gens)] = coeff  # one-to-one on words; each factor is nonzero
    return _word(out)


def antipode_word(cd, x: AlgebraWord) -> AlgebraWord:
    return _map_word(cd, x, inverse=False)


def antipode_inv_word(cd, x: AlgebraWord) -> AlgebraWord:
    return _map_word(cd, x, inverse=True)


def _leg_pairs(word) -> tuple:
    """The leg pairs (word_left, word_right) of the coproduct of one word.

    Delta(e_i) = e_i (x) k_i + k_i^-1 (x) e_i, Delta(f_i) likewise, the
    Cartan generators are grouplike.  Every piece has coefficient one.  The
    pieces of the first letter are joined in front of the memoized legs of
    the rest of the word, piece by piece, so words that share a suffix share
    its legs; the order is that of the letter-by-letter expansion, with the
    first letter's piece the slowest index.  A leg word recurs in the legs of
    many words and is kept once.
    """
    words = _LEG_WORDS
    if not word:
        return ((words[()], words[()]),)
    kind, i = gen = word[0]
    if kind in ("e", "f"):
        pieces = (((gen,), (("k", i),)), ((("K", i),), (gen,)))
    else:
        pieces = (((gen,), (gen,)),)
    rest = _LEGS[word[1:]]
    return tuple((words[p1 + w1], words[p2 + w2]) for p1, p2 in pieces for w1, w2 in rest)


# leg pairs of the coproduct of each word, and one stored copy of each leg word
_LEGS = Memo(_leg_pairs)
_LEG_WORDS = Memo(lambda w: w)


def _coproduct_legs(word) -> tuple:
    """The leg pairs of one word; they depend on the word alone, so they are
    memoized under it."""
    return _LEGS[word]


def coideal_span(cd: CartanData, theta=()) -> list:
    """Spanning words of the coideal attached to a compact subalgebra choice.

    For the full algebra pass theta = all indices.  Imaginary-unit prefactors
    are dropped: they do not change any span over the complexification.
    """
    theta = set(theta)
    out = []
    for i in range(1, cd.rank + 1):
        if i in theta:
            qi = _q_i(cd, i)
            e = AlgebraWord.of_gen(gen_e(i))
            f = AlgebraWord.of_gen(gen_f(i))
            out.append(e - f.scale(qi))       # e_i - q_i f_i
            out.append(e + f.scale(qi))       # e_i + q_i f_i (dropped sqrt(-1))
        k = AlgebraWord.of_gen(gen_k(i))
        kin = AlgebraWord.of_gen(gen_kinv(i))
        out.append(k - kin)                   # dropped scalar prefactor
        out.append(k + kin - AlgebraWord.unit().scale(RationalFunction.const(2)))
    return out


# --- modules ------------------------------------------------------------------


class WeightModule:
    """The generator interface shared by the modules of the package.

    A subclass sets ``cd`` and ``weights`` (the weight of each basis vector)
    through this ``__init__`` and supplies ``e_matrix`` and ``f_matrix``; the
    Cartan generators act diagonally through the weights, and their
    matrices are kept in a ``Memo``.
    """

    __slots__ = ("cd", "weights", "dim", "_kmats")

    def __init__(self, cd, weights):
        self.cd = cd
        self.weights = weights
        self.dim = len(weights)
        d = cd.d

        def k_diag(key):
            # k_i (or its inverse) is diagonal: v^(+-d_i wt_i) on each basis vector
            i, inverse = key
            sign = -1 if inverse else 1
            return Mat.diag(RationalFunction.v_power(sign * w[i - 1] * d[i - 1]) for w in weights)

        # the maker holds the weights, not the module: no reference cycle
        self._kmats = Memo(k_diag)

    def k_matrix(self, i, inverse=False) -> Mat:
        return self._kmats[i, inverse]

    def gen_matrix(self, gen) -> Mat:
        kind, i = gen
        if kind == "e":
            return self.e_matrix(i)
        if kind == "f":
            return self.f_matrix(i)
        if kind == "k":
            return self.k_matrix(i)
        if kind == "K":
            return self.k_matrix(i, inverse=True)
        raise ValueError(f"unknown generator {gen!r}")

    def weight_spaces(self):
        """Map weight -> list of basis indices, in basis order."""
        out = {}
        for s, w in enumerate(self.weights):
            out.setdefault(w, []).append(s)
        return out


class IrrepModule(WeightModule):
    """Irreducible highest-weight module given by explicit sparse matrices.

    ``lowering`` is the tuple of simple-root indices whose e/f generators act
    nontrivially; the full algebra uses all of 1..rank, a Levi subalgebra a
    subset.  Cartan generators always act, diagonally, via the stored weights.
    ``constructions[s]`` expresses basis vector s as a combination of lowered
    earlier vectors: a list of (parent_index, lowering_index, coefficient).
    It lets the same basis be rebuilt inside any other module from a chosen
    highest-weight vector, which is how intertwiners are produced downstream.

    The contravariant form is stored as step ratios: ``parents[s]`` is the
    parent p(s) of s, the first index of the last term of
    ``constructions[s]`` (the root is its own parent), and ``ratios[s]`` is
    g_s / g_p(s), with ``ratios[0]`` = g_0.  ``gram``, the diagonal g itself,
    is expanded on its first read and then kept.  ``level_ratio[a, b]`` is
    g_a / g_b for two basis vectors of one level, read off the ratios and
    memoized (the builder's entries are kept): a change to ``ratios`` after
    construction must clear it.
    """

    __slots__ = ("hw", "lowering", "E", "F", "ratios", "parents", "level_ratio",
                 "constructions", "_gram")

    def __init__(self, cd, hw, lowering, weights, E, F, ratios, constructions,
                 level_ratio=None):
        super().__init__(cd, [tuple(w) for w in weights])
        self.hw = tuple(hw)
        self.lowering = tuple(lowering)
        self.E = E
        self.F = F
        self.ratios = ratios
        self.parents = [entry[-1][0] if entry else 0 for entry in constructions]
        # the builder hands over the memo it filled on these same ratios
        if level_ratio is None:
            level_ratio = _level_ratios(ratios, self.parents)
        self.level_ratio = level_ratio
        self.constructions = constructions
        self._gram = None

    @property
    def gram(self) -> list:
        """The Gram diagonal g_s = g_p(s) * ratios[s], expanded once and kept."""
        if self._gram is None:
            gram = []
            for p, x in zip(self.parents, self.ratios):
                gram.append(gram[p] * x if gram else x)
            self._gram = gram
        return self._gram

    def e_matrix(self, i) -> Mat:
        m = self.E.get(i)
        if m is None:
            # parabolic extension: raising generators outside the subalgebra
            # act by zero
            return Mat.zero(self.dim, self.dim)
        return m

    def f_matrix(self, i) -> Mat:
        m = self.F.get(i)
        if m is None:
            raise ValueError(
                f"f_{i} does not act on this module (lowering set {self.lowering})"
            )
        return m

    def embed_from_highest(self, f_apply, hwv: dict) -> list:
        """Images of the canonical basis inside another module.

        ``f_apply(i, vec)`` must apply the target module's f_i to a sparse
        vector; ``hwv`` is the image of the highest-weight vector.  Returns a
        list of sparse vectors, one per basis index.
        """
        cols = [dict(hwv)]
        for s in range(1, self.dim):
            cols.append(accumulate({}, ((r, coeff * x)
                                        for parent, i, coeff in self.constructions[s]
                                        for r, x in f_apply(i, cols[parent]).items())))
        return cols

    def __repr__(self):
        return f"IrrepModule({self.cd.name}, hw={self.hw}, dim={self.dim})"


def _level_ratios(ratios, parents) -> Memo:
    """Memo of g_a / g_b for basis vectors a, b of one level.

    g_a / g_b = (ratios[a] / ratios[b]) * (g_p(a) / g_p(b)), and the parents
    are again on one level, so the walk climbs the two parent chains until
    they meet or reach a stored pair, then multiplies back down.  No g is
    ever expanded.
    """
    def make(key):
        a, b = key
        path = []
        x = RF_ONE
        while a != b:
            hit = memo.get((a, b))
            if hit is not None:
                x = hit
                break
            path.append((a, b))
            a, b = parents[a], parents[b]
        for a, b in reversed(path):
            x = ratios[a] / ratios[b] * x
        return x

    memo = Memo(make)
    return memo


def _weight_key(w):
    # deterministic group order inside a level: lexicographically descending
    return tuple(-c for c in w)


def build_module(cd: CartanData, hw, lowering, depth=None) -> IrrepModule:
    """Shared builder; see the module docstring for the algorithm.  With
    ``depth``, it stops after that many levels below the top (a window)."""
    lowering = tuple(sorted(lowering))
    size = weyl_dim(cd, hw, lowering)   # a weight that is not dominant raises here

    weights = [tuple(hw)]
    ratios = [RF_ONE]   # g_s / g_p(s); the form itself is never expanded here
    parents = [0]
    level_ratio = _level_ratios(ratios, parents)
    constructions = [[]]
    e_cols = {i: {} for i in lowering}   # column index -> {row: RF}
    f_cols = {i: {} for i in lowering}
    level = [0]

    alphas = {i: cd.alpha_fundamental(i) for i in lowering}

    height = 0
    while level and (depth is None or height < depth):
        height += 1
        groups = {}
        for p in level:
            wp = weights[p]
            for i in lowering:
                w = tuple(wp[t] - alphas[i][t] for t in range(cd.rank))
                groups.setdefault(w, []).append((p, i))
        new_level = []
        for w in sorted(groups, key=_weight_key):
            cands = groups[w]
            accepted = []   # (basis_index, coeffs over candidate indices)
            for b, (pb, ib) in enumerate(cands):
                # raising action on the candidate c_b = f_{i_b} v_{p_b}:
                #   e_j f_i v_p = f_i e_j v_p + delta_ij [<wt(p), i>] v_p
                ecol = {}
                for j in lowering:
                    terms = [(rr, y * x) for r, x in e_cols[j].get(pb, {}).items()
                             for rr, y in f_cols[ib].get(r, {}).items()]
                    if j == ib:
                        terms.append((pb, q_integer(weights[pb][ib - 1], cd.d[ib - 1])))
                    ecol[j] = accumulate({}, terms) if terms else {}
                # f_i is adjoint to e_i: (v_s, c_b) = g_{p_b} E_{i_b}[p_b, s] for
                # each accepted v_s, and r = c_b - sum_s proj_s v_s has
                # (r, r) = (r, c_b) = g_{p_b} [e_{i_b} r]_{p_b}, so its step
                # ratio is ``top``.  proj_s = E_{i_b}[p_b, s] g_{p_b} / g_s, where
                # g_s = ratios[s] g_p(s) and p_b, p(s) share a level
                top = ecol[ib].get(pb, RF_ZERO)
                proj = {}
                for s_idx, _ in accepted:
                    x = e_cols[ib].get(s_idx, {}).get(pb)
                    if x:
                        proj[s_idx] = x * level_ratio[pb, parents[s_idx]] / ratios[s_idx]
                        top = top - proj[s_idx] * x
                # zero self-pairing: c_b is a combination of the accepted vectors
                if top:
                    s_new = len(weights)
                    if s_new == size:
                        raise ArithmeticError(f"module {tuple(hw)} of {cd.name} gets a basis "
                                              f"vector beyond its Weyl dimension {size}")
                    weights.append(w)
                    ratios.append(top)
                    parents.append(pb)   # the last construction term, coefficient one
                    r_coeffs = {b: RF_ONE}
                    for s_idx, coeffs in accepted:
                        x = proj.get(s_idx)
                        if x:
                            accumulate(r_coeffs, ((u, -x * cu) for u, cu in coeffs.items()))
                    constructions.append(
                        [(cands[u][0], cands[u][1], cu) for u, cu in sorted(r_coeffs.items())]
                    )
                    # raising columns: e_j r = e_j c_b - sum_s proj_s E_j[:, s]
                    for j in lowering:
                        acc = ecol[j]
                        if proj:
                            accumulate(acc, ((rr, -x * y) for s_idx, x in proj.items()
                                             for rr, y in e_cols[j].get(s_idx, {}).items()))
                        if acc:
                            e_cols[j][s_new] = acc
                    coords = {s_new: RF_ONE, **proj}
                    accepted.append((s_new, r_coeffs))
                    new_level.append(s_new)
                else:
                    coords = proj
                # lowering matrix column for the candidate's parent: each (p_b, i_b)
                # is a candidate once, and every coordinate is nonzero
                if coords:
                    f_cols[ib][pb] = coords
        level = new_level

    dim = len(weights)
    # every stored column entry is a nonzero sum: the matrices take them as they are
    E = {
        i: _mat(dim, dim, {(r, c): x for c, col in e_cols[i].items() for r, x in col.items()})
        for i in lowering
    }
    F = {
        i: _mat(dim, dim, {(r, c): x for c, col in f_cols[i].items() for r, x in col.items()})
        for i in lowering
    }
    return IrrepModule(cd, hw, lowering, weights, E, F, ratios, constructions, level_ratio)


def build_irrep(cd: CartanData, hw) -> IrrepModule:
    """Irreducible module of the full algebra with dominant highest weight."""
    return build_module(cd, hw, range(1, cd.rank + 1))


def act_word(m: IrrepModule, x: AlgebraWord) -> Mat:
    """Evaluate a formal word combination as a new matrix on the module.

    Each word starts at its first generator's matrix (the empty word at the
    identity), so no product with the identity is formed; the result is a
    fresh ``Mat``, never a stored generator matrix itself.
    """
    out = None
    for word, c in x.terms.items():
        acc = m.gen_matrix(word[0]) if word else Mat.identity(m.dim)
        for gen in word[1:]:
            acc = acc @ m.gen_matrix(gen)
        acc = acc.scale(c)
        out = acc if out is None else out + acc
    return Mat.zero(m.dim, m.dim) if out is None else out


# --- relations report ---------------------------------------------------------


def _gram_mirrors(m) -> bool:
    """Whether G F_i = E_i^T G holds exactly for every i in ``m.lowering``,
    G the diagonal of the contravariant form: the form makes f_i the adjoint
    of e_i.  False without ``ratios`` of ``m.dim`` nonzero entries.

    Each stored F_i[r, c] needs a stored E_i[c, r] with g_r F_i[r, c] =
    g_c E_i[c, r].  That maps F_i's entries one to one into E_i's, and equal
    entry counts make the map onto, so the identity holds at every position.
    The identity is checked divided by the nonzero g_p(r), as
    ratios[r] F_i[r, c] = (g_c / g_p(r)) E_i[c, r]: c and p(r) share a level,
    so no g is expanded.
    """
    ratios = getattr(m, "ratios", None)
    if ratios is None or len(ratios) != m.dim or not all(ratios):
        return False
    parents, level_ratio = m.parents, m.level_ratio
    for i in m.lowering:
        e, f = m.e_matrix(i).data, m.f_matrix(i).data
        if len(e) != len(f):
            return False
        for (r, c), y in f.items():
            x = e.get((c, r))
            if x is None or ratios[r] * y != level_ratio[c, parents[r]] * x:
                return False
    return True


def _serre_sum(xi: Mat, xj: Mat, coeffs) -> Mat:
    """sum_t coeffs[t] xi^t xj xi^(n-t), with no product with the identity.
    The terms t = 0..n are summed in order into one dict, each scaled inline."""
    n = len(coeffs) - 1
    powers = [None, xi]   # xi^t at t = 1..n
    for _ in range(n - 1):
        powers.append(powers[-1] @ xi)
    total = (xj @ powers[n]).data
    for t in range(1, n + 1):
        term = powers[t] @ xj if t == n else powers[t] @ xj @ powers[n - t]
        c = coeffs[t]
        accumulate(total, term.data.items() if c.is_one() else
                   ((rc, c * x) for rc, x in term.data.items()))
    return _mat(xi.nrows, xi.ncols, total)


def check_serre(m: IrrepModule) -> list:
    """Verify every defining relation as an exact matrix identity.

    Returns a list of {"relation": ..., "ok": bool}; failures are entries,
    not exceptions.  The K relations are read off the diagonals of the stored
    k_i and k_i^-1, each first checked to be diagonal (all that k_i k_j =
    k_j k_i asks); k_i x k_i^-1 = v^p x is checked on each nonzero x[r, c].
    [e_i, f_j] is decided as E_i F_j == F_j E_i + delta_ij diag([wt_i]_i), the
    q-integers added into the product F_j E_i in place.

    The two sides mirror each other when the Gram certificate holds
    (``_gram_mirrors``: every g_s is nonzero and F_i = G^-1 E_i^T G exactly,
    checked entry by entry on the step ratios).  Then S_f(i, j) =
    +-G^-1 S_e(i, j)^T G for the Serre sums, [e_j, f_i] = G^-1 [e_i, f_j]^T G
    for i != j, and, once the record k_i k_i^-1 = 1 is true,
    k_i f_j k_i^-1 = v^-p f_j holds exactly when k_i e_j k_i^-1 = v^p e_j
    does.  So the Serre sums and K conjugations run on the f side, whose
    entries are mostly ``RF_ONE`` (free to multiply), and each e-side record
    copies its mirror; [e_j, f_i] copies [e_i, f_j].
    Without the certificate (no ``ratios``, a zero step ratio, or an E or F
    that breaks the identity) every record is computed directly.
    """
    cd = m.cd
    report = []
    idx = m.lowering
    rank = range(1, cd.rank + 1)
    mirrored = _gram_mirrors(m)

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
            # for y = x[r, c] != 0 in Q(v), k_i[r] y k_i^-1[c] = v^p y exactly
            # when k_i[r] k_i^-1[c] = v^p; a stored zero holds either way
            vp = RationalFunction.v_power(p)
            return both and all(ki[r] * kiv[c] == vp for (r, c), y in x.data.items() if y)

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
                fj = m.f_matrix(j)
                rhs = fj @ ei
                if i == j:
                    accumulate(rhs.data, (((s, s), q_integer(w[i - 1], cd.d[i - 1]))
                                          for s, w in enumerate(m.weights)))
                ok = ei @ fj == rhs
            commutes[i, j] = record(f"[e{i}, f{j}]", ok)

    for i in idx:
        for j in idx:
            if i == j:
                continue
            n = 1 - cd.cartan[i - 1][j - 1]
            coeffs = [gauss_binomial(n, t, cd.d[i - 1]) for t in range(n + 1)]
            coeffs[1::2] = [-c for c in coeffs[1::2]]
            ok = _serre_sum(m.f_matrix(i), m.f_matrix(j), coeffs).is_zero()
            record(f"serre e{i},e{j}", ok if mirrored else
                   _serre_sum(m.e_matrix(i), m.e_matrix(j), coeffs).is_zero())
            record(f"serre f{i},f{j}", ok)
    return report


def relations_ok(m: IrrepModule) -> bool:
    return all(entry["ok"] for entry in check_serre(m))


# --- Cartan monomial for the square of the antipode ---------------------------


class CartanMonomial:
    """Product of k_j powers, acting on a weight mu by v^(mu, sum c_j alpha_j)."""

    __slots__ = ("cd", "exponents")

    def __init__(self, cd, exponents):
        self.cd = cd
        self.exponents = tuple(exponents)

    def weight_exponent(self, mu) -> int:
        total = 0
        for j, c in enumerate(self.exponents):
            total += c * mu[j] * self.cd.d[j]
        return total

    def matrix(self, m: IrrepModule, inverse=False) -> Mat:
        sign = -1 if inverse else 1
        return Mat.diag(
            RationalFunction.v_power(sign * self.weight_exponent(w))
            for w in m.weights
        )


def k2rho(cd: CartanData) -> CartanMonomial:
    """The Cartan monomial implementing the square of the antipode.

    Its exponent vector c satisfies sum c_j alpha_j = 4 rho, so conjugation
    scales e_i by q^(2 rho, alpha_i).
    """
    return CartanMonomial(cd, (2 * c for c in cd.two_rho))


def quantum_dimension(m: IrrepModule) -> RationalFunction:
    """Trace of the k2rho action: sum over weights of v^(4 rho, mu)."""
    mono = k2rho(m.cd)
    total = RF_ZERO
    for w in m.weights:
        total = total + RationalFunction.v_power(mono.weight_exponent(w))
    return total


# --- cache and serialization ---------------------------------------------------


class IrrepCache:
    """Shared store of built modules, keyed by algebra, weight and lowering
    set; a window adds its depth to the key, so ``irrep`` and ``levi`` never
    hand one out."""

    def __init__(self):
        self._store = Memo(lambda key: build_module(*key))

    def irrep(self, cd: CartanData, hw) -> IrrepModule:
        return self._store[cd, tuple(hw), tuple(range(1, cd.rank + 1))]

    def window(self, cd: CartanData, hw, depth) -> IrrepModule:
        """The full module down to ``depth`` levels below its top, or the
        full module itself once it is stored: it holds every window."""
        key = (cd, tuple(hw), tuple(range(1, cd.rank + 1)))
        full = self._store.get(key)
        return self._store[key + (depth,)] if full is None else full

    def levi(self, cd: CartanData, theta, hw) -> IrrepModule:
        return self._store[cd, tuple(hw), tuple(sorted(theta))]


def _mat_to_json(m: Mat):
    return {
        "shape": [m.nrows, m.ncols],
        "entries": [[r, c, rf_to_text(x)] for (r, c), x in sorted(m.data.items())],
    }


# names the layout of irrep_to_json payloads and of their cache entries;
# change it with either
IRREP_SCHEMA = "qgroups-irrep/3"


def irrep_to_json(m: IrrepModule) -> dict:
    return {
        "algebra": m.cd.name,
        "highest_weight": list(m.hw),
        "lowering": list(m.lowering),
        "weights": [list(w) for w in m.weights],
        "E": {str(i): _mat_to_json(mat) for i, mat in sorted(m.E.items())},
        "F": {str(i): _mat_to_json(mat) for i, mat in sorted(m.F.items())},
        "constructions": [
            [[p, i, rf_to_text(c)] for p, i, c in entry] for entry in m.constructions
        ],
    }


_PAYLOAD_KEYS = ("algebra", "highest_weight", "lowering", "weights", "E", "F",
                 "constructions")


def _require(ok, what):
    if not ok:
        raise CacheIntegrityError(f"malformed cache payload: {what}")


def _is_ints(obj, n=None):
    return (isinstance(obj, list) and (n is None or len(obj) == n)
            and all(type(x) is int for x in obj))


def _rf_field(text, what):
    _require(isinstance(text, str), f"{what} is not text")
    try:
        return rf_from_text(text)
    except (ValueError, ZeroDivisionError):
        raise CacheIntegrityError(
            f"malformed cache payload: {what} is not a rational function: {text!r}"
        ) from None


def _mat_from_json(obj, what="matrix", shape=None) -> Mat:
    """Matrix from a ``_mat_to_json`` payload, which comes from a file.

    A shape other than ``shape`` (when given), an index outside the shape or
    text that is not a rational function raises CacheIntegrityError.
    """
    _require(isinstance(obj, dict) and isinstance(obj.get("entries"), list), what)
    dims = obj.get("shape")
    _require(_is_ints(dims, 2) and min(dims) >= 0
             and (shape is None or tuple(dims) == shape), f"{what} shape")
    nr, nc = dims
    m = Mat(nr, nc)
    for entry in obj["entries"]:
        _require(isinstance(entry, list) and len(entry) == 3 and _is_ints(entry[:2])
                 and 0 <= entry[0] < nr and 0 <= entry[1] < nc, what)
        m.data[(entry[0], entry[1])] = _rf_field(entry[2], what)
    return m


def irrep_from_json(cd: CartanData, obj) -> IrrepModule:
    """Module from an ``irrep_to_json`` payload.

    The payload is read from a cache file, so its shape is checked: a missing
    key, a wrong type or size, a lowering set that is not strictly increasing
    (``build_module`` sorts it, and ``check_serre`` lists records in its
    order), text that is not a rational function, a first weight other than
    the highest weight, a stored ``F_i`` entry that does not lower its
    column's weight by alpha_i (an ``E_i`` entry: raise), a construction
    whose parent p (its last term, through f_i) is not an earlier vector one
    simple root above, or a zero E_i[p, s] or F_i[s, p] raises
    CacheIntegrityError.  The payload holds no form: the step ratios
    g_s / g_p(s) that ``build_module`` stores are read off E and F, from
    g_0 = 1.
    """
    _require(isinstance(obj, dict), "not an object")
    missing = [k for k in _PAYLOAD_KEYS if k not in obj]
    _require(not missing, f"missing {', '.join(missing)}")
    _require(obj["algebra"] == cd.name, "algebra mismatch")
    rank = cd.rank
    _require(_is_ints(obj["highest_weight"], rank), "highest_weight")
    lowering = obj["lowering"]
    _require(_is_ints(lowering) and all(1 <= i <= rank for i in lowering)
             and all(a < b for a, b in zip(lowering, lowering[1:])), "lowering")
    weights = obj["weights"]
    _require(isinstance(weights, list) and all(_is_ints(w, rank) for w in weights)
             and weights[:1] == [obj["highest_weight"]], "weights")
    dim = len(weights)
    mats = {}
    for name, sign in (("E", 1), ("F", -1)):
        table = obj[name]
        _require(isinstance(table, dict)
                 and sorted(table) == sorted(str(i) for i in lowering), name)
        mats[name] = {int(i): _mat_from_json(mj, f"{name}[{i}]", (dim, dim))
                      for i, mj in table.items()}
        # an edited weight would otherwise reach check_serre's q-integers
        for i, mat in mats[name].items():
            alpha = cd.alpha_fundamental(i)
            _require(all(wr == wc + sign * a for r, c in mat.data
                         for wr, wc, a in zip(weights[r], weights[c], alpha)),
                     f"{name}[{i}] weights")
    constructions = obj["constructions"]
    _require(isinstance(constructions, list) and len(constructions) == dim
             and constructions[:1] == [[]], "constructions")
    for entry in constructions:
        _require(isinstance(entry, list)
                 and all(isinstance(t, list) and len(t) == 3 and _is_ints(t[:2])
                         for t in entry), "constructions")
    constructions = [[(p, i, _rf_field(t, "constructions")) for p, i, t in entry]
                     for entry in constructions]
    # adjointness gives g_s F_i[s, p] = g_p E_i[p, s] on the edge to the
    # parent, so the step ratio g_s / g_p is E_i[p, s] / F_i[s, p]
    ratios = [RF_ONE]
    for s, entry in enumerate(constructions[1:], 1):
        # the step ratios climb to the parent, which must be an earlier
        # vector one simple root up
        _require(entry, "constructions")
        p, i, _ = entry[-1]
        _require(0 <= p < s and i in lowering and all(
            wp == ws + a for wp, ws, a in zip(weights[p], weights[s], cd.alpha_fundamental(i))),
            "construction parent")
        x, y = mats["E"][i].data.get((p, s)), mats["F"][i].data.get((s, p))
        _require(x and y, "construction edge")
        ratios.append(x / y)
    return IrrepModule(
        cd,
        tuple(obj["highest_weight"]),
        tuple(lowering),
        [tuple(w) for w in weights],
        mats["E"],
        mats["F"],
        ratios,
        constructions,
    )
