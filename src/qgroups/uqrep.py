"""Finite-dimensional highest-weight modules of the quantized enveloping algebra.

Modules are built as explicit generator matrices over Q(v).  Starting from
the highest-weight vector, lowering operators are applied level by level;
within each weight space the contravariant form (the bilinear form with
(x u, w) = (u, x* w) for the compact star structure e* = f, f* = e, k* = k)
is computed recursively, dependent vectors are discarded and the survivors
are Gram-Schmidt orthogonalized.  Because the specialized form is positive
definite for real v > 0, v != 1, a vector is zero in the module exactly when
its self-pairing vanishes, so the procedure lands on the irreducible module
with a per-weight orthogonal basis and a diagonal Gram matrix.

The same machinery builds modules of a reductive (Levi) subalgebra by
restricting the set of lowering indices.

Conventions (the single convention ledger for everything downstream):
the Cartan generator k_i acts on a weight-mu vector by v^(mu, alpha_i),
k_i e_j k_i^-1 = v^(alpha_i, alpha_j) e_j, and the antipode has
S(e_i) = -q_i e_i, S(f_i) = -q_i^-1 f_i, S(k_i) = k_i^-1 with q_i = v^(2 d_i).
"""

from __future__ import annotations

from .cache import CacheIntegrityError
from .cartan import CartanData
from .linalg import Mat, accumulate
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

    @classmethod
    def unit(cls):
        return cls({(): RF_ONE})

    @classmethod
    def of_gen(cls, gen, coeff=RF_ONE):
        return cls({(gen,): coeff})

    @classmethod
    def of_word(cls, *gens):
        return cls({tuple(gens): RF_ONE})

    def __add__(self, other):
        return AlgebraWord(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-RF_ONE)

    def scale(self, c: RationalFunction):
        return AlgebraWord({w: c * x for w, x in self.terms.items()})

    def __mul__(self, other):
        return AlgebraWord(accumulate({}, ((w1 + w2, c1 * c2) for w1, c1 in self.terms.items()
                                           for w2, c2 in other.terms.items())))

    def __eq__(self, other):
        return isinstance(other, AlgebraWord) and self.terms == other.terms

    def __repr__(self):
        return f"AlgebraWord({self.terms})"


def _q_i(cd: CartanData, i) -> RationalFunction:
    return RationalFunction.v_power(2 * cd.d[i - 1])


def _q_i_inv(cd: CartanData, i) -> RationalFunction:
    return RationalFunction.v_power(-2 * cd.d[i - 1])


def counit(cd: CartanData, x: AlgebraWord) -> RationalFunction:
    total = RF_ZERO
    for word, c in x.terms.items():
        if all(g[0] in ("k", "K") for g in word):
            total = total + c
    return total


_ANTIPODE = {
    "e": lambda cd, i: ("e", -_q_i(cd, i)),
    "f": lambda cd, i: ("f", -_q_i_inv(cd, i)),
    "k": lambda cd, i: ("K", RF_ONE),
    "K": lambda cd, i: ("k", RF_ONE),
}

_ANTIPODE_INV = {
    "e": lambda cd, i: ("e", -_q_i_inv(cd, i)),
    "f": lambda cd, i: ("f", -_q_i(cd, i)),
    "k": lambda cd, i: ("K", RF_ONE),
    "K": lambda cd, i: ("k", RF_ONE),
}

# theta = (compact star) after the antipode: an algebra homomorphism
_CARTAN_INVOLUTION = {
    "e": lambda cd, i: ("f", -_q_i(cd, i)),
    "f": lambda cd, i: ("e", -_q_i_inv(cd, i)),
    "k": lambda cd, i: ("K", RF_ONE),
    "K": lambda cd, i: ("k", RF_ONE),
}


def _map_word(cd, x: AlgebraWord, table, reverse) -> AlgebraWord:
    out = {}
    for word, c in x.terms.items():
        gens = []
        coeff = c
        src = reversed(word) if reverse else word
        for kind, i in src:
            new_kind, factor = table[kind](cd, i)
            gens.append((new_kind, i))
            coeff = coeff * factor
        out[tuple(gens)] = coeff  # the map on words is one-to-one
    return AlgebraWord(out)


def antipode_word(cd, x: AlgebraWord) -> AlgebraWord:
    return _map_word(cd, x, _ANTIPODE, reverse=True)


def antipode_inv_word(cd, x: AlgebraWord) -> AlgebraWord:
    return _map_word(cd, x, _ANTIPODE_INV, reverse=True)


def cartan_involution_word(cd, x: AlgebraWord) -> AlgebraWord:
    return _map_word(cd, x, _CARTAN_INVOLUTION, reverse=False)


def _leg_pairs(word) -> tuple:
    """The leg pairs (word_left, word_right) of the coproduct of one word.

    Delta(e_i) = e_i (x) k_i + k_i^-1 (x) e_i, Delta(f_i) likewise, the
    Cartan generators are grouplike.  Every piece has coefficient one.  A leg
    word recurs in the legs of many words and is kept once.
    """
    legs = [((), ())]
    for kind, i in word:
        if kind in ("e", "f"):
            pieces = ((((kind, i),), (("k", i),)), ((("K", i),), ((kind, i),)))
        else:
            pieces = ((((kind, i),), ((kind, i),)),)
        legs = [(w1 + p1, w2 + p2) for w1, w2 in legs for p1, p2 in pieces]
    words = _LEG_WORDS
    return tuple(tuple(words[w] for w in pair) for pair in legs)


# leg pairs of the coproduct of each word, and one stored copy of each leg word
_LEGS = Memo(_leg_pairs)
_LEG_WORDS = Memo(lambda w: w)


def _coproduct_legs(word) -> tuple:
    """The leg pairs of one word; they depend on the word alone, so they are
    memoized under it."""
    return _LEGS[word]


def coproduct_word(cd, x: AlgebraWord) -> dict:
    """Coproduct as {(word_left, word_right): coefficient}.

    A leg pair determines its word (at each position an e or f stands on one
    leg, or both legs carry the same Cartan generator), so the pairs of
    different words are distinct and each carries its word's coefficient.
    """
    return {key: c for word, c in x.terms.items() for key in _coproduct_legs(word)}


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


class IrrepModule:
    """Irreducible highest-weight module given by explicit sparse matrices.

    ``lowering`` is the tuple of simple-root indices whose e/f generators act
    nontrivially; the full algebra uses all of 1..rank, a Levi subalgebra a
    subset.  Cartan generators always act, diagonally, via the stored weights.
    ``constructions[s]`` expresses basis vector s as a combination of lowered
    earlier vectors: a list of (parent_index, lowering_index, coefficient).
    It lets the same basis be rebuilt inside any other module from a chosen
    highest-weight vector, which is how intertwiners are produced downstream.
    """

    __slots__ = ("cd", "hw", "lowering", "dim", "weights", "E", "F", "gram",
                 "constructions", "_kmats")

    def __init__(self, cd, hw, lowering, weights, E, F, gram, constructions):
        self.cd = cd
        self.hw = tuple(hw)
        self.lowering = tuple(lowering)
        self.weights = [tuple(w) for w in weights]
        self.dim = len(self.weights)
        self.E = E
        self.F = F
        self.gram = gram
        self.constructions = constructions
        weights, d = self.weights, cd.d

        def k_diag(key):
            # k_i (or its inverse) is diagonal: v^(+-d_i wt_i) on each basis vector
            i, inverse = key
            sign = -1 if inverse else 1
            return Mat.diag(RationalFunction.v_power(sign * w[i - 1] * d[i - 1]) for w in weights)

        # the maker holds the weights, not the module: no reference cycle
        self._kmats = Memo(k_diag)

    def k_matrix(self, i, inverse=False) -> Mat:
        return self._kmats[i, inverse]

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


def _weight_key(w):
    # deterministic group order inside a level: lexicographically descending
    return tuple(-c for c in w)


def build_module(cd: CartanData, hw, lowering) -> IrrepModule:
    """Shared builder; see the module docstring for the algorithm."""
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
        for w in sorted(groups, key=_weight_key):
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
    return IrrepModule(cd, hw, lowering, weights, E, F, gram, constructions)


def build_irrep(cd: CartanData, hw) -> IrrepModule:
    """Irreducible module of the full algebra with dominant highest weight."""
    if any(c < 0 for c in hw):
        raise ValueError(f"highest weight {tuple(hw)} is not dominant")
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


def check_serre(m: IrrepModule) -> list:
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
            for kind, sign, p in (("e", "", pairing), ("f", "-", -pairing)):
                vp = RationalFunction.v_power(p)
                x = m.gen_matrix((kind, j)).data
                record(f"k{i} {kind}{j} k{i}^-1 = v^({sign}{pairing}) {kind}{j}",
                       both and all(ki[r] * y * kiv[c] == vp * y for (r, c), y in x.items()))

    for i in idx:
        ei = m.e_matrix(i)
        for j in idx:
            ej, fj = m.e_matrix(j), m.f_matrix(j)
            lhs = (ei @ fj) - (fj @ ei)
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
    """Shared store of built modules, keyed by algebra, weight and lowering set."""

    def __init__(self):
        self._store = Memo(lambda key: build_module(*key))

    def irrep(self, cd: CartanData, hw) -> IrrepModule:
        return self._store[cd, tuple(hw), tuple(range(1, cd.rank + 1))]

    def levi(self, cd: CartanData, theta, hw) -> IrrepModule:
        return self._store[cd, tuple(hw), tuple(sorted(theta))]


def _mat_to_json(m: Mat):
    return {
        "shape": [m.nrows, m.ncols],
        "entries": [[r, c, rf_to_text(x)] for (r, c), x in sorted(m.data.items())],
    }


# names the layout of irrep_to_json payloads; change it with the layout
IRREP_SCHEMA = "qgroups-irrep/1"


def irrep_to_json(m: IrrepModule) -> dict:
    return {
        "algebra": m.cd.name,
        "highest_weight": list(m.hw),
        "lowering": list(m.lowering),
        "weights": [list(w) for w in m.weights],
        "E": {str(i): _mat_to_json(mat) for i, mat in sorted(m.E.items())},
        "F": {str(i): _mat_to_json(mat) for i, mat in sorted(m.F.items())},
        "gram": [rf_to_text(g) for g in m.gram],
        "constructions": [
            [[p, i, rf_to_text(c)] for p, i, c in entry] for entry in m.constructions
        ],
    }


_PAYLOAD_KEYS = ("algebra", "highest_weight", "lowering", "weights", "E", "F",
                 "gram", "constructions")


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
    key, a wrong type or size, or text that is not a rational function raises
    CacheIntegrityError.
    """
    _require(isinstance(obj, dict), "not an object")
    missing = [k for k in _PAYLOAD_KEYS if k not in obj]
    _require(not missing, f"missing {', '.join(missing)}")
    _require(obj["algebra"] == cd.name, "algebra mismatch")
    rank = cd.rank
    _require(_is_ints(obj["highest_weight"], rank), "highest_weight")
    lowering = obj["lowering"]
    _require(_is_ints(lowering) and all(1 <= i <= rank for i in lowering), "lowering")
    weights = obj["weights"]
    _require(isinstance(weights, list) and all(_is_ints(w, rank) for w in weights),
             "weights")
    dim = len(weights)
    mats = {}
    for name in ("E", "F"):
        table = obj[name]
        _require(isinstance(table, dict)
                 and sorted(table) == sorted(str(i) for i in lowering), name)
        mats[name] = {int(i): _mat_from_json(mj, f"{name}[{i}]", (dim, dim))
                      for i, mj in table.items()}
    gram = obj["gram"]
    _require(isinstance(gram, list) and len(gram) == dim, "gram")
    constructions = obj["constructions"]
    _require(isinstance(constructions, list) and len(constructions) == dim,
             "constructions")
    for entry in constructions:
        _require(isinstance(entry, list)
                 and all(isinstance(t, list) and len(t) == 3 and _is_ints(t[:2])
                         for t in entry), "constructions")
    return IrrepModule(
        cd,
        tuple(obj["highest_weight"]),
        tuple(lowering),
        [tuple(w) for w in weights],
        mats["E"],
        mats["F"],
        [_rf_field(t, "gram") for t in gram],
        [
            [(p, i, _rf_field(t, "constructions")) for p, i, t in entry]
            for entry in constructions
        ],
    )
