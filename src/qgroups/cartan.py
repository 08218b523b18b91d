"""Cartan data, weights and Weyl-group computations for small-rank types.

Weights live in fundamental coordinates (integer tuples); roots are kept in
simple-root coordinates.  The supported types are hard-coded data tables for
A1, A2, A3 and B2 (Bourbaki numbering, so for B2 the first simple root is
long).  The symmetrizers d_i satisfy (alpha_i, alpha_i) = 2 d_i.

Each CartanData carries an integer form of the inner product: with D the
least common denominator of the inverse Cartan matrix, D (lam, mu) =
lam^T G mu for an integer matrix G.  The Weyl-dimension and Freudenthal
oracles run on it in Python ints only, and stay independent of the deformed
layers.  Freudenthal's recursion runs at dominant weights and copies onto
their Weyl orbits (Moody-Patera, Bull. AMS 7, 1982).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class CartanData:
    """Rank, Cartan matrix, symmetrizers, positive roots, 2*rho, highest root.

    Also the integer form: ``denom`` D, ``gram`` G and ``root_forms``, which
    maps each subsystem theta, a sorted tuple of simple indices, to the forms
    of its positive roots alpha (those supported on theta): alpha's
    fundamental coordinates, the coefficients alpha_j d_j of (., alpha),
    (alpha, alpha) and alpha's height.  ``cartan_data`` shares one instance
    per type; do not mutate it.
    """

    __slots__ = (
        "letter",
        "rank",
        "cartan",
        "d",
        "positive_roots",
        "two_rho",
        "highest_root",
        "denom",
        "gram",
        "root_forms",
        "_inv_scaled",
    )

    def __init__(self, letter, rank, cartan, d, positive_roots, highest_root):
        self.letter = letter
        self.rank = rank
        self.cartan = tuple(tuple(row) for row in cartan)
        self.d = tuple(d)
        self.positive_roots = tuple(tuple(r) for r in positive_roots)
        self.two_rho = tuple(
            sum(root[i] for root in self.positive_roots) for i in range(rank)
        )
        self.highest_root = tuple(highest_root)
        # C^-1 = adj(C) / det(C), reduced to the least common denominator
        det = _det(self.cartan)
        adj = [[(-1) ** (i + j) * _det(_minor(self.cartan, j, i)) for j in range(rank)]
               for i in range(rank)]
        g = gcd(det, *(x for row in adj for x in row))
        self.denom = det // g
        self._inv_scaled = tuple(tuple(x // g for x in row) for row in adj)
        self.gram = tuple(
            tuple(self.d[i] * x for x in row) for i, row in enumerate(self._inv_scaled)
        )
        forms = []
        for root in self.positive_roots:
            af = self.root_to_fundamental(root)
            ad = tuple(c * dj for c, dj in zip(root, self.d))
            forms.append((root, (af, ad, sum(a * x for a, x in zip(ad, af)), sum(root))))
        subsets = [tuple(j for j in range(1, rank + 1) if mask >> (j - 1) & 1)
                   for mask in range(1 << rank)]
        self.root_forms = {
            theta: tuple(form for root, form in forms
                         if all(c == 0 or j + 1 in theta for j, c in enumerate(root)))
            for theta in subsets
        }

    @property
    def name(self):
        return f"{self.letter}{self.rank}"

    def simple_indices(self):
        return tuple(range(1, self.rank + 1))

    def root_to_fundamental(self, root):
        """Fundamental coordinates of sum(c_j alpha_j): component i is sum_j a_ij c_j."""
        return tuple(
            sum(self.cartan[i][j] * root[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def fundamental_to_root(self, w):
        """Simple-root coordinates C^-1 w of a weight, as ints; None when w is
        not in the root lattice."""
        out = []
        for row in self._inv_scaled:
            c, rem = divmod(sum(x * y for x, y in zip(row, w)), self.denom)
            if rem:
                return None
            out.append(c)
        return tuple(out)

    def alpha_fundamental(self, i):
        """Fundamental coordinates of the simple root alpha_i (1-based i)."""
        return tuple(self.cartan[k][i - 1] for k in range(self.rank))

    def to_json(self):
        return {
            "type": self.letter,
            "rank": self.rank,
            "cartan": [list(r) for r in self.cartan],
            "d": list(self.d),
            "positive_roots": [list(r) for r in self.positive_roots],
            "two_rho": list(self.two_rho),
            "highest_root": list(self.highest_root),
        }

    def __repr__(self):
        return f"CartanData({self.name})"


def _minor(a, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i]


def _det(a):
    """Determinant by cofactor expansion (the matrices here have rank <= 3)."""
    if not a:
        return 1
    return sum((-1) ** j * x * _det(_minor(a, 0, j)) for j, x in enumerate(a[0]))


_TABLES = {
    "A1": dict(
        cartan=[[2]],
        d=[1],
        positive_roots=[(1,)],
        highest_root=(1,),
    ),
    "A2": dict(
        cartan=[[2, -1], [-1, 2]],
        d=[1, 1],
        positive_roots=[(1, 0), (0, 1), (1, 1)],
        highest_root=(1, 1),
    ),
    "A3": dict(
        cartan=[[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        d=[1, 1, 1],
        positive_roots=[
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 0), (0, 1, 1), (1, 1, 1),
        ],
        highest_root=(1, 1, 1),
    ),
    "B2": dict(
        cartan=[[2, -1], [-2, 2]],
        d=[2, 1],
        positive_roots=[(1, 0), (0, 1), (1, 1), (1, 2)],
        highest_root=(1, 2),
    ),
}


# one shared instance per type, so the integer form is built once
_DATA = {
    name: CartanData(name[0], int(name[1:]), t["cartan"], t["d"], t["positive_roots"],
                     t["highest_root"])
    for name, t in _TABLES.items()
}


def cartan_data(name: str) -> CartanData:
    """Look up a supported type by its name, e.g. "A2"."""
    name = name.strip().upper()
    if name not in _DATA:
        supported = ", ".join(sorted(_TABLES))
        raise ValueError(f"unsupported algebra {name!r} (supported: {supported})")
    return _DATA[name]


SUPPORTED_TYPES = tuple(sorted(_TABLES))


# --- weight operations (weights are integer tuples in fundamental coords) ---


def inner_scaled(cd: CartanData, lam, mu) -> int:
    """D (lam, mu), an integer, for the normalization (a_i, a_i) = 2 d_i."""
    return sum(x * g * y for x, row in zip(lam, cd.gram) for g, y in zip(row, mu))


def reflect(cd: CartanData, lam, i):
    """Simple reflection s_i in fundamental coordinates (1-based i)."""
    c = lam[i - 1]
    alpha = cd.alpha_fundamental(i)
    return tuple(lam[k] - c * alpha[k] for k in range(cd.rank))


def is_dominant(lam, theta=None) -> bool:
    """Whether lam_j >= 0 for every j in theta (1-based; default: every index)."""
    if theta is None:
        return all(c >= 0 for c in lam)
    return all(lam[j - 1] >= 0 for j in theta)


def _require_dominant(lam, theta=None):
    if not is_dominant(lam, theta):
        where = "" if theta is None else f" for theta {tuple(theta)}"
        raise ValueError(f"weight {tuple(lam)} is not dominant{where}")


def _subsystem(cd: CartanData, theta):
    """The root forms of the subsystem theta (default: all of g)."""
    return cd.root_forms[cd.simple_indices() if theta is None else tuple(sorted(theta))]


def reflect_to_antidominant(cd: CartanData, mu, theta):
    """Apply the simple reflections s_j, j in theta, until mu_j <= 0 for all j in theta."""
    cur = tuple(mu)
    while True:
        for j in theta:
            if cur[j - 1] > 0:
                cur = reflect(cd, cur, j)
                break
        else:
            return cur


def lowest_weight(cd: CartanData, lam, theta=None):
    """Lowest weight of the irreducible module of highest weight lam for the
    subsystem theta (default: all of g): the image of lam under the longest
    element of W_theta."""
    _require_dominant(lam, theta)
    return reflect_to_antidominant(cd, lam, cd.simple_indices() if theta is None else theta)


def dual_weight(cd: CartanData, lam):
    """Highest weight of the dual module: minus the lowest weight of lam's."""
    return tuple(-c for c in lowest_weight(cd, lam))


def dominant_orbit_rep(cd: CartanData, mu):
    """Dominant representative of the Weyl orbit plus the reflection word used.

    Applying the returned word left to right to mu reproduces the dominant
    representative.
    """
    word = []
    cur = tuple(mu)
    while True:
        for i in range(cd.rank):
            if cur[i] < 0:
                cur = reflect(cd, cur, i + 1)
                word.append(i + 1)
                break
        else:
            return cur, tuple(word)


def weyl_dim(cd: CartanData, lam, theta=None) -> int:
    """Classical Weyl dimension of the irreducible module of highest weight
    lam for the subsystem theta (default: all of g): the product over its
    positive roots alpha of (lam + rho_theta, alpha) / (rho_theta, alpha).
    A weight that is not theta-dominant raises ``ValueError``."""
    _require_dominant(lam, theta)
    num = den = 1
    for _, ad, _, _ in _subsystem(cd, theta):
        rho_alpha = sum(ad)   # (rho_theta, alpha_j^vee) = 1 for every j in theta
        num *= rho_alpha + sum(a * x for a, x in zip(ad, lam))
        den *= rho_alpha
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise ArithmeticError(f"Weyl dimension came out as {Fraction(num, den)}")
    return dim


def weight_multiplicities(cd: CartanData, lam) -> dict:
    """Weight multiplicities of the classical module, by Freudenthal recursion.

    Serves as the independent oracle for the weight-space decomposition of
    the deformed modules.
    """
    _require_dominant(lam)
    return freudenthal(cd, lam, cd.simple_indices())


def freudenthal(cd: CartanData, lam, theta) -> dict:
    """Weight multiplicities of the irreducible module of highest weight lam
    for the subsystem with simple roots theta (1-based): the module of g for
    all indices, a Levi irreducible (lam theta-dominant) otherwise.

    Freudenthal's recursion with the positive roots supported on theta and
    their half sum rho_theta, every norm multiplied by D, so that all terms
    are ints.  A candidate at depth L below lam only looks up root strings
    with k <= L // ht(alpha): weights above lam have multiplicity 0.  As
    multiplicities are constant on W_theta-orbits (Moody-Patera), it runs at
    theta-dominant weights only and gives each result to the orbit; every
    other weight lies below its dominant conjugate, so it is known by then.
    """
    lam = tuple(lam)
    roots = _subsystem(cd, theta)
    low = reflect_to_antidominant(cd, lam, theta)
    coords = cd.fundamental_to_root([a - b for a, b in zip(lam, low)])
    if coords is None:
        raise ArithmeticError("non-integral height bound")
    height = sum(coords)

    gram = cd.gram
    two_rho = [sum(r[0][t] for r in roots) for t in range(cd.rank)]
    lin = [sum(g * x for g, x in zip(row, two_rho)) for row in gram]

    def norm(w):
        # D |w + rho_theta|^2, up to a constant that cancels in the differences
        return sum(x * (c + sum(g * y for g, y in zip(row, w)))
                   for x, c, row in zip(w, lin, gram))

    top = norm(lam)
    alphas = [cd.alpha_fundamental(j) for j in theta]
    mults = {}

    def settle(mu, m):   # give m to the whole W_theta-orbit of mu
        mults[mu], orbit = m, [mu]
        for w in orbit:   # grows while it is walked
            for u in (reflect(cd, w, j) for j in theta if w[j - 1]):
                if u not in mults:
                    mults[u] = m
                    orbit.append(u)

    settle(lam, 1)
    level = {lam}
    for depth in range(1, height + 1):
        candidates = {tuple([x - y for x, y in zip(w, a)]) for w in level for a in alphas}
        for mu in candidates:
            if mu in mults or not is_dominant(mu, theta):
                continue   # known from its dominant conjugate, or not a weight
            total = 0
            for af, ad, aa, ht in roots:
                nu = mu
                pair = sum(a * x for a, x in zip(ad, mu))  # (mu + k alpha, alpha)
                for _ in range(depth // ht):
                    nu = tuple([x + y for x, y in zip(nu, af)])
                    pair += aa
                    m = mults.get(nu)
                    if m:
                        total += m * pair
            if not total:
                continue
            denom = top - norm(mu)
            if not denom:
                raise ArithmeticError("Freudenthal denominator vanished")
            m, rem = divmod(2 * cd.denom * total, denom)
            if rem:
                raise ArithmeticError("non-integral Freudenthal multiplicity")
            if m < 0:
                raise ArithmeticError(f"negative Freudenthal multiplicity {m}")
            settle(mu, m)
        level = {mu for mu in candidates if mu in mults}
    return mults


def character_product(cd: CartanData, lam, mu) -> dict:
    """Formal product of two characters as a weight-multiplicity dict."""
    ml = weight_multiplicities(cd, lam)
    mm = weight_multiplicities(cd, mu)
    out = {}
    for w1, m1 in ml.items():
        for w2, m2 in mm.items():
            w = tuple(a + b for a, b in zip(w1, w2))
            out[w] = out.get(w, 0) + m1 * m2
    return out


def peel_characters(cd: CartanData, character: dict, theta) -> dict:
    """Split a formal character {weight: multiplicity} into irreducible
    characters of the subsystem theta: {highest weight: multiplicity}.

    A weight of maximal height left is theta-dominant and leads an
    irreducible character; its multiple is subtracted (Freudenthal for
    theta) until nothing is left.  Fully independent of the deformed theory.
    """
    remaining = {w: m for w, m in character.items() if m}
    rho = (1,) * cd.rank
    out = {}
    while remaining:
        lead = max(remaining, key=lambda w: (inner_scaled(cd, w, rho), w))
        if not is_dominant(lead, theta):
            raise ArithmeticError(f"leading weight {lead} not dominant for {tuple(theta)}")
        mult = remaining[lead]
        if mult < 0:
            raise ArithmeticError("negative multiplicity in character subtraction")
        out[lead] = out.get(lead, 0) + mult
        for w, m in freudenthal(cd, lead, theta).items():
            left = remaining.get(w, 0) - mult * m
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
    return out


def char_decompose_oracle(cd: CartanData, lam, mu) -> dict:
    """Tensor-product decomposition {nu: multiplicity} by character arithmetic:
    the product of the two characters, peeled into irreducible ones."""
    return peel_characters(cd, character_product(cd, lam, mu), cd.simple_indices())
