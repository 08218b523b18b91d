"""Reductive and parabolic subalgebras: branching and intertwiner spaces.

A subalgebra is selected by a subset Theta of the simple-root indices.  The
reductive (Levi) part is generated by the full torus plus e_j, f_j for j in
Theta; the parabolic part adds the remaining raising generators, which act
by zero on any irreducible module of the Levi part.

Levi irreducibles are labeled by their full torus character (all Cartan
eigenvalues), not just the Theta components, because intertwiner existence
depends on the complete weight.  They are built with the same machinery as
the full modules, restricted to lowering indices in Theta.
"""

from __future__ import annotations

from .cartan import CartanData, lowest_weight, peel_characters, weight_multiplicities
# kernel_basis is called through intertwiner_kernel; perfbench's tracer test
# checks that this module's binding of it gets wrapped, so the name stays bound
from .linalg import Mat, intertwiner_kernel, kernel_basis  # noqa: F401
from .scalar import Memo
from .tensor import canonical_blocks
from .uqrep import IrrepCache, IrrepModule


def _subalgebra(key):
    """The complement of Theta in 1..rank and the generator tuples of both
    flavors."""
    rank, theta = key
    complement = tuple(j for j in range(1, rank + 1) if j not in theta)
    levi = tuple([(kind, i) for i in range(1, rank + 1) for kind in "kK"]
                 + [("e", j) for j in theta] + [("f", j) for j in theta])
    return complement, {"levi": levi, "parabolic": levi + tuple(("e", j) for j in complement)}


# built once per (rank, Theta): the checks read the generators per section or
# function, and a ParabolicData is made per case
_SUBALGEBRAS = Memo(_subalgebra)


class ParabolicData:
    """Subset Theta plus the generator bookkeeping derived from it."""

    __slots__ = ("cd", "theta", "complement", "_generators")

    def __init__(self, cd: CartanData, theta):
        theta = tuple(sorted(set(theta)))
        for j in theta:
            if not 1 <= j <= cd.rank:
                raise ValueError(f"index {j} outside 1..{cd.rank}")
        self.cd = cd
        self.theta = theta
        self.complement, self._generators = _SUBALGEBRAS[cd.rank, theta]

    def generators(self, flavor="levi"):
        """Generators of the reductive ("levi") or parabolic ("parabolic")
        subalgebra as (kind, index) pairs: the torus, then e_j and f_j for j
        in Theta, and for "parabolic" the raising e_j outside Theta too.  Any
        other flavor raises ``ValueError``."""
        gens = self._generators.get(flavor)
        if gens is None:
            raise ValueError(f"unknown flavor {flavor!r}")
        return gens

    def __repr__(self):
        return f"ParabolicData({self.cd.name}, theta={self.theta})"


def levi_lowest_weight(p: ParabolicData, mu):
    """Lowest weight of the Levi irreducible with highest weight mu."""
    return lowest_weight(p.cd, mu, p.theta)


def branching_oracle(cd: CartanData, p: ParabolicData, lam) -> dict:
    """Classical branching multiplicities {levi_hw: mult} by character arithmetic."""
    return peel_characters(cd, weight_multiplicities(cd, lam), p.theta)


class LeviBranching:
    """Decomposition of a module under the Levi subalgebra.

    summands: list of (mu, levi_module, columns) where columns are the images
    of the Levi-canonical basis inside the big module, as sparse vectors.
    """

    __slots__ = ("module", "p", "summands")

    def __init__(self, module, p, summands):
        self.module = module
        self.p = p
        self.summands = summands

    def multiplicities(self) -> dict:
        out = {}
        for mu, _, _ in self.summands:
            out[mu] = out.get(mu, 0) + 1
        return out

    def total_dim(self) -> int:
        return sum(lm.dim for _, lm, _ in self.summands)

    def __repr__(self):
        return f"LeviBranching({self.multiplicities()})"


def restrict_levi(m: IrrepModule, p: ParabolicData, cache: IrrepCache) -> LeviBranching:
    """Complete decomposition of a module under the Levi subalgebra."""
    return LeviBranching(m, p, canonical_blocks(m, p.theta, cache))


class HomBasis:
    """Basis of an intertwiner space as explicit matrices target x source."""

    __slots__ = ("source", "target", "flavor", "maps")

    def __init__(self, source, target, flavor, maps):
        self.source = source
        self.target = target
        self.flavor = flavor
        self.maps = maps

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def to_json(self):
        from .uqrep import _mat_to_json

        return {
            "source": list(self.source.hw),
            "target": list(self.target.hw),
            "target_lowering": list(self.target.lowering),
            "flavor": self.flavor,
            "maps": [_mat_to_json(phi) for phi in self.maps],
        }

    def __repr__(self):
        return f"HomBasis({self.flavor}, dim={len(self.maps)})"


def hom_space(m: IrrepModule, target: IrrepModule, p: ParabolicData,
              flavor: str = "levi") -> HomBasis:
    """Solve the intertwining equations phi x = x phi over the chosen subalgebra.

    flavor "levi" uses the reductive generators, "parabolic" additionally
    imposes the raising generators outside Theta (acting on the target
    through e_matrix, which is zero for proper Levi modules and the honest
    action when the target is the restriction of a full module); any other
    flavor raises ``ValueError``.
    """
    # the torus is imposed by the unknowns: entries (a, w) with matching full
    # torus character
    gens = [g for g in p.generators(flavor) if g[0] in "ef"]
    tgt_spaces = target.weight_spaces()
    unknowns = sorted((a, w_idx) for w_idx, w in enumerate(m.weights)
                      for a in tgt_spaces.get(w, ()))
    # phi Mw = Mv phi on each generator
    kern = intertwiner_kernel(
        unknowns, [(target.gen_matrix(g), m.gen_matrix(g)) for g in gens])
    maps = [Mat(target.dim, m.dim, vec) for vec in kern]
    return HomBasis(m, target, flavor, maps)


def central_hom_count(p: ParabolicData, cache: IrrepCache) -> int:
    """Number of independent Levi intertwiners from the adjoint-type module
    (highest root) to the trivial character; equals rank minus |Theta|."""
    cd = p.cd
    gamma = cd.root_to_fundamental(cd.highest_root)
    m = cache.irrep(cd, gamma)
    trivial = cache.levi(cd, p.theta, (0,) * cd.rank)
    return len(hom_space(m, trivial, p, "levi"))
