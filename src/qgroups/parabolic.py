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

from .cartan import (
    CartanData,
    freudenthal,
    inner_scaled,
    reflect_to_antidominant,
    weight_multiplicities,
)
# kernel_basis is called through raising_kernel, but perfbench's tracer test
# checks that this module's binding of it gets wrapped, so the name stays bound
from .linalg import (  # noqa: F401
    Mat,
    index_applier,
    intertwiner_kernel,
    kernel_basis,
    raising_kernel,
)
from .uqrep import IrrepCache, IrrepModule


class ParabolicData:
    """Subset Theta plus the generator bookkeeping derived from it."""

    __slots__ = ("cd", "theta")

    def __init__(self, cd: CartanData, theta):
        theta = tuple(sorted(set(theta)))
        for j in theta:
            if not 1 <= j <= cd.rank:
                raise ValueError(f"index {j} outside 1..{cd.rank}")
        self.cd = cd
        self.theta = theta

    @property
    def complement(self):
        return tuple(j for j in range(1, self.cd.rank + 1) if j not in self.theta)

    def levi_generators(self):
        """Generators of the reductive subalgebra, as (kind, index) pairs."""
        gens = []
        for i in range(1, self.cd.rank + 1):
            gens.append(("k", i))
            gens.append(("K", i))
        for j in self.theta:
            gens.append(("e", j))
            gens.append(("f", j))
        return gens

    def parabolic_generators(self):
        return self.levi_generators() + [("e", j) for j in self.complement]

    def __repr__(self):
        return f"ParabolicData({self.cd.name}, theta={self.theta})"


def levi_lowest_weight(p: ParabolicData, mu):
    """Lowest weight of the Levi irreducible with highest weight mu."""
    for j in p.theta:
        if mu[j - 1] < 0:
            raise ValueError(f"{mu} is not Theta-dominant for {p.theta}")
    return reflect_to_antidominant(p.cd, mu, p.theta)


def levi_weight_multiplicities(p: ParabolicData, mu) -> dict:
    """Freudenthal recursion inside the Theta subsystem, ambient coordinates."""
    for j in p.theta:
        if mu[j - 1] < 0:
            raise ValueError(f"{mu} is not Theta-dominant")
    return freudenthal(p.cd, mu, p.theta)


def branching_oracle(cd: CartanData, p: ParabolicData, lam) -> dict:
    """Classical branching multiplicities {levi_hw: mult} by character arithmetic."""
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
    action when the target is the restriction of a full module).
    """
    if flavor not in ("levi", "parabolic"):
        raise ValueError(f"unknown flavor {flavor!r}")
    # unknowns: entries (a, w) with matching full torus character
    tgt_spaces = target.weight_spaces()
    unknowns = sorted((a, w_idx) for w_idx, w in enumerate(m.weights)
                      for a in tgt_spaces.get(w, ()))
    gens = [("e", j) for j in p.theta] + [("f", j) for j in p.theta]
    if flavor == "parabolic":
        gens += [("e", j) for j in p.complement]
    # phi Mw = Mv phi on each generator
    kern = intertwiner_kernel(
        unknowns, [(target.gen_matrix(g), m.gen_matrix(g)) for g in gens])
    maps = [Mat(target.dim, m.dim, vec) for vec in kern]
    return HomBasis(m, target, flavor, maps)


def check_intertwiner(phi: Mat, m: IrrepModule, target: IrrepModule,
                      p: ParabolicData, flavor: str) -> bool:
    """Exact re-verification of the intertwining equations for one map."""
    gens = [("k", i) for i in range(1, p.cd.rank + 1)]
    gens += [("e", j) for j in p.theta] + [("f", j) for j in p.theta]
    if flavor == "parabolic":
        gens += [("e", j) for j in p.complement]
    for gen in gens:
        if (phi @ m.gen_matrix(gen)) != (target.gen_matrix(gen) @ phi):
            return False
    return True


def tensor_hom(alg, p: ParabolicData, phi1: Mat, src1: IrrepModule, tgt1: IrrepModule,
               phi2: Mat, src2: IrrepModule, tgt2: IrrepModule):
    """Induced intertwiner on highest-weight sums.

    Composes the inclusion of the top tensor component with phi1 (x) phi2 and
    the Levi projection onto the top component of the target product.  The
    result is a nonzero intertwiner from the module of weight hw1 + hw2 to
    the Levi module of weight mu1 + mu2; a zero composite raises.
    """
    from .tensor import decompose, tensor_module

    cd = p.cd
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
            for (r, c), x in cg_tgt.basis_inv.data.items():
                if off <= r < off + canon.dim:
                    proj.data[(r - off, c)] = x
            break
    if proj is None:
        raise ArithmeticError("top component missing from target product")

    composite = proj @ phi1.kron(phi2) @ incl
    if composite.is_zero():
        raise ArithmeticError("induced intertwiner vanished")
    return composite


def central_hom_count(p: ParabolicData, cache: IrrepCache) -> int:
    """Number of independent Levi intertwiners from the adjoint-type module
    (highest root) to the trivial character; equals rank minus |Theta|."""
    cd = p.cd
    gamma = cd.root_to_fundamental(cd.highest_root)
    m = cache.irrep(cd, gamma)
    trivial = cache.levi(cd, p.theta, (0,) * cd.rank)
    return len(hom_space(m, trivial, p, "levi"))
