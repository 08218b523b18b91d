"""Tensor products of highest-weight modules and their full decomposition.

The product module carries the generator action through the coproduct
(e acts as e (x) k + k^-1 (x) e, and so on).  Decomposition proceeds by
extracting highest-weight vectors per weight space and regenerating each
isotypic copy with the construction recipe of the canonical module, so the
restricted generator matrices on every block equal the canonical matrices
on the nose, not merely up to isomorphism.

The change of basis back to the product basis is obtained without a generic
matrix inversion: the product of the factors' contravariant forms is again
contravariant, distinct isotypic blocks are orthogonal for it, and inside an
isotypic block the pairing reduces to a small copies-by-copies matrix tensor
the canonical diagonal Gram.
"""

from __future__ import annotations

from .cartan import CartanData, inner
from .linalg import Mat, invert, kernel_basis
from .scalar import RF_ONE, RF_ZERO, RationalFunction
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
        self._E = {}
        self._F = {}

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
        m = self._E.get(i)
        if m is None:
            m = self.a.e_matrix(i).kron(self.b.k_matrix(i)) + self.a.k_matrix(
                i, inverse=True
            ).kron(self.b.e_matrix(i))
            self._E[i] = m
        return m

    def f_matrix(self, i):
        m = self._F.get(i)
        if m is None:
            m = self.a.f_matrix(i).kron(self.b.k_matrix(i)) + self.a.k_matrix(
                i, inverse=True
            ).kron(self.b.f_matrix(i))
            self._F[i] = m
        return m

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

    def gram_diag(self):
        """Diagonal of the product contravariant form."""
        return [ga * gb for ga in self.a.gram for gb in self.b.gram]

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
    nu = tuple(nu)
    idx = [s for s, w in enumerate(t.weights) if w == nu]
    if not idx:
        return []
    rows = []
    for i in t.lowering:
        e = t.e_matrix(i)
        cols = {}
        for (r, c), x in e.data.items():
            if c in idx:
                cols.setdefault(c, {})[r] = x
        touched = sorted({r for col in cols.values() for r in col})
        pos = {r: n for n, r in enumerate(touched)}
        for r in touched:
            rows.append([cols.get(c, {}).get(r, RF_ZERO) for c in idx])
    if not rows:
        rows = [[RF_ZERO] * len(idx)]
    kern = kernel_basis(rows, len(idx))
    return [{idx[k]: x for k, x in vec.items()} for vec in kern]


class CGDecomposition:
    """Full decomposition of a tensor product into canonical blocks.

    components: list of (nu, copies) with copies a list of column index
    offsets into the change-of-basis matrix; basis: Mat whose columns are the
    isotypic basis vectors in product coordinates; basis_inv: its inverse.
    """

    __slots__ = ("t", "components", "basis", "basis_inv", "block_index")

    def __init__(self, t, components, basis, basis_inv, block_index):
        self.t = t
        self.components = components
        self.basis = basis
        self.basis_inv = basis_inv
        self.block_index = block_index

    def multiplicities(self) -> dict:
        return {nu: len(copies) for nu, copies, _ in self.components}

    def __repr__(self):
        mults = ", ".join(f"{nu}:{len(c)}" for nu, c, _ in self.components)
        return f"CGDecomposition({mults})"


def _height_key(cd: CartanData, w):
    rho = (1,) * cd.rank
    return (-inner(cd, w, rho), tuple(-c for c in w))


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

    def f_apply(i, vec):
        return t.f_matrix(i).apply(vec)

    components = []
    basis = Mat(t.dim, t.dim)
    col = 0
    block_index = {}
    for nu in sorted(hwvs, key=lambda w: _height_key(cd, w)):
        if full:
            canon = irrep_cache.irrep(cd, nu)
        else:
            canon = irrep_cache.levi(cd, t.lowering, nu)
        copies = []
        embeddings = []
        for u in hwvs[nu]:
            cols = canon.embed_from_highest(f_apply, u)
            offset = col
            for k, colvec in enumerate(cols):
                basis.set_column(offset + k, colvec)
                block_index[offset + k] = (nu, len(copies), k)
            copies.append(offset)
            embeddings.append(cols)
            col += canon.dim
        components.append((nu, copies, canon))

    if col != t.dim:
        raise ArithmeticError(
            f"isotypic dimensions sum to {col}, product dimension is {t.dim}"
        )

    basis_inv = _invert_by_form(t, components, basis, block_index)
    return CGDecomposition(t, components, basis, basis_inv, block_index)


def _invert_by_form(t, components, basis, block_index):
    gram = t.gram_diag()
    n = t.dim
    # columns grouped per component: pairing of copies via the first canonical
    # basis vector of the block
    inv = Mat(n, n)
    col_of = {}
    for c, key in block_index.items():
        col_of[key] = c
    for nu, copies, canon in components:
        m = len(copies)
        # h[c1][c2] = (phi_c1(w_1), phi_c2(w_1)) / gram_canon[0]
        h = [[RF_ZERO] * m for _ in range(m)]
        for c1 in range(m):
            v1 = basis.column(col_of[(nu, c1, 0)])
            for c2 in range(m):
                v2 = basis.column(col_of[(nu, c2, 0)])
                pair = RF_ZERO
                for r, x in v1.items():
                    y = v2.get(r)
                    if y:
                        pair = pair + x * y * gram[r]
                h[c1][c2] = pair
        hinv = invert(Mat.from_rows(h)) if m > 1 else None
        if m == 1:
            h00 = h[0][0]
            if not h00:
                raise ArithmeticError("degenerate isotypic pairing")
        for c1 in range(m):
            for k in range(canon.dim):
                row = col_of[(nu, c1, k)]
                gk = canon.gram[k]
                for c2 in range(m):
                    factor = (
                        hinv[(c1, c2)] if m > 1 else (RF_ONE / h00 if c1 == c2 else RF_ZERO)
                    )
                    if not factor:
                        continue
                    factor = factor / gk
                    v = basis.column(col_of[(nu, c2, k)])
                    for r, x in v.items():
                        prev = inv.data.get((row, r), RF_ZERO) + factor * x * gram[r]
                        if prev:
                            inv.data[(row, r)] = prev
                        else:
                            inv.data.pop((row, r), None)
    return inv
