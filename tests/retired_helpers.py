"""Frozen copies of code that ``qgroups`` replaced or no longer calls.

Kept as references for the tests: ``coproduct_word`` (formerly in
``qgroups.uqrep``), ``tensor_hom`` (formerly in ``qgroups.parabolic``) and
``basis_inv`` (formerly the property ``CGDecomposition.basis_inv`` of
``qgroups.tensor``, whose only caller was ``tensor_hom``) lost their last
caller in the package; ``fraction_v_power`` is the general path that the
``RF_ONE`` shortcut of ``v_power`` now bypasses.  Do not optimize them.
"""
from __future__ import annotations

from fractions import Fraction

from qgroups import uqrep
from qgroups.linalg import Mat
from qgroups.scalar import RationalFunction, _ONE, _rf
from qgroups.tensor import decompose, tensor_module


def coproduct_word(cd, x) -> dict:
    """Coproduct as {(word_left, word_right): coefficient}.

    A leg pair determines its word (at each position an e or f stands on one
    leg, or both legs carry the same Cartan generator), so the pairs of
    different words are distinct and each carries its word's coefficient.
    """
    return {key: c for word, c in x.terms.items() for key in uqrep._coproduct_legs(word)}


def tensor_hom(alg, p, phi1: Mat, src1, tgt1, phi2: Mat, src2, tgt2):
    """Induced intertwiner on highest-weight sums.

    Composes the inclusion of the top tensor component with phi1 (x) phi2 and
    the Levi projection onto the top component of the target product.  The
    result is a nonzero intertwiner from the module of weight hw1 + hw2 to
    the Levi module of weight mu1 + mu2; a zero composite raises.
    """
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
            for (r, c), x in basis_inv(cg_tgt).data.items():
                if off <= r < off + canon.dim:
                    proj.data[(r - off, c)] = x
            break
    if proj is None:
        raise ArithmeticError("top component missing from target product")

    composite = proj @ phi1.kron(phi2) @ incl
    if composite.is_zero():
        raise ArithmeticError("induced intertwiner vanished")
    return composite


def basis_inv(cg) -> Mat:
    """The whole inverse of a decomposition's basis, every column formed by
    ``inverse_column``."""
    n = cg.t.dim
    inv = Mat(n, n)
    offsets = {nu: copies for nu, copies, _ in cg.components}
    rows = cg.rows()
    for j in range(n):
        for (nu, copy), entries in cg.inverse_column(j, rows.get(j, ())).items():
            off = offsets[nu][copy]
            for k, y in entries:
                inv.data[(off + k, j)] = y
    return inv


def fraction_v_power(e, c=1) -> RationalFunction:
    """``RationalFunction.v_power`` through a Fraction for every c: a new
    instance on each call."""
    c = Fraction(c)
    if not c:
        return _rf(0, 1, 0, _ONE, _ONE)
    return _rf(c.numerator, c.denominator, e, _ONE, _ONE)
