"""The weight window of W(lam*) that ``sections_direct`` solves on.

The intertwiners V* -> W(lam*) of one grade have their unknowns at the
weights of W(lam*) that are -tau for a weight tau of V, and the equations of
an unknown at level h (ht of lam* - weight) reach level h + 1 through f_i.
``build_module(..., depth)`` stops after ``depth`` levels below the top, with
the full module's basis indices, so the window down to one level below the
deepest unknown carries every row of the full system, and its kernel is the
full kernel entry for entry.

The +1 keeps the system identical row for row; it is not the least depth
that gives the same sections.  A window that stops at the deepest unknown
(depth = max ht) drops only the f-rows into the level below.  Along each
sl2 string those follow from the e-rows, and depth = max ht gives the same
results on every grid here, so no test asserts that it fails.  A window one
level shorter still (depth = max ht - 1) drops unknowns, and that must
change a result.
"""

import pytest

from qgroups import verify
from qgroups.bundle import TruncationPolicy, levi_complement, sections_direct
from qgroups.cartan import dual_weight, weyl_dim
from qgroups.coeff import CoeffAlgebra
from qgroups.parabolic import ParabolicData, hom_space
from qgroups.tensor import DualModule
from qgroups.uqrep import IrrepCache, build_module
from qgroups.verify import (_BOREL_WEIL, _FROBENIUS, _INVARIANTS, _PROJECTIVITY, _TRIVIAL,
                            algebra)
from test_invariant_differential import HEIGHTS


def _levels(m):
    """ht(C^-1 (hw - wt_s)) of each basis vector s of a full module."""
    cd = m.cd
    return [sum(cd.fundamental_to_root([h - c for h, c in zip(m.hw, w)])) for w in m.weights]


def _grid_cases():
    """(algebra, theta, highest weight, V, height) for every grade that the
    borel_weil, frobenius and projectivity grids induce from.  V is the Levi
    module of that weight, the full one, or the full module that the Levi
    one complements into (a projectivity case's envelope, whose sections it
    round-trips on grades up to the envelope's weight plus 2 alpha_1).  The
    invariants grid's cases come last: the trivial Levi module of each of its
    Theta, whose sections are the invariant functions, on grades up to a
    height that contains the highest root."""
    cases = {(name, theta, mu, "levi", h) for name, theta, mu, _, h in [r.case for r in _BOREL_WEIL]}
    cases |= {(name, theta, hw, "full", h) for name, theta, hw, h in [r.case for r in _TRIVIAL]}
    cases |= {(name, theta, v, "levi", h) for name, theta, _, v, h in [r.case for r in _FROBENIUS]}
    for name, theta, mu in {r.case[:3] for r in _PROJECTIVITY}:
        cases |= {(name, theta, mu, "levi", 3), (name, theta, mu, "envelope", 3)}
    trivial = {(name, theta, (0,) * algebra(name).cd.rank, "levi", HEIGHTS[name])
               for name, theta in [r.case for r in _INVARIANTS]}
    return sorted(cases) + sorted(trivial - cases)


def _grades(name, theta, hw, source, height):
    """(V, lam, lam*, the full W(lam*), its levels, the least depth that
    keeps every row) for each grade with unknowns."""
    alg = algebra(name)
    cd = alg.cd
    if source == "full":
        vmod = alg.irrep(hw)
    else:
        vmod = alg.irreps.levi(cd, theta, hw)
        if source == "envelope":
            vmod = levi_complement(alg, ParabolicData(cd, theta), vmod)[0]
    v_weights = set(vmod.weights)
    for lam in TruncationPolicy(height=height).weights(cd):
        lam_dual = dual_weight(cd, lam)
        whole = alg.irrep(lam_dual)
        levels = _levels(whole)
        heights = [h for h, w in zip(levels, whole.weights) if tuple(-c for c in w) in v_weights]
        if heights:
            yield vmod, lam, lam_dual, whole, levels, max(heights) + 1


@pytest.mark.parametrize("name,theta,hw,source,height", _grid_cases())
def test_window_solve_matches_the_full_module(name, theta, hw, source, height):
    cd = algebra(name).cd
    p = ParabolicData(cd, theta)
    for vmod, lam, lam_dual, whole, levels, depth in _grades(name, theta, hw, source, height):
        dual = DualModule(vmod)
        # a fresh cache, so that the stored full module does not stand in
        window = IrrepCache().window(cd, lam_dual, depth)
        assert window.dim == sum(h <= depth for h in levels) <= whole.dim
        assert window.weights == whole.weights[:window.dim]
        for flavor in ("levi", "parabolic"):
            got = hom_space(dual, window, p, flavor)
            want = hom_space(dual, whole, p, flavor)
            assert [phi.data for phi in got.maps] == [phi.data for phi in want.maps], \
                (lam, flavor)
        # sections_direct builds one window, at least that deep: the cone
        # test reads V's weights, some of which may not be weights of W(lam*)
        fresh = CoeffAlgebra(cd)
        secs = sections_direct(fresh, vmod, p, lam, "parabolic")
        [key] = [k for k in fresh.irreps._store if k[:2] == (cd, lam_dual)]
        assert len(key) == 4 and key[3] >= depth
        assert len(secs) % weyl_dim(cd, lam_dual) == 0


def test_the_grids_have_windows_narrower_than_their_modules():
    narrower = total = 0
    for case in _grid_cases():
        for *_, whole, levels, depth in _grades(*case):
            total += 1
            narrower += sum(h <= depth for h in levels) < whole.dim
    assert 0 < narrower < total


@pytest.mark.parametrize("name,hw", [("A1", (4,)), ("A2", (2, 1)), ("B2", (1, 1)), ("A3", (1, 0, 1))])
def test_window_is_the_top_of_the_full_module(name, hw):
    cd = algebra(name).cd
    whole = build_module(cd, hw, cd.simple_indices())
    levels = _levels(whole)
    for depth in range(max(levels) + 2):
        window = build_module(cd, hw, cd.simple_indices(), depth)
        n = sum(h <= depth for h in levels)
        assert window.dim == n
        assert window.weights == whole.weights[:n]
        assert window.ratios == whole.ratios[:n]
        assert window.constructions == whole.constructions[:n]
        for i in cd.simple_indices():
            # e_i never leaves the window; f_i is cut only on its last level
            assert window.E[i].data == {(r, c): x for (r, c), x in whole.E[i].data.items()
                                        if c < n}
            assert window.F[i].data == {(r, c): x for (r, c), x in whole.F[i].data.items()
                                        if levels[c] < depth}


def test_window_is_never_handed_out_as_a_full_module():
    cd = algebra("A2").cd
    cache = IrrepCache()
    window = cache.window(cd, (2, 1), 2)
    assert window.dim < weyl_dim(cd, (2, 1))
    full = cache.irrep(cd, (2, 1))
    assert full is not window and full.dim == weyl_dim(cd, (2, 1))
    # once the full module is stored, it serves every window
    assert cache.window(cd, (2, 1), 1) is full
    assert cache.window(cd, (2, 1), 2) is full
    assert cache.levi(cd, (1, 2), (2, 1)) is full


def _shallow_windows(monkeypatch, shift):
    """Every section solve gets a window ``shift`` levels shallower than the
    one ``sections_direct`` asks for, built afresh even when the full module
    is stored."""
    def window(self, cd, hw, depth):
        return build_module(cd, hw, cd.simple_indices(), max(depth - shift, 0))

    monkeypatch.setattr(IrrepCache, "window", window)


@pytest.mark.parametrize("check", ["frobenius", "borel_weil", "invariants"])
def test_forced_windows_at_the_asked_depth_pass(monkeypatch, check):
    _shallow_windows(monkeypatch, 0)
    assert verify.ALL_CHECKS[check](quick=True, algebra="A1")["passed"]


@pytest.mark.parametrize("check", ["frobenius", "borel_weil", "invariants"])
def test_a_window_above_the_deepest_unknown_fails(monkeypatch, check):
    _shallow_windows(monkeypatch, 2)
    assert not verify.ALL_CHECKS[check](quick=True, algebra="A1")["passed"]
