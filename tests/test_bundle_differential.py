"""The bundle checks against the forms they replaced, on the full grids.

``borel_weil_check``, ``trivial_bundle_check`` and ``frobenius_maps`` read
the left action once per (lam, a) row, sum each module combination and each
round-trip image into one dict, antipode t_{ji} only for the nonzero columns
j of phi, and eliminate without touching the zeros of a pivot row.  Every
call those checks make on the full ``borel_weil`` and ``frobenius`` grids
(the Borel-Weil, trivial-bundle and Frobenius cases) is recorded here and
recomputed by the frozen form in ``retired_helpers``: the results are equal
(``==``), and the suites' reports are unchanged.
"""

import random

import pytest

from qgroups import bundle, linalg, verify
from qgroups.parabolic import ParabolicData, hom_space
from qgroups.scalar import RF_ZERO, RationalFunction
from qgroups.uqrep import IrrepModule
from retired_helpers import (
    all_columns_route,
    chained_carries_module,
    chained_combination,
    chained_psi_images,
    row_dot_on_sections,
    zero_scan_rref,
)


@pytest.fixture
def recorded(monkeypatch):
    """Run the two suites on their full grids with spies on the replaced
    helpers; returns {name: [(args, result)]} and the two reports."""
    calls = {}

    def spy(module, name, materialize=None):
        fn = getattr(module, name)

        def wrapped(*args):
            if materialize:
                args = materialize(args)
            out = fn(*args)
            calls.setdefault(name, []).append((args, out))
            return out

        monkeypatch.setattr(module, name, wrapped)

    spy(bundle, "dot_on_sections", lambda a: (a[0], list(a[1])))
    spy(bundle, "_combination", lambda a: (a[0], list(a[1])))
    spy(bundle, "_carries_module")
    spy(bundle, "_route_sections")
    spy(bundle, "_psi_images")
    rref = linalg.rref

    def spy_rref(rows, ncols=None):
        # rref works in place, and its callers go on to change the rows
        before = [list(r) for r in rows]
        pivots = rref(rows, ncols)
        calls.setdefault("rref", []).append(((before, ncols), ([list(r) for r in rows], pivots)))
        return pivots

    monkeypatch.setattr(linalg, "rref", spy_rref)
    reports = [verify.check_borel_weil(), verify.check_frobenius()]
    return calls, reports


def test_suites_pass_with_the_spies(recorded):
    calls, reports = recorded
    assert all(rep["passed"] for rep in reports)
    grid = len(verify._BOREL_WEIL) + len(verify._TRIVIAL) + len(verify._FROBENIUS)
    cases = sum(len(rep["details"]["cases"]) for rep in reports)
    assert cases == grid
    for name in ("dot_on_sections", "_combination", "_carries_module",
                 "_route_sections", "_psi_images", "rref"):
        assert calls[name], name


def test_left_action_reads_each_row_once_with_the_same_images(recorded):
    calls, _ = recorded
    for (x, zetas), images in calls["dot_on_sections"]:
        assert images == row_dot_on_sections(x, zetas)


def test_one_dict_sums_equal_chained_copies(recorded):
    calls, _ = recorded
    for (template, terms), out in calls["_combination"]:
        assert out == chained_combination(template, terms)
    for (module, zetas, gens), verdict in calls["_carries_module"]:
        assert verdict == chained_carries_module(module, zetas, gens)


def test_route_over_nonzero_columns_equals_the_full_route(recorded):
    calls, _ = recorded
    for args, sections in calls["_route_sections"]:
        assert sections == all_columns_route(*args)
    # the grid has routes whose phi has a zero column, so the skip is exercised
    assert any(len(phi.columns()) < source.dim
               for (_, _, source, _, phi), _ in calls["_route_sections"])


def test_round_trip_images_equal_chained_copies(recorded):
    calls, _ = recorded
    for (template, basis, psi, dim), images in calls["_psi_images"]:
        assert images == chained_psi_images(template.alg, template.p, template.vmod,
                                            basis, psi, dim)


def test_rref_on_the_grid_systems(recorded):
    calls, _ = recorded
    for (rows, ncols), (reduced, pivots) in calls["rref"]:
        assert zero_scan_rref(rows, ncols) == pivots
        assert rows == reduced


def test_carries_module_verdicts_agree_on_a_broken_module():
    # the verdicts also agree where they are False: the F_1 entry of W is
    # doubled after the sections were built from the intact one
    alg = verify.algebra("A1")
    p = ParabolicData(alg.cd, ())
    wmod = alg.irrep((2,))
    vmod = alg.irreps.levi(alg.cd, (), (2,))
    zetas = bundle.sections_from_hom(alg, p, wmod, vmod, hom_space(wmod, vmod, p, "levi").maps[0])
    gens = bundle._left_generators(alg.cd)
    assert bundle._carries_module(wmod, zetas, gens)
    assert chained_carries_module(wmod, zetas, gens)
    broken = IrrepModule(alg.cd, wmod.hw, wmod.lowering, wmod.weights, wmod.E,
                         {1: wmod.F[1].scale(RationalFunction.const(2))},
                         wmod.ratios, wmod.constructions)
    assert not bundle._carries_module(broken, zetas, gens)
    assert not chained_carries_module(broken, zetas, gens)


def sparse_rows(rng, nrows, ncols, density):
    """Seeded rows of small Laurent monomials and sums, mostly zero, with
    some rows repeated as combinations of others."""
    def entry():
        if rng.random() > density:
            return RF_ZERO
        x = RationalFunction.v_power(rng.randint(-3, 3), rng.choice((1, -1, 2, -3)))
        if rng.random() < 0.3:
            x = x + RationalFunction.v_power(rng.randint(-2, 2))
        return x

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(nrows // 3):
        a, b = rng.sample(range(nrows), 2)
        c = RationalFunction.v_power(rng.randint(-2, 2), rng.choice((1, -1)))
        rows[rng.randrange(nrows)] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_rref_on_seeded_sparse_matrices(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
    rows = sparse_rows(rng, nrows, ncols, rng.choice((0.15, 0.3, 0.5)))
    # an augmented system: pivots only in the first ncols - k columns
    cut = ncols - rng.randint(0, min(3, ncols - 1))
    for limit in (None, cut):
        new, old = [list(r) for r in rows], [list(r) for r in rows]
        assert linalg.rref(new, limit) == zero_scan_rref(old, limit)
        assert new == old
