"""Differential tests of the integer classical oracles against the frozen
Fraction oracles they replaced (``tests/fraction_oracles.py``)."""

import itertools

import pytest

import fraction_oracles as frozen
from qgroups.cartan import (
    _TABLES,
    SUPPORTED_TYPES,
    CartanData,
    cartan_data,
    freudenthal,
    weight_multiplicities,
    weyl_dim,
)
from qgroups.verify import relations_grid
from retired_helpers import inner, inner_with_root


def test_weyl_dim_and_freudenthal_match_on_relations_grid():
    grid = relations_grid()
    assert ("B2", (2, 2)) in grid
    for name, hw in grid:
        cd = cartan_data(name)
        assert weyl_dim(cd, hw) == frozen.weyl_dim(cd, hw), (name, hw)
        assert weight_multiplicities(cd, hw) == frozen.weight_multiplicities(cd, hw), (name, hw)


def test_integer_form_matches_rational_inner_product():
    for name in SUPPORTED_TYPES:
        cd = cartan_data(name)
        weights = list(itertools.product(range(-2, 3), repeat=cd.rank))
        for lam in weights:
            for root in cd.positive_roots:
                value = inner_with_root(cd, lam, root)
                assert type(value) is int
                assert value == frozen.inner_with_root(cd, lam, root)
            for mu in weights[::3]:
                assert inner(cd, lam, mu) == frozen.inner(cd, lam, mu)


def test_levi_multiplicities_match_under_every_theta():
    # every Theta-dominant weight of every relations-grid module, under every Theta
    checked = 0
    for name, hw in relations_grid():
        cd = cartan_data(name)
        weights = frozen.weight_multiplicities(cd, hw)
        for r in range(cd.rank + 1):
            for theta in itertools.combinations(cd.simple_indices(), r):
                for mu in weights:
                    if any(mu[j - 1] < 0 for j in theta):
                        continue
                    got = freudenthal(cd, mu, theta)
                    assert got == frozen.levi_weight_multiplicities(cd, theta, mu), (
                        name, theta, mu)
                    checked += 1
    assert checked > 800


def test_freudenthal_matches_frozen_under_every_theta_on_small_weights():
    # the recursion runs at Theta-dominant weights only and fills in their
    # W_Theta-orbits; the frozen oracle runs it at every weight
    checked = 0
    for name in SUPPORTED_TYPES:
        cd = cartan_data(name)
        for r in range(cd.rank + 1):
            for theta in itertools.combinations(cd.simple_indices(), r):
                for lam in itertools.product(range(-5, 6), repeat=cd.rank):
                    if sum(map(abs, lam)) > 5 or any(lam[j - 1] < 0 for j in theta):
                        continue
                    got = freudenthal(cd, lam, theta)
                    assert got == frozen.levi_weight_multiplicities(cd, theta, lam), (
                        name, theta, lam)
                    checked += 1
    assert checked == 1323


def doctored(name, **changes):
    table = dict(_TABLES[name], **changes)
    return CartanData(name[0], int(name[1:]), table["cartan"], table["d"],
                      table["positive_roots"], table["highest_root"])


@pytest.mark.parametrize("cd,lam,message", [
    # d_1 a_12 != d_2 a_21: the form is not symmetric
    (doctored("A2", d=[1, 2]), (2, 2), "Freudenthal denominator vanished"),
    # 2 alpha as an extra positive root (a non-reduced system)
    (doctored("A1", positive_roots=[(1,), (2,)]), (2,), "non-integral Freudenthal"),
    (doctored("A2", d=[1, 3]), (2, 0), "negative Freudenthal multiplicity"),
])
def test_each_freudenthal_guard_fires_on_doctored_cartan_data(cd, lam, message):
    with pytest.raises(ArithmeticError, match=message):
        freudenthal(cd, lam, cd.simple_indices())


def test_cartan_data_is_shared():
    assert cartan_data("a2") is cartan_data(" A2 ")


def test_oracles_build_no_fraction_and_import_no_deformed_layer(monkeypatch):
    import ast

    import qgroups.cartan as cartan

    def no_fraction(*args):
        raise AssertionError("Fraction built by a classical oracle")

    monkeypatch.setattr(cartan, "Fraction", no_fraction)
    b2 = cartan_data("B2")
    assert weyl_dim(b2, (2, 2)) == 81
    assert sum(weight_multiplicities(b2, (2, 2)).values()) == 81
    assert sum(freudenthal(b2, (2, 2), (1,)).values()) == 3
    with open(cartan.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert imported <= {"__future__", "fractions", "math"}
