"""``check_serre`` against ``direct_check_serre``, which computes every record.

When the Gram certificate holds, ``check_serre`` copies each f-side record
from its e-side mirror; without it, it computes them.  Either way the report
must be the one the direct computation gives, on intact modules and on
faulted ones, including faults that keep the certificate.
"""

import pytest

from qgroups import uqrep, verify
from qgroups.cartan import cartan_data
from qgroups.scalar import RF_ZERO, RationalFunction
from qgroups.tensor import tensor_module
from qgroups.uqrep import build_irrep, build_module, check_serre, irrep_from_json, irrep_to_json
from retired_helpers import direct_check_serre

TWO = RationalFunction.const(2)


def assert_same(m):
    assert check_serre(m) == direct_check_serre(m)


@pytest.mark.parametrize("name,hw", verify.relations_grid())
def test_grid_module_matches_direct(name, hw):
    m = build_irrep(cartan_data(name), hw)
    assert uqrep._gram_mirrors(m)
    assert_same(m)


@pytest.mark.parametrize("name,hw,lowering", [
    ("A2", (1, 0), (1,)),
    ("A2", (2, 1), (2,)),
    ("B2", (1, 1), (1,)),
    ("B2", (0, 2), (2,)),
    ("A3", (1, 0, 1), (1, 3)),
    ("A3", (0, 1, 1), (2, 3)),
])
def test_levi_module_matches_direct(name, hw, lowering):
    m = build_module(cartan_data(name), hw, lowering)
    assert uqrep._gram_mirrors(m)
    assert_same(m)


def test_json_round_trip_matches_direct():
    cd = cartan_data("B2")
    m = irrep_from_json(cd, irrep_to_json(build_irrep(cd, (1, 1))))
    assert uqrep._gram_mirrors(m)
    assert_same(m)


def test_gramless_tensor_shim_matches_direct(a1):
    t = tensor_module(a1.irrep((1,)), a1.irrep((1,)))

    class Shim:  # a module with E/F and K but no contravariant form
        cd = a1.cd
        lowering = (1,)
        dim = 4
        weights = t.weights
        gen_matrix = t.gen_matrix
        e_matrix = t.e_matrix
        f_matrix = t.f_matrix
        k_matrix = t.k_matrix

    assert not uqrep._gram_mirrors(Shim())
    assert_same(Shim())


def double_f_entry(m):
    f = m.F[1].data
    f[min(f)] = f[min(f)] * TWO


def double_e_entry(m):
    e = m.E[1].data
    e[min(e)] = e[min(e)] * TWO


def double_mirror_pair(m):
    e, f = m.E[1].data, m.F[1].data
    r, c = min(e)
    e[r, c] = e[r, c] * TWO
    f[c, r] = f[c, r] * TWO


def zero_gram_entry(m):
    m.gram[1] = RF_ZERO


def double_gram_entry(m):
    m.gram[1] = m.gram[1] * TWO


@pytest.mark.parametrize("fault,mirrored", [
    (double_f_entry, False),
    (double_e_entry, False),
    (double_mirror_pair, True),
    (zero_gram_entry, False),
    (double_gram_entry, False),
])
@pytest.mark.parametrize("name,hw", [("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 1)),
                                     ("A3", (1, 0, 0))])
def test_faulted_module_matches_direct(name, hw, fault, mirrored):
    m = build_irrep(cartan_data(name), hw)
    fault(m)
    assert uqrep._gram_mirrors(m) is mirrored
    assert_same(m)
    if fault is not zero_gram_entry and fault is not double_gram_entry:
        # the gram feeds no relation; every matrix fault shows in the report
        assert not all(r["ok"] for r in check_serre(m))
