"""``check_serre`` against ``direct_check_serre``, which computes every record.

When the Gram certificate holds, ``check_serre`` computes the Serre sums and
the K conjugations on the f side and copies each verdict to the e-side
mirror, and copies each [e_j, f_i] with i != j from [e_i, f_j]; without it,
it computes every record.  Either way the report must be the one the direct
computation gives, on intact modules and on faulted ones, including faults
that keep the certificate.
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


LEVI_MODULES = [
    ("A2", (1, 0), (1,)),
    ("A2", (2, 1), (2,)),
    ("B2", (1, 1), (1,)),
    ("B2", (0, 2), (2,)),
    ("A3", (1, 0, 1), (1, 3)),
    ("A3", (0, 1, 1), (2, 3)),
]


@pytest.mark.parametrize("name,hw,lowering", LEVI_MODULES)
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


def double_f_entry(m, i=1):
    f = m.F[i].data
    f[min(f)] = f[min(f)] * TWO


def double_e_entry(m, i=1):
    e = m.E[i].data
    e[min(e)] = e[min(e)] * TWO


def double_mirror_pair(m, i=1):
    e, f = m.E[i].data, m.F[i].data
    r, c = min(e)
    e[r, c] = e[r, c] * TWO
    f[c, r] = f[c, r] * TWO


def zero_gram_entry(m, s=1):
    # the form is stored as step ratios g_s / g_p(s): g_s becomes zero; the
    # same-level ratios the builder memoized are read off the faulted ratios
    m.ratios[s] = RF_ZERO
    m.level_ratio.clear()


def double_gram_entry(m, s=1):
    # g_s and every g below s double
    m.ratios[s] = m.ratios[s] * TWO
    m.level_ratio.clear()


FAULTS = [
    (double_f_entry, False),
    (double_e_entry, False),
    (double_mirror_pair, True),
    (zero_gram_entry, False),
    (double_gram_entry, False),
]


@pytest.mark.parametrize("fault,mirrored", FAULTS)
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


@pytest.mark.parametrize("fault,mirrored", FAULTS)
def test_index_two_fault_on_b2_matches_direct(fault, mirrored):
    # the fault matrix at index 2 of B2, whose Serre pair (2, 1) has n = 3
    cd = cartan_data("B2")
    assert 1 - cd.cartan[1][0] == 3
    m = build_irrep(cd, (1, 1))
    fault(m, 2)
    assert uqrep._gram_mirrors(m) is mirrored
    assert_same(m)
    failed = {r["relation"] for r in check_serre(m) if not r["ok"]}
    if fault is not zero_gram_entry and fault is not double_gram_entry:
        assert failed
    if mirrored:
        # the certificate holds, so the f-side sum decides both records
        assert {"serre e2,e1", "serre f2,f1"} <= failed


def serre_operands(monkeypatch, m):
    """Run check_serre with ``_serre_sum`` wrapped; return the kind of each
    operand it received: "e" or "f" for a stored matrix of m."""
    stored = {id(x): kind for kind, mats in (("e", m.E), ("f", m.F)) for x in mats.values()}
    seen = []
    real = uqrep._serre_sum

    def wrapped(xi, xj, coeffs):
        seen.extend(stored.get(id(x), "other") for x in (xi, xj))
        return real(xi, xj, coeffs)

    monkeypatch.setattr(uqrep, "_serre_sum", wrapped)
    check_serre(m)
    return seen


@pytest.mark.parametrize("name,hw", [("A2", (1, 1)), ("B2", (1, 1)), ("B2", (2, 2)),
                                     ("A3", (1, 0, 1))])
def test_certified_module_sums_serre_on_f_only(monkeypatch, name, hw):
    m = build_irrep(cartan_data(name), hw)
    assert uqrep._gram_mirrors(m)
    seen = serre_operands(monkeypatch, m)
    n_pairs = len(m.lowering) * (len(m.lowering) - 1)
    assert seen == ["f"] * (2 * n_pairs)


@pytest.mark.parametrize("fault", [double_f_entry, double_e_entry])
def test_uncertified_module_sums_serre_on_both_sides(monkeypatch, fault):
    m = build_irrep(cartan_data("B2"), (1, 1))
    fault(m)
    assert not uqrep._gram_mirrors(m)
    seen = serre_operands(monkeypatch, m)
    assert seen.count("e") == seen.count("f") == 4 and len(seen) == 8


# K conjugations are decided as k_i[r] k_i^-1[c] = v^p on each nonzero stored
# x[r, c]; the direct check keeps the y-multiplied form k_i[r] y k_i^-1[c] = v^p y


def k1_entry_times_v(m):
    k = m.k_matrix(1)
    k.data[0, 0] = k.data[0, 0] * RationalFunction.v_power(1)


def f2_row(m):
    """The basis index of f_2 v_0, at the weight hw - alpha_2."""
    alpha = m.cd.alpha_fundamental(2)
    return m.weights.index(tuple(w - a for w, a in zip(m.weights[0], alpha)))


def f1_entry_off_weight(m):
    # F_1[f_1 v_0, v_0] moves to the row of f_2 v_0
    f = m.F[1].data
    (r, c), = [rc for rc in f if rc[1] == 0]
    f[f2_row(m), c] = f.pop((r, c))


def stored_zero_f1_entry(m):
    m.F[1].data[f2_row(m), 0] = RF_ZERO


@pytest.mark.parametrize("fault,name,hw,false_k", [
    (k1_entry_times_v, "A2", (1, 1),
     {"k1 k1^-1 = 1", "k1 e1 k1^-1 = v^(2) e1", "k1 e2 k1^-1 = v^(-1) e2"}),
    (k1_entry_times_v, "B2", (1, 1),
     {"k1 k1^-1 = 1", "k1 e1 k1^-1 = v^(4) e1", "k1 e2 k1^-1 = v^(-2) e2"}),
    (f1_entry_off_weight, "A2", (1, 1),
     {"k1 f1 k1^-1 = v^(-2) f1", "k2 f1 k2^-1 = v^(1) f1"}),
    (f1_entry_off_weight, "B2", (1, 1),
     {"k1 f1 k1^-1 = v^(-4) f1", "k2 f1 k2^-1 = v^(2) f1"}),
    # a stored zero conjugates to zero: no K record may fail on it
    (stored_zero_f1_entry, "A2", (1, 1), set()),
    (stored_zero_f1_entry, "B2", (1, 1), set()),
])
def test_k_fault_fails_the_records_the_direct_check_fails(fault, name, hw, false_k):
    m = build_irrep(cartan_data(name), hw)
    fault(m)
    assert_same(m)
    failed = {r["relation"] for r in check_serre(m) if not r["ok"]}
    assert {r for r in failed if r.startswith("k")} == false_k
