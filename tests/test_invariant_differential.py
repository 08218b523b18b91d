"""Invariant functions as the sections of the trivial Levi bundle.

``bundle.invariant_functions`` reads each grade off ``sections_direct`` on
the trivial Levi module: its weight-cone test, then one solve on the window
of W(lam*).  The frozen ``intertwiner_invariant_functions`` solves
Hom(W(lam), trivial) and pushes each map through ``sections_from_hom``.  The
bases differ; per grade, the two have the same length and the same span, on
every Theta of each algebra up to a height that contains its highest root
gamma.  The ``sections`` command prints only the dimensions, so its bytes are
the same with either route behind it.
"""

import itertools

import pytest

from qgroups import cli
from qgroups.bundle import TruncationPolicy, invariant_functions
from qgroups.coeff import CoeffAlgebra
from qgroups.linalg import rank
from qgroups.parabolic import ParabolicData
from qgroups.scalar import RF_ZERO
from qgroups.verify import algebra
from retired_helpers import intertwiner_invariant_functions

HEIGHTS = {"A1": 4, "A2": 3, "B2": 2, "A3": 2}


def _cases():
    for name, h in HEIGHTS.items():
        n = algebra(name).cd.rank
        for size in range(n + 1):
            for theta in itertools.combinations(range(1, n + 1), size):
                yield pytest.param(name, theta, h, id=f"{name}-{theta}-{h}")


def _rank(funcs) -> int:
    keys = sorted({key for f in funcs for key in f.terms})
    return rank([[f.terms.get(key, RF_ZERO) for key in keys] for f in funcs]) if keys else 0


@pytest.mark.parametrize("name", sorted(HEIGHTS))
def test_the_heights_reach_the_highest_root(name):
    cd = algebra(name).cd
    gamma = cd.root_to_fundamental(cd.highest_root)
    assert gamma in TruncationPolicy(height=HEIGHTS[name]).weights(cd)


@pytest.mark.parametrize("name,theta,height", _cases())
def test_invariant_functions_span_what_the_intertwiners_induce(name, theta, height):
    alg = algebra(name)
    p = ParabolicData(alg.cd, theta)
    trunc = TruncationPolicy(height=height)
    got = invariant_functions(alg, p, trunc)
    want = intertwiner_invariant_functions(alg, p, trunc)
    assert list(got) == list(want)
    for lam, funcs in got.items():
        ref = want[lam]
        assert len(funcs) == len(ref), lam
        r = _rank(funcs)
        assert r == len(funcs) == _rank(ref) == _rank(funcs + ref), lam


@pytest.mark.parametrize("name,height", sorted(HEIGHTS.items()))
def test_only_root_lattice_grades_build_a_window(name, height):
    # the trivial module's one weight is 0, which W(lam*) has only when lam*
    # lies in the root lattice: every other grade is refused before a build
    alg = algebra(name)
    cd = alg.cd
    zero = (0,) * cd.rank
    trunc = TruncationPolicy(height=height)
    fresh = CoeffAlgebra(cd)
    invariant_functions(fresh, ParabolicData(cd, ()), trunc)
    built = {key[1] for key in fresh.irreps._store if len(key) == 4}
    assert built == {fresh.dual_weights[lam] for lam in trunc.weights(cd)
                     if zero in alg.irrep(lam).weights}


_SECTIONS = [
    ("A1", "", 8),
    ("A2", "", 6), ("A2", "1", 6), ("A2", "2", 6), ("A2", "1,2", 4),
    ("B2", "", 4), ("B2", "1", 4), ("B2", "2", 4),
    ("A3", "", 3), ("A3", "2", 3), ("A3", "1,3", 3),
]


def _sections_json(capsys, name, theta, trunc):
    argv = ["sections", "--algebra", name, "--theta", theta, "--trunc", str(trunc),
            "--format", "json"]
    assert cli.main(argv) == cli.EXIT_OK
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("name,theta,trunc", _SECTIONS)
def test_sections_command_bytes_do_not_depend_on_the_route(monkeypatch, capsys, name, theta,
                                                           trunc):
    got = _sections_json(capsys, name, theta, trunc)
    # cli holds its own binding of invariant_functions: patch the one it calls
    monkeypatch.setattr(cli, "invariant_functions", intertwiner_invariant_functions)
    assert got == _sections_json(capsys, name, theta, trunc)
