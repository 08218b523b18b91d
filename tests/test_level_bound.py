"""``build_module`` stops at the depth of the lowest weight.

The module of highest weight lam under the lowering set theta has its lowest
weight w_theta(lam) (``reflect_to_antidominant``), height(lam - w_theta(lam))
levels down.  On every module of the relations grid and on Levi modules of
each algebra the deepest basis vector lies exactly there, and the builder's
bound <hw, h>, h the sum of the positive coroots of the lowering set, is
that height for every lowering set of every supported algebra.  A builder whose
residuals fail to vanish (here a level ratio faulted to one) would keep
lowering forever; it raises ``ArithmeticError`` one level past that depth
instead, and the CLI reports it as one ``internal error:`` line with exit 2.
"""

import itertools
import signal
from contextlib import contextmanager

import pytest

from qgroups import uqrep, verify
from qgroups.cartan import SUPPORTED_TYPES, cartan_data, reflect_to_antidominant
from qgroups.cli import EXIT_FAILED, main
from qgroups.scalar import RF_ONE, Memo

LEVI = [("A2", (1, 1), (1,)), ("A2", (2, 3), (2,)), ("A3", (1, 2, 1), (1, 2)),
        ("A3", (2, 0, 1), (1, 3)), ("A3", (1, 1, 1), (2,)), ("B2", (1, 2), (1,)),
        ("B2", (3, 1), (2,))]
CASES = ([(name, hw, tuple(range(1, len(hw) + 1)))
          for name, hw in (row.case for row in verify._RELATIONS)] + LEVI)


def height_below(cd, hw, weight):
    return sum(cd.fundamental_to_root(tuple(a - b for a, b in zip(hw, weight))))


@pytest.mark.parametrize("name,hw,lowering", CASES, ids=[f"{n}{w}{t}" for n, w, t in CASES])
def test_deepest_vector_sits_at_the_lowest_weight(name, hw, lowering):
    cd = cartan_data(name)
    m = uqrep.build_module(cd, hw, lowering)
    low = reflect_to_antidominant(cd, hw, lowering)
    depths = [height_below(cd, hw, w) for w in m.weights]
    assert max(depths) == height_below(cd, hw, low)
    assert [m.weights[s] for s, d in enumerate(depths) if d == max(depths)] == [low]


LOWERINGS = [(name, t) for name in SUPPORTED_TYPES
             for r in range(len(cartan_data(name).d) + 1)
             for t in itertools.combinations(range(1, len(cartan_data(name).d) + 1), r)]


@pytest.mark.parametrize("name,lowering", LOWERINGS, ids=[f"{n}{t}" for n, t in LOWERINGS])
def test_depth_bound_is_the_height_of_the_lowest_weight(name, lowering):
    cd = cartan_data(name)
    h = uqrep._lowest_depths((cd, lowering))
    for hw in itertools.product(range(3), repeat=cd.rank):
        low = reflect_to_antidominant(cd, hw, lowering)
        assert sum(a * b for a, b in zip(h, hw)) == height_below(cd, hw, low), hw


@contextmanager
def deadline(seconds):
    """Turn a hang into a failure."""
    def expired(signum, frame):
        raise TimeoutError(f"still building after {seconds} s")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def unit_level_ratios(monkeypatch):
    monkeypatch.setattr(uqrep, "_level_ratios", lambda ratios, parents: Memo(lambda key: RF_ONE))


# under this fault B2 (1,1), A2 (2,1) and A3 (1,1,0) stay within the depth but
# grow each level several-fold, and run past 15 s before reaching it; these do not
@pytest.mark.parametrize("name,hw", [("A2", (1, 1)), ("A2", (2, 0)), ("A3", (1, 0, 1))])
def test_faulted_level_ratio_raises_instead_of_lowering_forever(name, hw, monkeypatch):
    unit_level_ratios(monkeypatch)
    with deadline(20), pytest.raises(ArithmeticError, match="below its lowest weight"):
        uqrep.build_irrep(cartan_data(name), hw)


def test_faulted_level_ratio_is_an_internal_error_of_the_cli(capsys, monkeypatch):
    unit_level_ratios(monkeypatch)
    with deadline(20):
        code = main(["irrep", "--algebra", "A2", "--weight", "1,1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_FAILED
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "below its lowest weight" in captured.err
    assert captured.err.count("\n") == 1
