"""Coproduct legs and word weights built from the word's suffix, against the
letter-by-letter forms they replaced.

``uqrep._leg_pairs`` joins the pieces of a word's first letter in front of
the memoized legs of the rest, and ``CoeffAlgebra._make_word_weight`` adds
the first letter's weight to the memoized weight of the rest.  For every
word of length <= 4 over each supported algebra's generators, both must give
what the frozen ``letterwise_leg_pairs`` and ``letterwise_word_weight`` give:
the same leg tuples in the same order, every leg word the one stored copy in
``_LEG_WORDS``, and the same weight tuples.  Words are visited longest first
(every suffix filled by recursion) and shortest first (every suffix found),
and with the memos at a small bound (suffixes rebuilt past it).
"""

import itertools

import pytest

from qgroups import scalar, uqrep
from qgroups.cartan import SUPPORTED_TYPES, cartan_data
from qgroups.coeff import CoeffAlgebra
from qgroups.scalar import Memo
from retired_helpers import letterwise_leg_pairs, letterwise_word_weight


def words(cd, length=4):
    gens = [(kind, i) for i in range(1, cd.rank + 1) for kind in "efkK"]
    return [w for n in range(length + 1) for w in itertools.product(gens, repeat=n)]


def fresh_leg_memos(monkeypatch):
    for attr in ("_LEGS", "_LEG_WORDS"):
        monkeypatch.setattr(uqrep, attr, Memo(getattr(uqrep, attr).make))


def assert_interned(legs):
    stored = uqrep._LEG_WORDS
    for pair in legs:
        for w in pair:
            assert stored[w] is w


@pytest.mark.parametrize("name", SUPPORTED_TYPES)
@pytest.mark.parametrize("order", ["longest_first", "shortest_first"])
def test_leg_pairs_equal_the_letterwise_construction(name, order, monkeypatch):
    fresh_leg_memos(monkeypatch)
    ws = words(cartan_data(name))
    if order == "longest_first":
        ws = ws[::-1]
    for w in ws:
        legs = uqrep._coproduct_legs(w)
        assert legs == letterwise_leg_pairs(w), w
        assert type(legs) is tuple and all(type(p) is tuple for p in legs)
        assert_interned(legs)
    assert len(uqrep._LEGS) == len(ws)


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_leg_pairs_past_the_memo_bound(name, monkeypatch):
    monkeypatch.setattr(scalar, "MEMO_MAX", 5)
    fresh_leg_memos(monkeypatch)
    ws = words(cartan_data(name), 3)[::-1]
    for _ in range(2):
        for w in ws:
            assert uqrep._coproduct_legs(w) == letterwise_leg_pairs(w), w
    assert len(uqrep._LEGS) == len(uqrep._LEG_WORDS) == 5


@pytest.mark.parametrize("name", SUPPORTED_TYPES)
@pytest.mark.parametrize("order", ["longest_first", "shortest_first"])
def test_word_weight_equals_the_letter_walk(name, order):
    alg = CoeffAlgebra(cartan_data(name))
    ws = words(alg.cd)
    if order == "longest_first":
        ws = ws[::-1]
    for w in ws:
        got = alg.word_weight[w]
        assert got == letterwise_word_weight(alg, w), w
        assert type(got) is tuple and all(type(c) is int for c in got)
    assert len(alg.word_weight) == len(ws)


def test_word_weight_past_the_memo_bound(monkeypatch):
    monkeypatch.setattr(scalar, "MEMO_MAX", 5)
    alg = CoeffAlgebra(cartan_data("B2"))
    for _ in range(2):
        for w in words(alg.cd, 3)[::-1]:
            assert alg.word_weight[w] == letterwise_word_weight(alg, w), w
    assert len(alg.word_weight) == 5
