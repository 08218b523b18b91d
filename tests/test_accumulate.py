"""The one sparse accumulate against the loop it replaced.

``linalg.accumulate`` holds the add-and-drop-zero step that every sparse sum
in the package used to repeat inline as ``get(k, RF_ZERO) + x`` followed by
a pop when the sum is zero.  The reference below is that loop.  Both must
leave the same items in the same order and never store a zero, including
when sums cancel, when a summand is zero and when a key repeats.
"""

from hypothesis import example, given, settings, strategies as st

from qgroups.linalg import accumulate
from qgroups.scalar import RF_ONE, RF_ZERO, RationalFunction


def former_accumulate(acc, pairs):
    for key, x in pairs:
        s = acc.get(key, RF_ZERO) + x
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


_V = RationalFunction.v_power(1)
# a few values and their negatives, so that drawn sums often cancel exactly
BASE = [RF_ONE, _V, RationalFunction.v_power(-2, 3), (_V + RF_ONE) / (_V * _V + RF_ONE),
        RationalFunction.v_power(4, -2) / (_V - RF_ONE)]
values = st.one_of(st.just(RF_ZERO), st.builds(lambda x, neg: -x if neg else x,
                                               st.sampled_from(BASE), st.booleans()))
keys = st.sampled_from([0, 1, 2, (0, 1), (1, 0)])
pairs = st.lists(st.tuples(keys, values), max_size=24)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
# a key that cancels is dropped, and appended again when it comes back
@example([(1, _V)], [(0, _V), (1, RF_ONE), (0, -_V), (2, RF_ZERO), (1, -_V), (0, _V)])
def test_accumulate_matches_former_loop(start, added):
    initial = former_accumulate({}, start)
    expect = former_accumulate(dict(initial), added)
    got = accumulate(dict(initial), iter(added))
    assert list(got.items()) == list(expect.items())
    assert all(got.values())

