"""Exact vector kernels against plain Fraction arithmetic."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from latcut import linalg as la

from oracles import fraction_dot

entry = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-60, max_value=60, max_denominator=15))
vector = st.lists(entry, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(st.lists(entry, min_size=n, max_size=n),
                        st.lists(entry, min_size=n, max_size=n))))
def test_dot_matches_fraction_sum(pair):
    # mixed signs, int and Fraction entries, lengths 0-4
    u, v = pair
    got = la.dot(u, v)
    assert type(got) is F
    assert got == fraction_dot(u, v)


def test_dot_of_int_and_empty_vectors_is_a_fraction():
    for u, v, want in [((), (), 0), ((3, -2), (4, 5), 2),
                       ((F(-1, 6), 2), (F(3, 4), -1), F(-17, 8))]:
        got = la.dot(u, v)
        assert type(got) is F and got == want


@settings(max_examples=60, deadline=None)
@given(vector, vector)
def test_dot_rejects_mismatched_lengths(u, v):
    assume(len(u) != len(v))
    with pytest.raises(ValueError):
        la.dot(u, v)
