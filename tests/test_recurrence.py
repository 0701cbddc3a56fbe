"""The recurrence kernel behind ``compute_row`` and the CLI's one-shot
commands: its row and its point query against the cached row and the
window-sum route."""

from __future__ import annotations

import tracemalloc
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extbinom import _recurrence, coefficient, compute_row, iter_rows
from extbinom.special import exact_scaled_value

SMALL_N = st.integers(1, 60)
SMALL_Q = st.integers(1, 10)


@given(n=SMALL_N, q=SMALL_Q)
@settings(max_examples=60, deadline=None)
def test_row_equals_cached_and_window_rows(n, q):
    *_, last = iter_rows(q, n)
    assert _recurrence.row(n, q) == compute_row(n, q).coeffs == last.coeffs


@given(n=SMALL_N, q=SMALL_Q, data=st.data())
@settings(max_examples=60, deadline=None)
def test_point_query_equals_row(n, q, data):
    row = compute_row(n, q).coeffs
    top = n * q
    for k in (0, top, top // 2, data.draw(st.integers(0, top))):
        assert _recurrence.coefficient(n, k, q) == row[k]


@given(n=SMALL_N, q=SMALL_Q, past=st.integers(1, 10**30))
@settings(max_examples=40, deadline=None)
def test_point_query_is_zero_outside_the_row(n, q, past):
    assert _recurrence.coefficient(n, -past, q) == 0
    assert _recurrence.coefficient(n, n * q + past, q) == 0


@pytest.mark.parametrize("n,k", [(40, 0), (40, 3), (40, 77), (40, 80), (41, 41)])
def test_point_query_stops_at_the_nearer_end(n, k):
    q = 2
    with mock.patch.object(_recurrence, "prefix", wraps=_recurrence.prefix) as prefix:
        value = _recurrence.coefficient(n, k, q)
    prefix.assert_called_once_with(n, q, min(k, n * q - k))
    assert value == compute_row(n, q).coeffs[k]


def test_point_query_without_the_row():
    # k <= q: every ordered choice of k units among n parts counts, C(n+k-1, k)
    assert _recurrence.coefficient(20000, 2, 2) == comb(20001, 2) == 200010000
    assert _recurrence.coefficient(10**6, 5, 8) == comb(10**6 + 4, 5)


@given(n=SMALL_N, q=SMALL_Q)
@settings(max_examples=60, deadline=None)
def test_every_prefix_equals_the_row(n, q):
    # the stops around q - 1, where the leading zeros stop growing with stop
    row = compute_row(n, q).coeffs
    for stop in range(min(n * q, q + 3) + 1):
        assert _recurrence.prefix(n, q, stop) == list(row[: stop + 1])


@pytest.mark.parametrize("q", [10**6, 10**18])
def test_point_query_memory_does_not_grow_with_q(q):
    # O(min(k, nq - k)) values whatever q is: no q + 2 leading zeros
    tracemalloc.start()
    try:
        got = [_recurrence.coefficient(3, k, q) for k in (1, 5, 3 * q - 5)]
        scaled = exact_scaled_value(3, 5, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [3, comb(7, 5), comb(7, 5)]
    assert scaled > 0
    assert peak < 64 * 1024


@pytest.mark.parametrize("n,q", [(0, 2), (3, 0), (0, 0), (-1, 2), (-4, -4)])
@pytest.mark.parametrize("k", [-1, 0, 1, 10**9])
def test_same_domain_errors_as_coefficient(n, q, k):
    with pytest.raises(ValueError) as expected:
        coefficient(n, k, q)
    with pytest.raises(ValueError) as got:
        _recurrence.coefficient(n, k, q)
    assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError) as got:
        _recurrence.row(n, q)
    assert str(got.value) == str(expected.value)
