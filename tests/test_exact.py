"""Exact core: rows, coefficients, bounded compositions, probabilities.

Oracles here stay independent of the production path: schoolbook
polynomial multiplication (no sliding window) and direct recursive
enumeration of bounded compositions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extbinom import (
    _recurrence,
    approximate_scaled,
    central_ratio,
    coefficient,
    composition_count,
    compute_row,
    correction_from_cumulants,
    cumulant,
    cumulants_from_moments,
    cumulants_up_to,
    exact_scaled_value,
    harness,
    hermite,
    iter_rows,
    rate_sweep,
    scaled_probability,
    standardize,
    uniform_correction,
)
from extbinom.special import _hermite_coeffs


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def brute_force_row(n: int, q: int) -> list[int]:
    acc = [1]
    for _ in range(n):
        acc = poly_mul(acc, [1] * (q + 1))
    return acc


@cache
def count_bounded_compositions(k: int, n: int, q: int) -> int:
    """Number of (c_1, ..., c_n) with c_i in {1, ..., q} summing to k."""
    if n == 0:
        return 1 if k == 0 else 0
    if k < n or k > n * q:
        return 0
    return sum(count_bounded_compositions(k - c, n - 1, q) for c in range(1, q + 1))


class TestComputeRow:
    def test_base_polynomial(self):
        assert compute_row(1, 2).coeffs == (1, 1, 1)

    def test_square(self):
        assert compute_row(2, 2).coeffs == (1, 2, 3, 2, 1)

    def test_binomial_row(self):
        assert compute_row(5, 1).coeffs == (1, 5, 10, 10, 5, 1)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_brute_force(self, q):
        acc = [1]
        for n in range(1, 13):
            acc = poly_mul(acc, [1] * (q + 1))
            assert compute_row(n, q).coeffs == tuple(acc)

    def test_iter_rows_matches_compute_row(self):
        for row in iter_rows(3, 15):
            assert row.coeffs == compute_row(row.n, 3).coeffs
            assert row.total == sum(row.coeffs)

    @pytest.mark.parametrize("n,q", [(0, 2), (3, 0), (0, 0), (-1, 2)])
    def test_domain_errors(self, n, q):
        with pytest.raises(ValueError):
            compute_row(n, q)


HALF_NEAR_Q_PLUS_1 = [
    (n, q) for q in range(1, 9) for n in range(1, 9) if q <= n * q // 2 <= q + 3
]


class TestRecurrenceRow:
    """compute_row (three-term recurrence, half a row mirrored) against
    iter_rows (window sum, the whole row)."""

    @given(n=st.integers(1, 150), q=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_matches_window_route(self, n, q):
        *_, last = iter_rows(q, n)
        assert compute_row(n, q).coeffs == last.coeffs

    @pytest.mark.parametrize("n,q", [(333, 3), (7, 5), (1, 1), (3, 1), (5, 7)])
    def test_odd_row_length_mirror(self, n, q):
        # n*q odd: the middle pair a_{(nq-1)/2} = a_{(nq+1)/2} straddles
        # the mirror
        assert n * q % 2 == 1
        *_, last = iter_rows(q, n)
        assert compute_row(n, q).coeffs == last.coeffs

    @pytest.mark.parametrize("q", range(13, 65))
    def test_wide_q_short_rows(self, q):
        # past the hypothesis range of q: at n <= 2 half a row ends before
        # k = q+1, so every far term comes from the zero padding
        for n, row in enumerate(iter_rows(q, 4), start=1):
            assert compute_row(n, q).coeffs == row.coeffs

    @pytest.mark.parametrize("n,q", HALF_NEAR_Q_PLUS_1)
    def test_first_far_terms(self, n, q):
        # half = n*q//2 from Q-1 to Q+2 (Q = q+1): rows that end just before,
        # at and just after the steps where a_{k-Q} and a_{k-Q-1} first
        # leave the zero padding
        *_, last = iter_rows(q, n)
        assert compute_row(n, q).coeffs == last.coeffs

    @pytest.mark.parametrize("n,q", [(333, 3), (334, 3), (51, 7), (200, 2)])
    def test_mirror_shares_ints(self, n, q):
        # odd and even n*q: a_{nq-k} is the very int object a_k, not a copy
        cs = compute_row(n, q).coeffs
        assert max(cs) > 2**64
        assert all(cs[k] is cs[n * q - k] for k in range(n * q + 1))

    def test_q1_is_binomial(self):
        assert compute_row(1000, 1).coeffs == tuple(comb(1000, k) for k in range(1001))

    def test_large_row_sum_and_symmetry(self):
        cs = compute_row(10000, 2).coeffs
        assert len(cs) == 20001
        assert sum(cs) == 3**10000
        assert cs == cs[::-1]


class TestRowInvariants:
    @given(n=st.integers(1, 60), q=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_sum_symmetry_endpoints(self, n, q):
        row = compute_row(n, q)
        assert len(row.coeffs) == n * q + 1
        assert sum(row.coeffs) == row.total == (q + 1) ** n
        assert row.coeffs[0] == row.coeffs[-1] == 1
        for k in range(len(row.coeffs)):
            assert row.coeffs[k] == row.coeffs[n * q - k]

    @given(n=st.integers(1, 40), q=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_unimodal(self, n, q):
        cs = compute_row(n, q).coeffs
        mid = -(-n * q // 2)  # ceil
        assert all(a <= b for a, b in zip(cs[:mid], cs[1 : mid + 1]))
        assert all(a >= b for a, b in zip(cs[mid:], cs[mid + 1 :]))

    @given(n=st.integers(2, 30), q=st.integers(1, 5), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_pascal_type_recurrence(self, n, q, data):
        k = data.draw(st.integers(-3, n * q + 3))
        lhs = coefficient(n, k, q)
        rhs = sum(coefficient(n - 1, k - j, q) for j in range(q + 1))
        assert lhs == rhs


class TestCoefficient:
    def test_examples(self):
        assert coefficient(4, 4, 2) == 19
        assert coefficient(3, -1, 4) == 0
        assert coefficient(10, 3, 1) == 120
        assert coefficient(3, 3, 3) == 10

    def test_against_oracle(self):
        assert coefficient(4, 4, 2) == brute_force_row(4, 2)[4]
        assert coefficient(3, 3, 3) == brute_force_row(3, 3)[3]

    def test_out_of_range_is_zero(self):
        assert coefficient(3, 13, 4) == 0
        assert coefficient(5, -100, 2) == 0

    def test_q1_is_binomial(self):
        for n in range(1, 41):
            for k in range(n + 1):
                assert coefficient(n, k, 1) == comb(n, k)


class TestCompositionCount:
    def test_examples(self):
        assert composition_count(4, 2, 3) == 3  # (1,3),(2,2),(3,1)
        assert composition_count(3, 3, 5) == 1
        assert composition_count(10, 2, 3) == 0

    def test_q1_only_all_ones(self):
        assert composition_count(5, 5, 1) == 1
        assert composition_count(6, 5, 1) == 0

    def test_exhaustive_against_enumeration(self):
        for q in range(1, 6):
            for n in range(1, 7):
                for k in range(1, 19):
                    assert composition_count(k, n, q) == count_bounded_compositions(
                        k, n, q
                    )

    @pytest.mark.parametrize("k,n,q", [(0, 2, 3), (4, 0, 3), (4, 2, 0)])
    def test_domain_errors(self, k, n, q):
        with pytest.raises(ValueError):
            composition_count(k, n, q)


class TestScaledProbability:
    def test_examples(self):
        assert scaled_probability(1, 0, 2) == Fraction(1, 3)
        assert scaled_probability(2, 2, 2) == Fraction(1, 3)
        assert scaled_probability(2, 5, 2) == 0

    @given(n=st.integers(1, 25), q=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, n, q):
        total = sum(scaled_probability(n, k, q) for k in range(n * q + 1))
        assert total == 1

    @staticmethod
    def assert_same_fraction(n, k, q):
        got = scaled_probability(n, k, q)
        want = Fraction(coefficient(n, k, q), (q + 1) ** n)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want) and str(got) == str(want)

    @given(n=st.integers(1, 300), q=st.integers(1, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lowest_terms(self, n, q, data):
        k = data.draw(st.integers(-2, n * q + 2))
        self.assert_same_fraction(n, k, q)

    # the first three exceed the first probe (q+1)**8 and need a second:
    # at k = 1 the coefficient is n, with 2-adic valuation 10 in 2**10 and 9
    # in 2**9 * 3 (q+1 = 6), and the (96, 94, 2) coefficient has 3-adic
    # valuation 13; in 3**7 and 6**4 the first probe covers it
    @pytest.mark.parametrize(
        "n,k,q",
        [(2**10, 1, 1), (2**9 * 3, 1, 5), (96, 94, 2), (3**7, 1, 2), (6**4, 1, 5)],
    )
    def test_lowest_terms_at_high_valuation(self, n, k, q):
        self.assert_same_fraction(n, k, q)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            scaled_probability(0, 0, 2)
        with pytest.raises(ValueError):
            scaled_probability(2, 0, 0)


class TestOutsideTheSupport:
    """A point query outside 0..n*q is zero without building a row."""

    @pytest.mark.parametrize(
        "query",
        [
            lambda: coefficient(20000, -1, 2),
            lambda: coefficient(3, 13, 4),
            lambda: scaled_probability(15000, 10**6, 2),
            lambda: composition_count(5, 12000, 3),
        ],
        ids=["coefficient-below", "coefficient-above", "scaled_probability",
             "composition_count"],
    )
    def test_zero_and_no_row(self, query):
        before = compute_row.cache_info()
        assert query() == 0
        assert compute_row.cache_info() == before

    @pytest.mark.parametrize("query", [coefficient, scaled_probability],
                             ids=["coefficient", "scaled_probability"])
    @pytest.mark.parametrize(
        "n,q,message",
        [(0, 2, "n must be a positive integer, got 0"),
         (3, 0, "q must be a positive integer, got 0"),
         (-1, 2, "n must be a positive integer, got -1")],
    )
    def test_invalid_n_or_q_still_raises(self, query, n, q, message):
        with pytest.raises(ValueError, match=message):
            query(n, -1, q)

    def test_float_still_refused(self):
        with pytest.raises(TypeError):
            coefficient(2.0, -1, 2)


class TestNumpyIntegers:
    """numpy integers in n, q and order give the Python-int results: every
    value is built from ints, since int64 arithmetic wraps."""

    N, Q = np.int64(200), np.int64(2)

    def test_row_from_a_numpy_key_serves_int_queries(self):
        compute_row.cache_clear()
        row = compute_row(self.N, self.Q)
        assert (type(row.n), type(row.q), type(row.total)) == (int, int, int)
        assert row.coeffs == _recurrence.row(200, 2)
        value = coefficient(200, 200, 2)
        assert type(value) is int and value == _recurrence.coefficient(200, 200, 2)
        assert scaled_probability(self.N, 150, self.Q) == Fraction(
            row.coeffs[150], 3**200)

    def test_kernel(self):
        assert _recurrence.row(self.N, self.Q) == _recurrence.row(200, 2)
        value = _recurrence.coefficient(self.N, np.int64(150), self.Q)
        assert type(value) is int and value == _recurrence.coefficient(200, 150, 2)

    @pytest.mark.parametrize(
        "function",
        [
            lambda n, q: exact_scaled_value(n, 150, q),
            lambda n, q: standardize(n, 150, q),
            lambda n, q: approximate_scaled(n, 150, q, 2),
            central_ratio,
        ],
        ids=["exact_scaled_value", "standardize", "approximate_scaled",
             "central_ratio"],
    )
    def test_float_layer(self, function):
        compute_row.cache_clear()
        got = function(self.N, self.Q)
        compute_row.cache_clear()
        assert type(got) is float and got == function(200, 2)

    def test_rate_sweep(self):
        ns = np.array([50, 100, 200])
        harness._joined.cache_clear()
        harness._partial_sum.cache_clear()
        got = rate_sweep(self.Q, 1, ns)
        harness._joined.cache_clear()
        harness._partial_sum.cache_clear()
        assert got == rate_sweep(2, 1, [50, 100, 200])
        assert all(type(r.n) is int for r in got.records)

    def test_cumulants(self):
        k, q = np.int64(20), np.int64(8)
        uniform_correction.cache_clear()  # so that the numpy q builds its entry
        assert cumulant(k, q) == cumulant(20, 8)
        assert cumulants_from_moments(k, q) == cumulants_from_moments(20, 8)
        assert uniform_correction(12, q) == uniform_correction.__wrapped__(12, 8)

    @staticmethod
    def assert_int_coefficients(gp, expected):
        assert gp == expected
        assert all(type(c.numerator) is int and type(c.denominator) is int
                   for c in gp.poly.coeffs)

    def test_orders(self):
        order = np.int64(12)
        uniform_correction.cache_clear()  # so that the numpy order builds its entry
        self.assert_int_coefficients(uniform_correction(order, 8),
                                     uniform_correction.__wrapped__(12, 8))
        closed = cumulants_up_to(14, 8)
        self.assert_int_coefficients(
            correction_from_cumulants(order, closed, closed.gamma(2)),
            correction_from_cumulants(12, closed, closed.gamma(2)))

    def test_hermite_degree(self):
        # hermite caches the int row that the correction builders read, so a
        # numpy degree must not leave an int64 row there
        hermite.cache_clear()
        _hermite_coeffs.cache_clear()
        want_h, want = hermite(40), uniform_correction.__wrapped__(10, 2)  # H_22..H_40
        hermite.cache_clear()
        _hermite_coeffs.cache_clear()
        h = hermite(np.int64(40))
        assert h == want_h
        assert all(type(c.numerator) is int for c in h.coeffs)
        assert all(type(c) is int for c in _hermite_coeffs(40))
        self.assert_int_coefficients(uniform_correction.__wrapped__(10, 2), want)

    def test_rate_sweep_order(self):
        harness._joined.cache_clear()
        harness._partial_sum.cache_clear()
        got = rate_sweep(2, np.int64(3), [50, 100, 200])
        harness._joined.cache_clear()
        harness._partial_sum.cache_clear()
        assert got == rate_sweep(2, 3, [50, 100, 200])
        assert type(got.order) is int
