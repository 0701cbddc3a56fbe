"""Exact core: rows, coefficients, bounded compositions, probabilities.

Oracles here stay independent of the production path: schoolbook
polynomial multiplication (no sliding window) and direct recursive
enumeration of bounded compositions.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import re
import sys
import threading
from fractions import Fraction
from functools import cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extbinom
from extbinom import (
    _recurrence,
    exact,
    CumulantVector,
    GaussianPolynomial,
    RationalPolynomial,
    approximate_scaled,
    bernoulli,
    central_ratio,
    coefficient,
    composition_count,
    compute_row,
    correction_from_cumulants,
    cumulant,
    cumulants_from_moments,
    cumulants_up_to,
    enumerate_partition_solutions,
    exact_scaled_value,
    first_order_cross_check,
    harness,
    hermite,
    iter_rows,
    rate_sweep,
    scaled_probability,
    standardize,
    uniform_correction,
    uniform_error,
)
from extbinom.special import (
    _hermite_coeffs,
    _series,
    uniform_polynomial,
)


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
    # valuation 13; in 3**7 and 6**4 the first probe covers it.  The last
    # three need a second probe too: 2-adic valuation 18 > 8 * 2 (q+1 = 4),
    # 2-adic 9 > 8 (q+1 = 6) and 3-adic 10 > 8 (q+1 = 12)
    @pytest.mark.parametrize(
        "n,k,q",
        [(2**10, 1, 1), (2**9 * 3, 1, 5), (96, 94, 2), (3**7, 1, 2), (6**4, 1, 5),
         (110, 11, 3), (14, 11, 5), (34, 58, 11)],
    )
    def test_lowest_terms_at_high_valuation(self, n, k, q):
        self.assert_same_fraction(n, k, q)

    # q+1 a prime power (4, 8, 16) or a composite (6, 12); n up to 8 takes
    # the full gcd at once, larger n probes (q+1)**m first; k at both ends
    # (coefficient 1, so g = 1), the centre, or anywhere
    @given(
        q=st.sampled_from([3, 7, 15, 5, 11]),
        n=st.one_of(st.integers(1, 7), st.integers(8, 400)),
        where=st.sampled_from(["first", "last", "centre", "any"]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_fraction(self, q, n, where, data):
        top = n * q
        if where == "any":
            k = data.draw(st.integers(0, top))
        else:
            k = {"first": 0, "last": top, "centre": top // 2}[where]
        got = scaled_probability(n, k, q)
        want = Fraction(_recurrence.coefficient(n, k, q), (q + 1) ** n)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want) and repr(got) == repr(want)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            scaled_probability(0, 0, 2)
        with pytest.raises(ValueError):
            scaled_probability(2, 0, 0)


def _measured_bits(coeffs) -> int:
    """sys.getsizeof of a row's tuple and of its distinct ints, in bits."""
    distinct = {id(c): c for c in coeffs}.values()
    return 8 * (sys.getsizeof(coeffs) + sum(map(sys.getsizeof, distinct)))


class TestRowCacheBudget:
    """compute_row keeps rows up to a budget of estimated bits, not up to
    a count of rows; no test here builds a large row."""

    def test_hits_stay_in_functools_c_code(self):
        from _functools import _lru_cache_wrapper

        assert isinstance(compute_row, _lru_cache_wrapper)
        assert compute_row.cache_parameters()["maxsize"] is None

    def test_more_than_64_rows_are_all_kept(self):
        keys = [(n, q) for q in (1, 2, 3) for n in range(1, 31)]
        compute_row.cache_clear()
        for n, q in keys:
            compute_row(n, q)
        first = compute_row.cache_info()
        assert first.misses == first.currsize == len(keys) > 64
        for n, q in keys:
            compute_row(n, q)
        second = compute_row.cache_info()
        assert second.misses == first.misses and second.currsize == len(keys)
        assert second.hits == first.hits + len(keys)

    @given(n=st.integers(1, 150), q=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_estimate_covers_the_measured_size(self, n, q):
        coeffs = _recurrence.row(n, q)
        measured = _measured_bits(coeffs)
        assert measured <= exact._row_bits(coeffs) <= 4 * measured

    def test_a_small_budget_flushes_and_bounds_what_is_held(self, monkeypatch):
        keys = [(n, q) for q in (2, 5, 3) for n in range(20, 60, 3)]
        bits = {key: exact._row_bits(_recurrence.row(*key)) for key in keys}
        budget = 4 * max(bits.values())
        monkeypatch.setattr(exact, "ROW_CACHE_BITS", budget)
        compute_row.cache_clear()
        held, flushes, largest = [], 0, 0
        for key in keys:
            # the policy: a row that would take the total past the budget
            # empties the cache first
            if sum(bits[k] for k in held) + bits[key] > budget:
                held, flushes = [], flushes + 1
            held.append(key)
            row = compute_row(*key)
            assert row.coeffs == _recurrence.row(*key)
            info = compute_row.cache_info()
            assert info.currsize == len(held)
            assert sum(bits[k] for k in held) <= budget
            largest = max(largest, info.currsize)
        assert flushes >= 3
        assert largest <= budget // min(bits.values())
        # the miss that flushes is counted before the flush
        compute_row.cache_clear()
        monkeypatch.setattr(exact, "ROW_CACHE_BITS", bits[keys[0]])
        compute_row(*keys[0])
        compute_row(*keys[1])
        info = compute_row.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 1)
        assert compute_row(*keys[1]).coeffs == _recurrence.row(*keys[1])

    def test_a_row_above_the_budget_is_still_served(self, monkeypatch):
        monkeypatch.setattr(exact, "ROW_CACHE_BITS", 1)
        compute_row.cache_clear()
        for n in (30, 40, 30):
            assert compute_row(n, 4).coeffs == _recurrence.row(n, 4)
            assert compute_row.cache_info().currsize == 1

    def test_an_outside_clear_restarts_the_count(self, monkeypatch):
        first = [(n, 3) for n in range(30, 40)]
        second = [(n, 4) for n in range(20, 30)]
        budget = sum(exact._row_bits(_recurrence.row(*key)) for key in first)
        assert sum(exact._row_bits(_recurrence.row(*key)) for key in second) <= budget
        monkeypatch.setattr(exact, "ROW_CACHE_BITS", budget)
        for keys in (first, second):
            compute_row.cache_clear()  # as tests and the benchmark's rounds do
            for key in keys:
                compute_row(*key)
            # no flush: the count did not carry the cleared rows over
            info = compute_row.cache_info()
            assert info.currsize == info.misses == len(keys)

    def test_concurrent_builds_stay_within_the_budget(self, monkeypatch):
        keys = [(n, q) for q in (2, 3, 4, 6) for n in range(10, 50, 2)]
        bits = {key: exact._row_bits(_recurrence.row(*key)) for key in keys}
        budget = 5 * max(bits.values())
        monkeypatch.setattr(exact, "ROW_CACHE_BITS", budget)
        compute_row.cache_clear()
        wrong = []

        def build(part):
            for _ in range(3):
                for key in part:
                    if compute_row(*key).coeffs != _recurrence.row(*key):
                        wrong.append(key)

        threads = [threading.Thread(target=build, args=(keys[i::4],)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        # Which rows are held: with the budget lifted no probe flushes, so
        # a probe that hits found its row cached and one that misses did not.
        monkeypatch.setattr(exact, "ROW_CACHE_BITS", 2**62)
        held = []
        for key in keys:
            hits = compute_row.cache_info().hits
            compute_row(*key)
            if compute_row.cache_info().hits > hits:
                held.append(key)
        # each of the four threads may add one row past the budget
        assert sum(bits[k] for k in held) <= budget + 4 * max(bits.values())


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

    @pytest.mark.parametrize("query", [coefficient, scaled_probability],
                             ids=["coefficient", "scaled_probability"])
    def test_support_is_tested_in_ints(self, query, monkeypatch):
        # np.int64(2**62) * np.int64(4) wraps to 0, which would put k = 1
        # outside the support; in ints it is inside, so the row is wanted
        def build(n, q):
            raise LookupError(type(n), n, type(q), q)

        monkeypatch.setattr(exact, "compute_row", build)
        with pytest.raises(LookupError) as wanted:
            query(np.int64(2**62), 1, np.int64(4))
        assert wanted.value.args == (int, 2**62, int, 4)

    # a float is refused on every branch, before any row is built: in n, in
    # q on composition_count's q == 1 branch, and in a k outside the support
    # or inside it
    @pytest.mark.parametrize(
        "query",
        [
            lambda: coefficient(2.0, -1, 2),
            lambda: composition_count(3, 3, 1.0),
            lambda: composition_count(3, 3.0, 1.0),
            lambda: coefficient(4, 20.0, 2),
            lambda: scaled_probability(4, 20.0, 2),
            lambda: composition_count(50.0, 3, 3),
            lambda: _recurrence.coefficient(4, 20.0, 2),
            lambda: exact_scaled_value(4, 20.0, 2),
            lambda: coefficient(4, 2.0, 2),
            lambda: scaled_probability(4, 2.0, 2),
            lambda: composition_count(5.0, 3, 3),
        ],
        ids=["coefficient-n", "composition_count-q", "composition_count-n-q",
             "coefficient-k", "scaled_probability-k", "composition_count-k",
             "kernel-k", "exact_scaled_value-k", "coefficient-k-inside",
             "scaled_probability-k-inside", "composition_count-k-inside"],
    )
    def test_float_still_refused(self, query):
        compute_row.cache_clear()
        with pytest.raises(TypeError):
            query()
        assert compute_row.cache_info().currsize == 0


def _correction(order):
    closed = cumulants_up_to(14, 8)
    return correction_from_cumulants(order, closed, closed.gamma(2))


# Every function that takes integer arguments through the gate in
# ``_recurrence``: the call, its int arguments, the same with one argument
# below its bound, and that refusal's message.
GATED = {
    "kernel_row": (_recurrence.row, (200, 2), (0, 2),
                   "n must be a positive integer, got 0"),
    "kernel_coefficient": (_recurrence.coefficient, (200, 150, 2), (200, 150, 0),
                           "q must be a positive integer, got 0"),
    "compute_row": (compute_row, (200, 2), (200, -1),
                    "q must be a positive integer, got -1"),
    "iter_rows": (lambda q, n_max: list(iter_rows(q, n_max)), (3, 40), (3, 0),
                  "n must be a positive integer, got 0"),
    "coefficient": (coefficient, (200, 150, 2), (0, 150, 2),
                    "n must be a positive integer, got 0"),
    "scaled_probability": (scaled_probability, (200, 150, 2), (200, 150, 0),
                           "q must be a positive integer, got 0"),
    "composition_count": (composition_count, (300, 200, 3), (0, 200, 3),
                          "k must be a positive integer, got 0"),
    "bernoulli": (bernoulli, (30,), (-1,), "m must be a nonnegative integer, got -1"),
    "hermite": (hermite, (40,), (-2,), "m must be a nonnegative integer, got -2"),
    "enumerate_partition_solutions": (enumerate_partition_solutions, (8,), (0,),
                                      "order must be a positive integer, got 0"),
    "cumulant": (cumulant, (20, 8), (0, 8),
                 "cumulant order must be a positive integer, got 0"),
    "cumulants_up_to": (cumulants_up_to, (20, 8), (0, 8),
                        "cumulant order must be a positive integer, got 0"),
    "cumulants_from_moments": (cumulants_from_moments, (20, 8), (20, 0),
                               "q must be a positive integer, got 0"),
    "CumulantVector.gamma": (lambda k: cumulants_up_to(4, 2).gamma(k), (2,), (0,),
                             "cumulant order must be a positive integer, got 0"),
    # k of the float layer is not gated: a float or float array is used as it
    # is, and a numpy integer or bool k, scalar or array, is taken as int64
    "standardize": (lambda n, q: standardize(n, 150, q), (200, 2), (-3, 2),
                    "n must be a positive integer, got -3"),
    "exact_scaled_value": (exact_scaled_value, (200, 150, 2), (200, 150, 0),
                           "q must be a positive integer, got 0"),
    "correction_from_cumulants": (_correction, (12,), (0,),
                                  "order must be a positive integer, got 0"),
    "uniform_correction": (uniform_correction, (12, 8), (0, 8),
                           "order must be a positive integer, got 0"),
    "approximate_scaled": (lambda n, q, order: approximate_scaled(n, 150, q, order),
                           (200, 2, 2), (200, 2, -1),
                           "order must be a nonnegative integer, got -1"),
    "uniform_error": (uniform_error, (100, 2, 1), (100, 2, -1),
                      "order must be a nonnegative integer, got -1"),
    "rate_sweep": (rate_sweep, (2, 1, [50, 100, 200]), (2, 1, [0, 100, 200]),
                   "n must be a positive integer, got 0"),
    "central_ratio": (central_ratio, (200, 2), (200, 0),
                      "q must be a positive integer, got 0"),
    "first_order_cross_check": (lambda n, q: first_order_cross_check(n, 150, q),
                                (200, 2), (0, 2), "n must be a positive integer, got 0"),
}
CACHES = (compute_row, bernoulli, _hermite_coeffs, cumulant, _series,
          uniform_polynomial, harness._table)


def uncached_uniform_correction(order, q):
    """uniform_correction(order, q) built anew, past the polynomial cache
    and from no kept uniform series."""
    _series.cache_clear()
    return GaussianPolynomial(uniform_polynomial.__wrapped__(order, q))


def _leaves(value):
    """The scalars a result is made of, each Fraction as its two ints."""
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from _leaves(v)
    elif isinstance(value, Fraction):
        yield from (value.numerator, value.denominator)
    elif isinstance(value, RationalPolynomial):
        yield from _leaves(value.coeffs)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _leaves(getattr(value, field.name))
    else:
        yield value


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
        harness._table.cache_clear()
        got = rate_sweep(self.Q, 1, ns)
        harness._table.cache_clear()
        assert got == rate_sweep(2, 1, [50, 100, 200])
        assert all(type(r.n) is int for r in got.records)

    def test_cumulants(self):
        k, q = np.int64(20), np.int64(8)
        uniform_polynomial.cache_clear()  # so that the numpy q builds its entry
        assert cumulant(k, q) == cumulant(20, 8)
        assert cumulants_from_moments(k, q) == cumulants_from_moments(20, 8)
        assert uniform_correction(12, q) == uncached_uniform_correction(12, 8)

    @staticmethod
    def assert_int_coefficients(gp, expected):
        assert gp == expected
        assert all(type(c.numerator) is int and type(c.denominator) is int
                   for c in gp.poly.coeffs)

    def test_orders(self):
        order = np.int64(12)
        uniform_polynomial.cache_clear()  # so that the numpy order builds its entry
        self.assert_int_coefficients(uniform_correction(order, 8),
                                     uncached_uniform_correction(12, 8))
        closed = cumulants_up_to(14, 8)
        self.assert_int_coefficients(
            correction_from_cumulants(order, closed, closed.gamma(2)),
            correction_from_cumulants(12, closed, closed.gamma(2)))

    def test_rational_arguments(self):
        # Fraction(np.int64(5)).numerator is an np.int64: wrapping a value
        # in Fraction converts nothing
        closed = cumulants_up_to(14, 3)
        want = correction_from_cumulants(12, closed, 5)
        for variance in (np.int64(5), Fraction(np.int64(5))):
            self.assert_int_coefficients(
                correction_from_cumulants(12, closed, variance), want)
        as_numpy = CumulantVector(tuple(
            Fraction(np.int64(g.numerator), np.int64(g.denominator))
            for g in closed.gammas))
        self.assert_int_coefficients(correction_from_cumulants(12, as_numpy, 5), want)
        ints = CumulantVector(tuple(range(1, 15)))
        self.assert_int_coefficients(
            correction_from_cumulants(12, CumulantVector(tuple(map(np.int64, ints.gammas))), 5),
            correction_from_cumulants(12, ints, 5))

    def test_polynomial_coefficients(self):
        p = RationalPolynomial([np.int64(3), np.int64(2**62)])
        assert p == RationalPolynomial([3, 2**62])
        assert all(type(c.numerator) is int for c in p.coeffs)
        assert (p + p).coeffs == (6, 2**63)
        assert p(2) == 3 + 2**63
        assert (p * Fraction(2**70)).coeffs == (3 * 2**70, 2**132)

    @pytest.mark.filterwarnings("error")  # as -W error: numpy's overflow warning fails
    def test_fraction_of_numpy_coefficients(self):
        # Fraction(np.int64(3)).numerator is an np.int64: a Fraction keeps
        # numpy integers, so RationalPolynomial must convert it too
        p = RationalPolynomial([Fraction(np.int64(3)), Fraction(np.int64(2**62), np.int64(3))])
        assert all(type(c.numerator) is int and type(c.denominator) is int
                   for c in p.coeffs)
        assert (p + p).coeffs == (6, Fraction(2**63, 3))
        assert p(3) == 3 + 2**62

    def test_hermite_degree(self):
        # _hermite_coeffs caches the int row that the correction builders
        # read, so a numpy degree must not leave an int64 row there
        _hermite_coeffs.cache_clear()
        want_h, want = hermite(40), uncached_uniform_correction(10, 2)  # H_22..H_40
        _hermite_coeffs.cache_clear()
        h = hermite(np.int64(40))
        assert h == want_h
        assert all(type(c.numerator) is int for c in h.coeffs)
        assert all(type(c) is int for c in _hermite_coeffs(40))
        self.assert_int_coefficients(uncached_uniform_correction(10, 2), want)

    def test_rate_sweep_order(self):
        harness._table.cache_clear()
        got = rate_sweep(2, np.int64(3), [50, 100, 200])
        harness._table.cache_clear()
        assert got == rate_sweep(2, 3, [50, 100, 200])
        assert type(got.order) is int

    @pytest.mark.parametrize("entry", GATED.values(), ids=GATED)
    def test_int_result(self, entry):
        function, args, _, _ = entry
        numpy_args = [np.array(a) if isinstance(a, list) else np.int64(a) for a in args]
        for cache in CACHES:  # so that the numpy arguments build every entry
            cache.cache_clear()
        got = function(*numpy_args)
        for cache in CACHES:
            cache.cache_clear()
        assert got == function(*args)
        assert {type(v) for v in _leaves(got)} <= {int, float}

    @pytest.mark.parametrize("entry", GATED.values(), ids=GATED)
    def test_below_bound(self, entry):
        function, _, below, message = entry
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            function(*below)

    # compute_row is left out: its cache is read before the gate, so that
    # a hit stays in lru_cache's C code, and 4.0 finds the row of 4
    @pytest.mark.parametrize("name", [name for name in GATED if name != "compute_row"])
    def test_float_refused_with_its_int_cached(self, name):
        function, args, _, _ = GATED[name]
        function(*args)
        function(*[np.int64(a) if type(a) is int else a for a in args])
        for i, a in enumerate(args):
            if type(a) is int:
                with pytest.raises(TypeError):
                    function(*args[:i], float(a), *args[i + 1:])

    def test_caches_names_every_cache(self):
        # what test_int_result clears: a cache left out would serve it the
        # entry of an int argument, and the numpy one would go untested
        found = set()
        for info in pkgutil.iter_modules(extbinom.__path__):
            module = importlib.import_module(f"extbinom.{info.name}")
            found |= {f"{module.__name__}.{name}" for name, obj in vars(module).items()
                      if getattr(obj, "__module__", None) == module.__name__
                      and hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")}
        assert found == {f"{c.__module__}.{c.__name__}" for c in CACHES}
