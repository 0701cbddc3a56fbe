"""Closed-form cumulants of the uniform on {0..q} against the
moment-recursion route."""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extbinom import bernoulli, cumulant, cumulants_from_moments, cumulants_up_to, special
from extbinom.special import _fraction, _moment_series, gammas_from_moments


class TestClosedForm:
    def test_mean(self):
        assert cumulant(1, 5) == Fraction(5, 2)
        # standardize reads the reduced form: denominator 1 for even q, 2 for odd
        for q in range(1, 13):
            assert cumulant(1, q).as_integer_ratio() == ((q, 2) if q % 2 else (q // 2, 1))

    def test_variance(self):
        assert cumulant(2, 2) == Fraction(2, 3)
        for q in range(1, 10):
            assert cumulant(2, q) == Fraction(q * (q + 2), 12)

    def test_odd_vanish(self):
        assert cumulant(3, 7) == 0
        for k in (3, 5, 7, 9, 11):
            for q in (1, 2, 5):
                assert cumulant(k, q) == 0

    def test_fourth_order(self):
        assert cumulant(4, 1) == Fraction(-1, 8)

    def test_variance_positive(self):
        for q in range(1, 13):
            assert cumulant(2, q) > 0

    @pytest.mark.parametrize("q", range(1, 13))
    def test_equals_fraction_arithmetic(self, q):
        # the closed form as two Fraction operations, each normalising
        for k in range(1, 401):
            if k == 1:
                expected = Fraction(q, 2)
            elif k % 2:
                expected = Fraction(0)
            else:
                expected = bernoulli(k) / k * ((q + 1) ** k - 1)
            got = cumulant(k, q)
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (
                expected.numerator, expected.denominator
            )

    @pytest.mark.parametrize("k,q", [(0, 2), (3, 0), (0, 0)])
    def test_domain_errors(self, k, q):
        with pytest.raises(ValueError):
            cumulant(k, q)


class TestVectors:
    def test_batch(self):
        assert cumulants_up_to(2, 2).gammas == (Fraction(1), Fraction(2, 3))
        assert cumulants_up_to(3, 3).gammas == (
            Fraction(3, 2),
            Fraction(5, 4),
            Fraction(0),
        )
        assert cumulants_up_to(1, 1).gammas == (Fraction(1, 2),)

    def test_gamma_accessor(self):
        vec = cumulants_up_to(4, 2)
        assert vec.gamma(1) == 1
        assert len(vec) == 4
        with pytest.raises(ValueError):
            vec.gamma(5)
        with pytest.raises(ValueError):
            vec.gamma(0)


class TestMomentOracle:
    def test_examples(self):
        assert cumulants_from_moments(2, 2).gammas == (Fraction(1), Fraction(2, 3))
        assert cumulants_from_moments(4, 1).gammas == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(0),
            Fraction(-1, 8),
        )
        assert cumulants_from_moments(1, 9).gammas == (Fraction(9, 2),)

    def test_closed_form_matches_oracle(self):
        # validates the whole cumulant derivation without touching the
        # characteristic function
        for q in (*range(1, 7), 10**9, 10**18):
            oracle = cumulants_from_moments(12, q)
            for k in range(1, 13):
                assert cumulant(k, q) == oracle.gamma(k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cumulants_from_moments(0, 3)
        with pytest.raises(ValueError):
            cumulants_from_moments(3, 0)


MOMENT_QS = (1, 2, 3, 8, 100, 10**9)
MOMENT_ORDERS = range(1, 61)


@pytest.fixture(scope="module")
def fresh_moments():
    """gammas_from_moments(order, q) of a freshly cleared call, for every
    q of MOMENT_QS and order of MOMENT_ORDERS."""
    fresh = {}
    for q in MOMENT_QS:
        for order in MOMENT_ORDERS:
            _moment_series.cache_clear()
            fresh[order, q] = gammas_from_moments(order, q)
    _moment_series.cache_clear()
    return fresh


class TestKeptMomentSeries:
    """gammas_from_moments keeps its recursion per q and steps it only past
    the longest order asked so far; no call order, thread or interrupted
    step may change what a call returns."""

    def test_fresh_calls_give_the_closed_form(self, fresh_moments):
        for (order, q), gammas in fresh_moments.items():
            assert gammas == tuple(cumulant(k, q) for k in range(1, order + 1))

    @given(q=st.sampled_from(MOMENT_QS), shuffled=st.permutations(MOMENT_ORDERS))
    @settings(max_examples=20, deadline=None)
    def test_any_call_order(self, fresh_moments, q, shuffled):
        for orders in (MOMENT_ORDERS, MOMENT_ORDERS[::-1], shuffled):
            _moment_series.cache_clear()
            for order in orders:
                assert gammas_from_moments(order, q) == fresh_moments[order, q]

    def test_threads_interleave_orders(self, fresh_moments):
        q = 10**9
        _moment_series.cache_clear()
        start = threading.Barrier(4, timeout=60)
        results = {}

        def work(i):
            orders = list(MOMENT_ORDERS[i::4])
            random.Random(i).shuffle(orders)
            start.wait()
            results[i] = [(order, gammas_from_moments(order, q)) for order in orders]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == [0, 1, 2, 3]
        for got in results.values():
            for order, gammas in got:
                assert gammas == fresh_moments[order, q]

    def test_interrupted_step_leaves_no_short_series(self, fresh_moments, monkeypatch):
        q = 8
        _moment_series.cache_clear()
        assert gammas_from_moments(3, q) == fresh_moments[3, q]
        calls = []

        def interrupt_once(numerator, denominator):
            calls.append(numerator)
            if len(calls) == 4:  # while gamma_7 is built
                raise KeyboardInterrupt
            return _fraction(numerator, denominator)

        monkeypatch.setattr(special, "_fraction", interrupt_once)
        with pytest.raises(KeyboardInterrupt):
            gammas_from_moments(10, q)
        assert gammas_from_moments(10, q) == fresh_moments[10, q]
        assert gammas_from_moments(5, q) == fresh_moments[5, q]
        assert gammas_from_moments(12, q) == fresh_moments[12, q]
