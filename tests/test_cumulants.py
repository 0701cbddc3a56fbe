"""Closed-form cumulants of the uniform on {0..q} against the
moment-recursion route, and the two routes that keep a series per q."""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extbinom import bernoulli, cumulant, cumulants_from_moments, cumulants_up_to, special
from extbinom.special import (
    _fraction,
    _series,
    gammas_from_moments,
    gammas_up_to,
    general_polynomial,
    uniform_polynomial,
)


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
            _series.cache_clear()
            fresh[order, q] = gammas_from_moments(order, q)
    _series.cache_clear()
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
            _series.cache_clear()
            for order in orders:
                assert gammas_from_moments(order, q) == fresh_moments[order, q]

    def test_threads_interleave_orders(self, fresh_moments):
        q = 10**9
        _series.cache_clear()
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
        _series.cache_clear()
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


UNIFORM_QS = (1, 2, 8, 10**9)
UNIFORM_ORDERS = range(1, 31)


def clear_uniform():
    uniform_polynomial.cache_clear()
    _series.cache_clear()


@pytest.fixture(scope="module")
def fresh_uniform():
    """uniform_polynomial(order, q) built from no memo entry and no kept
    series, for every q of UNIFORM_QS and order of UNIFORM_ORDERS."""
    fresh = {}
    for q in UNIFORM_QS:
        for order in UNIFORM_ORDERS:
            clear_uniform()
            fresh[order, q] = uniform_polynomial(order, q)
    clear_uniform()
    return fresh


class TestKeptUniformSeries:
    """uniform_polynomial keeps its columns of truncated powers per q and
    steps them only past the longest order asked so far; no call order,
    thread or interrupted step may change what a call returns."""

    def test_fresh_builds_give_the_general_route(self, fresh_uniform):
        # the kept table is rescaled to a wider L at most of orders 2..9 and at 17
        for q in UNIFORM_QS:
            gammas, variance = gammas_up_to(42, q), cumulant(2, q)
            for order in range(1, 21):
                assert fresh_uniform[order, q] == general_polynomial(2 * order, gammas, variance)

    @given(q=st.sampled_from(UNIFORM_QS), shuffled=st.permutations(UNIFORM_ORDERS))
    @settings(max_examples=10, deadline=None)
    def test_any_call_order(self, fresh_uniform, q, shuffled):
        for orders in (UNIFORM_ORDERS, UNIFORM_ORDERS[::-1], shuffled):
            clear_uniform()
            for order in orders:
                assert uniform_polynomial(order, q) == fresh_uniform[order, q]

    def test_threads_interleave_orders(self, fresh_uniform):
        q = 10**9
        clear_uniform()
        start = threading.Barrier(4, timeout=60)
        results = {}

        def work(i):
            orders = list(UNIFORM_ORDERS[i::4])
            random.Random(i).shuffle(orders)
            start.wait()
            results[i] = [(order, uniform_polynomial(order, q)) for order in orders]

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
            for order, poly in got:
                assert poly == fresh_uniform[order, q]

    # _base runs while a block of bases widens L, before the kept table is
    # rescaled; mul while a column's sums are taken
    @pytest.mark.parametrize("name", ["_base", "mul"])
    def test_interrupted_step_leaves_no_short_series(self, fresh_uniform, monkeypatch, name):
        q = 8
        clear_uniform()
        assert uniform_polynomial(3, q) == fresh_uniform[3, q]
        step, calls = getattr(special, name), []

        def interrupt_once(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return step(*args)

        monkeypatch.setattr(special, name, interrupt_once)
        with pytest.raises(KeyboardInterrupt):
            uniform_polynomial(20, q)
        assert len(calls) == 3
        monkeypatch.undo()
        for order in (20, 5, 12, 24):
            assert uniform_polynomial(order, q) == fresh_uniform[order, q]

    def test_numpy_q_reads_the_int_series(self, fresh_uniform):
        clear_uniform()
        assert uniform_polynomial(12, 8) == fresh_uniform[12, 8]
        before = _series.cache_info()
        got = uniform_polynomial(14, np.int64(8))  # a memo miss: typed keys
        info = _series.cache_info()
        assert (info.hits, info.misses) == (before.hits + 1, before.misses)
        assert got == fresh_uniform[14, 8]
        assert all(type(c.numerator) is int and type(c.denominator) is int
                   for c in got.coeffs)

    def test_four_q_kept(self):
        clear_uniform()
        for q in range(1, 7):
            uniform_polynomial(2, q)
        assert _series.cache_info().currsize == 4
        assert _series.cache_parameters()["maxsize"] == 4


class TestOneSeriesHolder:
    """Both resumed routes keep their series of q in one entry of
    _series: an interrupted step of one route leaves the other's series,
    and eviction drops both."""

    def test_both_routes_share_one_entry(self, fresh_moments, fresh_uniform):
        q = 8
        clear_uniform()
        assert gammas_from_moments(12, q) == fresh_moments[12, q]
        assert uniform_polynomial(5, q) == fresh_uniform[5, q]
        assert _series.cache_info().currsize == 1
        assert set(_series(q)) == {special._moment_cumulants, special._uniform_columns}

    @pytest.mark.parametrize("name", ["_base", "mul"])
    def test_interrupted_uniform_step_keeps_the_moment_series(
            self, fresh_moments, fresh_uniform, monkeypatch, name):
        q = 8
        clear_uniform()
        assert gammas_from_moments(12, q) == fresh_moments[12, q]
        assert uniform_polynomial(3, q) == fresh_uniform[3, q]
        gammas = _series(q)[special._moment_cumulants][0]
        step, calls = getattr(special, name), []

        def interrupt_once(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return step(*args)

        monkeypatch.setattr(special, name, interrupt_once)
        with pytest.raises(KeyboardInterrupt):
            uniform_polynomial(20, q)
        assert len(calls) == 3
        monkeypatch.undo()
        kept = _series(q)
        assert special._uniform_columns not in kept
        assert kept[special._moment_cumulants][0] is gammas
        assert len(gammas) == 12
        assert gammas_from_moments(12, q) == fresh_moments[12, q]
        assert uniform_polynomial(20, q) == fresh_uniform[20, q]

    def test_four_other_q_evict_both_routes(self):
        q = 8
        clear_uniform()
        gammas_from_moments(12, q)
        uniform_polynomial(5, q)
        gammas_from_moments(4, 1)
        gammas_from_moments(4, 2)
        uniform_polynomial(2, 3)
        uniform_polynomial(2, 4)
        assert _series.cache_info().currsize == 4
        misses = _series.cache_info().misses
        assert _series(q) == {}
        assert _series.cache_info().misses == misses + 1
