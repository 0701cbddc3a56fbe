"""Correction-term builders: both construction routes, the vanishing of
odd-order terms, and evaluation of the truncated expansion."""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extbinom import (
    CumulantVector,
    RationalPolynomial,
    approximate_scaled,
    bernoulli,
    correction_from_cumulants,
    cumulant,
    cumulants_from_moments,
    cumulants_up_to,
    enumerate_partition_solutions,
    hermite,
    standardize,
    uniform_correction,
)
from extbinom.harness import _scale
from extbinom.special import _hermite_coeffs

SQRT_2PI = math.sqrt(2 * math.pi)


# a skewed input: gamma_3 != 0, variance gamma_2 = 1/4
SKEWED = CumulantVector(
    gammas=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(-1, 30), Fraction(1, 7))
)


def partition_weights(order: int, bases) -> dict[int, Fraction]:
    """Oracle for the series weights: the sum over every multiplicity
    vector (k_1, ..., k_order) with k_1 + 2*k_2 + ... = order of
    prod_m bases[m-1]**k_m / k_m!, per part count s = sum k_m.  An s is
    present iff some vector with s parts has a nonzero product, even when
    the products of that s cancel."""
    by_s = defaultdict(Fraction)
    for ks in enumerate_partition_solutions(order):
        weight = Fraction(1)
        for base, mult in zip(bases, ks):
            if mult:
                weight *= base**mult / math.factorial(mult)
        if weight:
            by_s[sum(ks)] += weight
    return by_s


def oracle_uniform(order: int, q: int) -> RationalPolynomial:
    """uniform_correction(order, q).poly by partition enumeration."""
    qq2 = q * (q + 2)
    bases = [
        bernoulli(2 * m + 2) * ((q + 1) ** (2 * m + 2) - 1)
        / (math.factorial(2 * m + 2) * (m + 1))
        for m in range(1, order + 1)
    ]
    total = RationalPolynomial([0])
    for s, weight in partition_weights(order, bases).items():
        total = total + Fraction(6, qq2) ** s * weight * hermite(2 * (order + s))
    return Fraction(12, qq2) ** order * total


def oracle_general(order: int, cumulants, variance: Fraction) -> RationalPolynomial:
    """correction_from_cumulants(order, ...).poly by partition
    enumeration; raises the same ValueError at odd order."""
    bases = [
        Fraction(cumulants.gamma(m), math.factorial(m)) for m in range(3, order + 3)
    ]
    by_s = partition_weights(order, bases)
    if order % 2 and by_s:
        raise ValueError(
            "term leaves an odd power of sigma: only cumulant inputs with "
            "vanishing odd cumulants are supported"
        )
    total = RationalPolynomial([0])
    for s, weight in by_s.items():
        total = total + weight / variance ** (order // 2 + s) * hermite(order + 2 * s)
    return total


def first_order_scalar(q: int) -> Fraction:
    """Exact multiplier of H_4 in the one-term correction."""
    return Fraction(-((q + 1) ** 4 - 1), 20 * q * q * (q + 2) ** 2)


class TestStandardize:
    def test_central_points_exactly_zero(self):
        assert standardize(10, 10, 2) == 0.0
        assert standardize(12, 6, 1) == 0.0

    def test_generic_point(self):
        assert standardize(4, 6, 2) == pytest.approx(math.sqrt(1.5), rel=1e-12)

    @given(n=st.integers(1, 500), q=st.integers(1, 8), data=st.data())
    @settings(max_examples=100)
    def test_zero_iff_central(self, n, q, data):
        k = data.draw(st.integers(-n * q, 2 * n * q))
        x = standardize(n, k, q)
        assert (x == 0.0) == (2 * k == n * q)

    def test_bits(self):
        # standardize reads the mean and variance from cumulant; the
        # reference writes them out, and the reduced forms differ from it
        # by powers of 2 only, so below q(q+2)n = 2^53 the bits agree
        for q in range(1, 13):
            for n in (1, 2, 7, 50, 101, 400, 10**6, 2**40 + 3):
                root = math.sqrt(3.0 / (q * (q + 2) * n))
                nq = n * q
                for k in (-5, 0, 1, nq // 3, nq // 2, nq, nq + 7):
                    assert standardize(n, k, q).hex() == ((2 * k - nq) * root).hex()
                if n <= 400:
                    ks = np.arange(nq + 1)
                    assert standardize(n, ks, q).tobytes() == ((2 * ks - nq) * root).tobytes()
                # _scale rounds the same real number once, at every n
                assert _scale(n, q) == math.sqrt(q * (q + 2) * n / 12)
            assert _scale(2**70, q) == math.sqrt(q * (q + 2) * 2**70 / 12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            standardize(0, 0, 2)
        with pytest.raises(ValueError):
            standardize(3, 1, 0)


class TestGeneralBuilder:
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 3, 5, 7])
    def test_odd_orders_vanish_for_uniform(self, order, q):
        cv = cumulants_up_to(order + 2, q)
        assert correction_from_cumulants(order, cv, cumulant(2, q)).poly.is_zero

    def test_order_two_uniform_q1(self):
        cv = cumulants_up_to(4, 1)
        built = correction_from_cumulants(2, cv, cumulant(2, 1))
        assert built.poly == Fraction(-1, 12) * hermite(4)

    def test_missing_cumulants_rejected(self):
        cv = cumulants_up_to(3, 2)
        with pytest.raises(ValueError, match="cumulants"):
            correction_from_cumulants(2, cv, cumulant(2, 2))

    def test_nonpositive_variance_rejected(self):
        cv = cumulants_up_to(5, 2)
        with pytest.raises(ValueError, match="variance"):
            correction_from_cumulants(3, cv, Fraction(0))

    @pytest.mark.parametrize("order", [1, 3])
    def test_odd_sigma_power_rejected(self, order):
        # gamma_3 != 0 leaves sigma^(order+2s) odd: sigma^3 at order 1
        with pytest.raises(ValueError, match="odd power of sigma"):
            correction_from_cumulants(order, SKEWED, Fraction(1, 4))

    def test_odd_order_rejected_when_weights_cancel(self):
        # only g_4, g_5, g_6 nonzero (g_k = gamma_(k+2) / (k+2)!): 15 is
        # reachable only as 5+5+5 and 4+5+6, whose s = 3 weights
        # g_5^3/6 + g_4 g_5 g_6 cancel at g_4 = g_5 = 1, g_6 = -1/6
        gammas = [Fraction(0)] * 17
        gammas[5:8] = Fraction(720), Fraction(5040), Fraction(-6720)  # gamma_6..8
        cancelling = CumulantVector(gammas=tuple(gammas))
        bases = [Fraction(cancelling.gamma(m + 2), math.factorial(m + 2)) for m in range(1, 16)]
        assert partition_weights(15, bases) == {3: 0}
        with pytest.raises(ValueError, match="odd power of sigma"):
            correction_from_cumulants(15, cancelling, Fraction(1))

    def test_order_two_skewed(self):
        # gamma_4/(24 sigma^4) H_4 + gamma_3^2/(72 sigma^6) H_6 with
        # gamma_3 = 1/10, gamma_4 = -1/30, sigma^2 = 1/4
        built = correction_from_cumulants(2, SKEWED, Fraction(1, 4))
        assert built.poly == Fraction(-1, 45) * hermite(4) + Fraction(2, 225) * hermite(6)

    def test_order_domain_error(self):
        with pytest.raises(ValueError):
            correction_from_cumulants(0, cumulants_up_to(4, 1), Fraction(1, 4))

    @pytest.mark.parametrize("variance", [0.1, 2.0, np.float64(0.25)])
    def test_float_variance_rejected(self, variance):
        # a float is not exact: 0.1 would be carried as its binary value
        with pytest.raises(TypeError, match="variance"):
            correction_from_cumulants(2, cumulants_up_to(4, 2), variance)

    def test_int_cumulants_stay_exact(self):
        ints = CumulantVector(gammas=(0, 1, 0, 1, 0, 1))
        fractions = CumulantVector(gammas=tuple(map(Fraction, ints.gammas)))
        for order in (2, 4):
            assert correction_from_cumulants(order, ints, 1) == (
                correction_from_cumulants(order, fractions, 1)
            )

    @pytest.mark.parametrize("order", range(1, 41))
    def test_single_cumulant_takes_the_longest_step(self, order):
        # only gamma_(order+2) != 0, so F_order = y g_order comes from the
        # one step k = order, whose falling factorial (order-1)!/0! is the
        # largest the recurrence forms
        for gamma in (7, Fraction(-5, 3)):
            gammas = [0] * (order + 2)
            gammas[-1] = gamma
            cv = CumulantVector(gammas=tuple(gammas))
            for variance in (1, Fraction(3, 7)):
                if order % 2:
                    with pytest.raises(ValueError, match="odd power of sigma"):
                        correction_from_cumulants(order, cv, variance)
                    continue
                expected = (
                    Fraction(gamma, math.factorial(order + 2))
                    / Fraction(variance) ** (order // 2 + 1)
                    * hermite(order + 2)
                )
                assert correction_from_cumulants(order, cv, variance).poly == expected

    @given(data=st.data(), order=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_matches_partition_oracle(self, data, order):
        # random rationals, each cumulant zero with probability about 1/2,
        # so that some orders are sums of the nonzero indices and some not
        fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 20))
        gamma = st.one_of(st.just(Fraction(0)), fractions)
        cv = CumulantVector(gammas=tuple(data.draw(st.lists(
            gamma, min_size=order + 2, max_size=order + 2
        ))))
        variance = data.draw(
            st.builds(Fraction, st.integers(1, 20), st.integers(1, 20))
        )
        try:
            expected = oracle_general(order, cv, variance)
        except ValueError as exc:
            with pytest.raises(ValueError) as built:
                correction_from_cumulants(order, cv, variance)
            assert str(built.value) == str(exc)
        else:
            assert correction_from_cumulants(order, cv, variance).poly == expected


class TestUniformBuilder:
    def test_q1_first_order(self):
        assert uniform_correction(1, 1).poly == Fraction(-1, 12) * hermite(4)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_first_order_closed_scalar(self, q):
        assert uniform_correction(1, q).poly == first_order_scalar(q) * hermite(4)

    @pytest.mark.parametrize("q", [*range(1, 9), 12])
    @pytest.mark.parametrize("order", range(1, 21))
    def test_matches_general_route(self, order, q):
        # uniform_correction reads cumulant(); the general route fed from
        # raw moments never calls bernoulli, so the check stays independent
        for route in (cumulants_up_to, cumulants_from_moments):
            cv = route(2 * order + 2, q)
            general = correction_from_cumulants(2 * order, cv, cv.gamma(2)).poly
            assert uniform_correction(order, q).poly == general, route.__name__

    @pytest.mark.parametrize("q", range(1, 9))
    def test_matches_partition_oracle(self, q):
        for order in range(1, 17):
            assert uniform_correction(order, q).poly == oracle_uniform(order, q)

    def test_fourth_order_q2_coefficients(self):
        # first order at which two partitions share a part count s
        even = [
            Fraction(6699, 524288), Fraction(11583, 327680), Fraction(-3333, 131072),
            Fraction(-41173, 327680), Fraction(737187, 9175040), Fraction(-22319, 1376256),
            Fraction(282973, 206438400), Fraction(-49, 983040), Fraction(1, 1572864),
        ]
        expected = tuple(c for e in even for c in (e, 0))[:-1]
        assert uniform_correction(4, 2).poly.coeffs == expected

    def test_second_order_degree_and_parity(self):
        poly = uniform_correction(2, 2).poly
        assert poly.degree == 8
        assert all(c == 0 for c in poly.coeffs[1::2])

    @pytest.mark.parametrize("order,q", [(1, 1), (1, 2), (2, 2), (3, 3)])
    def test_parity_even_powers_only(self, order, q):
        poly = uniform_correction(order, q).poly
        assert all(c == 0 for c in poly.coeffs[1::2])

    @pytest.mark.parametrize("order,q", [(1, 1), (1, 2), (2, 2), (3, 3)])
    def test_integrates_to_zero(self, order, q):
        # corrections are pure Hermite combinations of positive degree
        xs = np.linspace(-15.0, 15.0, 60_001)
        gp = uniform_correction(order, q)
        ys = np.exp(-0.5 * xs * xs) / SQRT_2PI * gp.poly(xs)
        assert abs(np.trapezoid(ys, xs)) < 1e-8

    def test_each_hermite_row_built_once(self):
        uniform_correction.cache_clear()
        _hermite_coeffs.cache_clear()
        vs = range(1, 7)
        for v in vs:
            uniform_correction(v, 3)
        degrees = {2 * (v + s) for v in vs for s in range(1, v + 1)}
        info = _hermite_coeffs.cache_info()
        assert info.misses == len(degrees)
        assert info.hits == sum(vs) - len(degrees)  # order v reads v rows
        for m in degrees:
            cached = _hermite_coeffs(m)
            assert type(cached) is tuple and all(type(c) is int for c in cached)
            assert cached == hermite(m).coeffs

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            uniform_correction(0, 2)
        with pytest.raises(ValueError):
            uniform_correction(1, 0)


class TestApproximateScaled:
    def test_gaussian_peak(self):
        for n, q in [(10, 2), (7, 4), (12, 1)]:
            assert approximate_scaled(n, n * q // 2, q, 0) == pytest.approx(
                1 / SQRT_2PI, rel=1e-15
            )

    def test_central_first_order_q2(self):
        expected = (1 / SQRT_2PI) * (1 - 0.001875)
        assert approximate_scaled(100, 100, 2, 1) == pytest.approx(expected, rel=1e-13)

    def test_binomial_q1_accuracy(self):
        # independent exact value straight from math.comb
        exact = math.comb(50, 30) / 2**50 * math.sqrt(3 * 50 / 12)
        err0 = abs(approximate_scaled(50, 30, 1, 0) - exact)
        err1 = abs(approximate_scaled(50, 30, 1, 1) - exact)
        assert err1 < 2e-5
        assert err1 < err0

    def test_order_zero_is_plain_gaussian(self):
        x = standardize(30, 40, 2)
        assert approximate_scaled(30, 40, 2, 0) == pytest.approx(
            math.exp(-0.5 * x * x) / SQRT_2PI, rel=1e-15
        )

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            approximate_scaled(10, 5, 1, -1)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_row_array_equals_scalar_calls(self, q):
        # bitwise, not approximately: numpy's exp in place of math.exp
        # changes the last place at some of these points
        for n in (1, 7, 50, 400):
            ks = np.arange(n * q + 1)
            for order in range(4):
                row = approximate_scaled(n, ks, q, order)
                assert row.tolist() == [
                    approximate_scaled(n, k, q, order) for k in range(n * q + 1)
                ]
                # bit-symmetric about n*q/2, which uniform_error's half scan needs
                assert row.tolist() == row.tolist()[::-1]
