"""Closed-form cumulants of the uniform on {0..q} against the
moment-recursion route."""

from __future__ import annotations

from fractions import Fraction

import pytest

from extbinom import bernoulli, cumulant, cumulants_from_moments, cumulants_up_to


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
