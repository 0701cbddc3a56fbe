"""Bernoulli numbers, Hermite polynomials, partition multiplicities, the
lowest-terms constructor and the exact polynomial carrier.

Oracles: Akiyama-Tanigawa for Bernoulli numbers, repeated symbolic
differentiation of the Gaussian cofactor for Hermite polynomials, and
brute-force product enumeration for the multiplicity vectors.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss

from extbinom import (
    RationalPolynomial,
    bernoulli,
    enumerate_partition_solutions,
    hermite,
)
from extbinom.harness import _joined
from extbinom.special import _fraction, _hermite_coeffs

SQRT_2PI = math.sqrt(2 * math.pi)


def at_bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle (second convention,
    B_1 = +1/2; even indices agree with every convention)."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def rodrigues_hermite(m: int) -> tuple[Fraction, ...]:
    """Coefficients of H_m by iterating P -> x*P - P' on the polynomial
    cofactor of exp(-x^2/2), i.e. the Rodrigues definition."""
    p = [Fraction(1)]
    for _ in range(m):
        xp = [Fraction(0)] + p
        dp = [i * c for i, c in enumerate(p)][1:]
        dp += [Fraction(0)] * (len(xp) - len(dp))
        p = [a - b for a, b in zip(xp, dp)]
    return tuple(p)


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)

    def test_odd_vanish(self):
        for m in range(3, 122, 2):
            assert bernoulli(m) == 0

    def test_even_against_akiyama_tanigawa(self):
        table = at_bernoulli(120)
        for m in range(0, 121, 2):
            assert bernoulli(m) == table[m]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_float_refused_with_its_int_cached(self):
        bernoulli(4)
        with pytest.raises(TypeError):
            bernoulli(4.0)


class TestHermite:
    def test_base_cases(self):
        assert hermite(0) == RationalPolynomial([1])
        assert hermite(1) == RationalPolynomial([0, 1])

    def test_h4(self):
        assert hermite(4) == RationalPolynomial([3, 0, -6, 0, 1])

    def test_h6(self):
        assert hermite(6) == RationalPolynomial([-15, 0, 45, 0, -15, 0, 1])

    # coefficients pass 64 bits from m = 33 on
    @pytest.mark.parametrize("m", range(41))
    def test_against_rodrigues_oracle(self, m):
        assert hermite(m).coeffs == rodrigues_hermite(m)
        ints = _hermite_coeffs(m)  # what the correction builders read
        assert type(ints) is tuple and all(type(c) is int for c in ints)
        assert ints == rodrigues_hermite(m)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_derivative_recurrence(self, m):
        derivative = [i * c for i, c in enumerate(hermite(m).coeffs)][1:]
        assert tuple(derivative) == (m * hermite(m - 1)).coeffs

    def test_orthogonality_quadrature(self):
        xs, ws = hermegauss(24)
        h2, h4 = hermite(2), hermite(4)
        cross = sum(w * h2(x) * h4(x) for x, w in zip(xs, ws)) / SQRT_2PI
        norm = sum(w * h2(x) ** 2 for x, w in zip(xs, ws)) / SQRT_2PI
        assert abs(cross) < 1e-8
        assert abs(norm - 2.0) < 1e-8  # ||H_2||^2 = 2!

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hermite(-2)
        with pytest.raises(ValueError):
            _hermite_coeffs(-2)

    def test_float_refused_with_its_int_cached(self):
        hermite(4)  # caches the integer row of H_4
        with pytest.raises(TypeError):
            hermite(4.0)


class TestPartitionSolutions:
    def test_small_cases(self):
        assert set(enumerate_partition_solutions(1)) == {(1,)}
        assert set(enumerate_partition_solutions(2)) == {
            (2, 0),
            (0, 1),
        }
        assert set(enumerate_partition_solutions(3)) == {
            (3, 0, 0),
            (1, 1, 0),
            (0, 0, 1),
        }

    def test_counts_are_partition_numbers(self):
        counts = [len(enumerate_partition_solutions(v)) for v in range(1, 7)]
        assert counts == [1, 2, 3, 5, 7, 11]

    @pytest.mark.parametrize("v", range(1, 6))
    def test_against_brute_force(self, v):
        brute = {
            ks
            for ks in itertools.product(range(v + 1), repeat=v)
            if sum((m + 1) * k for m, k in enumerate(ks)) == v
        }
        assert set(enumerate_partition_solutions(v)) == brute

    def test_domain_error(self):
        with pytest.raises(ValueError):
            enumerate_partition_solutions(0)


# one-limb and multi-limb ints (CPython stores 30 bits per limb)
numerators = st.one_of(st.integers(-10**6, 10**6), st.integers(-2**300, 2**300))
denominators = st.one_of(st.integers(1, 10**6), st.integers(1, 2**300))


class TestLowestTerms:
    """``_fraction`` fills Fraction's private slots itself, so everything
    read from its result must be what ``Fraction(n, d)`` gives."""

    @settings(max_examples=300)
    @given(numerators, denominators, st.integers(1, 2**70))
    @example(0, 1, 1)
    @example(0, 2**200, 3)
    @example(-(2**130), 2**70, 1)
    @example(6, 4, 1)
    def test_matches_fraction(self, n, d, common):
        n, d = n * common, d * common  # a pair with a common factor to remove
        got, want = _fraction(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert type(got.numerator) is int and type(got.denominator) is int
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert got == want
        assert repr(got * 3 - Fraction(1, 7)) == repr(want * 3 - Fraction(1, 7))


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
polys = st.lists(rationals, min_size=1, max_size=6).map(RationalPolynomial)
# zero about a third of the time, and finite floats of any size, subnormals too
sparse_coefficients = st.one_of(
    st.just(0), rationals, st.floats(allow_nan=False, allow_infinity=False).map(Fraction)
)
sparse_polys = st.lists(sparse_coefficients, min_size=1, max_size=12).map(
    RationalPolynomial
)
points = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    st.floats(),
)


def full_horner(p, x):
    """Horner over every coefficient, zeros included: the scheme whose
    bits the evaluation keeps while it skips adding the zeros."""
    top, *rest = (float(c) for c in reversed(p.coeffs))
    acc = 0.0 * x + top
    for c in rest:
        acc = acc * x + c
    return acc


class TestRationalPolynomial:
    def test_normalization(self):
        p = RationalPolynomial([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert p.degree == 1
        assert RationalPolynomial([0, 0, 0]).is_zero

    def test_coefficients_stored_as_plain_fractions(self):
        class Sub(Fraction):
            pass

        forms = [
            [1, 0, 2, 0, 0],
            [True, False, 2, False],
            [Fraction(1), Fraction(0), Fraction(4, 2), Fraction(0)],
            [Sub(1), Sub(0), Sub(2), Sub(0), Sub(0)],
        ]
        polys = [RationalPolynomial(form) for form in forms]
        for p in polys:
            assert [type(c) for c in p.coeffs] == [Fraction] * 3
            assert p == polys[0]
            assert hash(p) == hash(polys[0])
        assert polys[0].coeffs == (1, 0, 2)
        third = Fraction(1, 3)
        assert RationalPolynomial([third, 0]).coeffs[0] is third

    def test_exact_evaluation(self):
        p = RationalPolynomial([Fraction(1, 3), 0, 1])
        assert p(Fraction(1, 2)) == Fraction(7, 12)
        assert isinstance(p(2), Fraction)

    def test_float_evaluation(self):
        p = RationalPolynomial([1, -2, 3])
        assert p(0.5) == pytest.approx(1 - 1 + 0.75)

    def test_array_evaluation(self):
        p = RationalPolynomial([1, 0, 1])
        xs = np.array([0.0, 1.0, 2.0])
        assert np.allclose(p(xs), [1.0, 2.0, 5.0])

    def test_array_evaluation_matches_scalar_calls(self):
        p = RationalPolynomial([Fraction(1, 3), 0, -2, Fraction(5, 7), 0, 1])
        # a writable array, then a read-only one, where any write raises
        for xs in (np.array([0.0, -0.0, 1e-300, -1.5, 2.25, 39.9, -40.0, 40.125]),
                   _joined((50,), 2)[1]):
            before = xs.copy()
            got = p(xs)
            expected = np.array([p(float(x)) for x in xs])
            assert type(got) is np.ndarray
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            assert np.array_equal(xs.view(np.int64), before.view(np.int64))

    def test_evaluation_result_types(self):
        xs = np.array([-1.0, 0.0, 2.0])
        for p in (RationalPolynomial([3]), RationalPolynomial([0])):
            got = p(xs)
            assert type(got) is np.ndarray and got.shape == xs.shape
            assert list(got) == [float(p.coeffs[0])] * 3
            assert type(p(0.5)) is float
        assert type(RationalPolynomial([1, -2, 3])(0.5)) is float

    @given(p=sparse_polys, xs=st.lists(points, min_size=1, max_size=8))
    @example(p=RationalPolynomial([0]), xs=[-0.0, 0.0, math.inf, math.nan])
    @example(p=RationalPolynomial([0, 1]), xs=[-0.0, 0.0])
    @example(p=RationalPolynomial([Fraction(3, 2)]), xs=[-0.0, -math.inf])
    @example(p=RationalPolynomial([0, 0, 1, 0, -2]), xs=[-0.0, 0.0, -5e-324, math.inf])
    @settings(max_examples=300)
    def test_zero_skipping_equals_full_horner(self, p, xs):
        # .tobytes() compares sign bits (so -0.0 != 0.0) and nan payloads
        arr = np.array(xs)
        with np.errstate(all="ignore"):
            got, expected = p(arr), full_horner(p, arr)
        assert got.tobytes() == expected.tobytes()
        for x in xs:
            got, expected = p(x), full_horner(p, x)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @given(p=polys, r=polys, x=rationals)
    @settings(max_examples=80)
    def test_ring_homomorphism(self, p, r, x):
        assert (p + r)(x) == p(x) + r(x)

    @given(p=polys, c=rationals)
    @settings(max_examples=50)
    def test_scalar_multiplication(self, p, c):
        assert (c * p)(Fraction(2)) == c * p(Fraction(2))
