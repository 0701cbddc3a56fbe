"""Correction terms refining the Gaussian approximation of the scaled
coefficient rows.

A correction term is a function ``(1/sqrt(2*pi)) * exp(-x^2/2) * P(x)``
whose polynomial part P is assembled exactly: each multiplicity vector
(k_1, ..., k_v) with k_1 + 2*k_2 + ... + v*k_v = v adds a cumulant-product
weight to the Hermite polynomial H_{v+2s}, s = k_1 + ... + k_v.  Both
builders first sum the weights per s (partial Bell polynomials; Comtet,
Advanced Combinatorics, 1974, section 3.3), then add one weighted Hermite
polynomial per s.  Two builders are provided.

``correction_from_cumulants``
    The general construction for any symmetric lattice distribution,
    given its cumulants and variance.  The term of order v pairs with
    n**(-v/2) in the series.

``uniform_correction``
    The closed form specific to the uniform distribution on
    {0, ..., q}, written directly in Bernoulli numbers.  Because all
    odd cumulants of the uniform vanish, only even general terms
    survive, and ``uniform_correction(v, q)`` equals
    ``correction_from_cumulants(2*v, ...)``; the term of order v pairs
    with n**-v.  The two routes must agree coefficient by coefficient,
    which the test suite asserts exactly.

The construction applies to integer lattice distributions of maximal
span 1 (support not contained in any coarser progression a + h*Z with
h > 1).  The uniform on {0, ..., q} has adjacent support points, so the
condition holds automatically and is not exposed as a parameter.

Polynomial coefficients stay rational until evaluation; evaluation is
double-precision Horner times the Gaussian prefactor ``gaussian(x)`` at
``x = standardize(n, k, q)``, all in ``approximate_scaled``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from extbinom.cumulants import CumulantVector
from extbinom.exact import _check_nq
from extbinom.special import (
    RationalPolynomial,
    bernoulli,
    enumerate_partition_solutions,
    hermite,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian(x: float) -> float:
    """Standard normal density (1/sqrt(2*pi)) * exp(-x**2/2)."""
    return math.exp(-0.5 * x * x) / SQRT_2PI


@dataclass(frozen=True)
class GaussianPolynomial:
    """``(1/sqrt(2*pi)) * exp(-x**2/2) * poly(x)`` with exact poly part.

    Immutable; instances are shared freely (uniform_correction memoizes them).
    """

    poly: RationalPolynomial

    def __call__(self, x: float) -> float:
        return gaussian(x) * self.poly(float(x))


def standardize(n: int, k: int, q: int) -> float:
    """Lattice point k recentred by the mean n*q/2 and scaled by the
    standard deviation sqrt(n*q*(q+2)/12) of the n-fold uniform sum;
    exactly 0.0 at the central point k = n*q/2."""
    _check_nq(n, q)
    delta = 2 * k - n * q  # 2*(k - n*q/2), exact in integers
    return delta * math.sqrt(3.0 / (q * (q + 2) * n))


def correction_from_cumulants(
    order: int, cumulants: CumulantVector, variance: Fraction
) -> GaussianPolynomial:
    """Correction term of the given order built from raw cumulants.

    Sums, over every multiplicity vector (k_1, ..., k_order) with
    k_1 + 2*k_2 + ... + order*k_order = order, the Hermite polynomial of
    degree order + 2*s weighted by

        prod_m (1/k_m!) * (gamma_{m+2} / (m+2)!)^{k_m} / sigma^{order+2s}

    where s = k_1 + ... + k_order; the weights are collected per s first
    (Petrov, Sums of Independent Random Variables, 1975, ch. VI).  The
    algebra stays in the field of sigma^2, so order must be even: at odd
    order any vector with a nonzero cumulant weight raises ValueError,
    even when the weights of one s cancel.  Every odd order gives the
    zero polynomial when the odd cumulants vanish.

    Requires cumulants up to order + 2.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    variance = Fraction(variance)
    if variance <= 0:
        raise ValueError("variance must be positive")
    if len(cumulants) < order + 2:
        raise ValueError(
            f"need cumulants up to order {order + 2}, got {len(cumulants)}"
        )
    bases = [cumulants.gamma(m + 2) / factorial(m + 2) for m in range(1, order + 1)]
    by_s = defaultdict(Fraction)
    for ks in enumerate_partition_solutions(order):
        weight = Fraction(1)
        for base, mult in zip(bases, ks):
            if mult:
                weight *= base**mult / factorial(mult)
        if weight == 0:
            continue
        if order % 2:
            raise ValueError(
                "term leaves an odd power of sigma: only cumulant inputs with "
                "vanishing odd cumulants are supported"
            )
        by_s[sum(ks)] += weight
    total = RationalPolynomial([0])
    for s, weight in by_s.items():
        total = total + weight / variance ** (order // 2 + s) * hermite(order + 2 * s)
    return GaussianPolynomial(poly=total)


@lru_cache(maxsize=None)
def uniform_correction(order: int, q: int) -> GaussianPolynomial:
    """Correction term of the given order for the uniform on {0, ..., q},
    from the Bernoulli-number closed form.

    The polynomial part is

        (12/(q(q+2)))^order * sum over (k_2, k_4, ..., k_{2*order}) with
        k_2 + 2*k_4 + ... + order*k_{2*order} = order of

        H_{2(order+s)}(x) * (6/(q(q+2)))^s *
        prod_m (1/k_{2m}!) * (B_{2(m+1)} * ((q+1)^{2m+2} - 1)
                              / ((2m+2)! * (m+1)))^{k_{2m}}

    with s the total multiplicity, the weights summed per s first.  The
    Bernoulli bases (the bracket raised to k_{2m}) depend only on m and q,
    so they are computed once per m, not once per vector.  Even degree
    2*(order + s_max), even powers of x only.  The vectors are
    ``enumerate_partition_solutions(order)``, entry i read as slot 2*(i+1).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    qq2 = q * (q + 2)
    bases = [
        bernoulli(2 * m + 2) * ((q + 1) ** (2 * m + 2) - 1)
        / (factorial(2 * m + 2) * (m + 1))
        for m in range(1, order + 1)
    ]
    by_s = defaultdict(Fraction)
    for ks in enumerate_partition_solutions(order):
        weight = Fraction(1)
        for base, mult in zip(bases, ks):
            if mult:
                weight *= base**mult / factorial(mult)
        by_s[sum(ks)] += weight
    total = RationalPolynomial([0])
    for s, weight in by_s.items():
        total = total + Fraction(6, qq2) ** s * weight * hermite(2 * (order + s))
    return GaussianPolynomial(poly=Fraction(12, qq2) ** order * total)


def approximate_scaled(n: int, k: int, q: int, order: int = 0) -> float:
    """Approximate sqrt(q*(q+2)*n/12) * P(S_n = k), i.e. the exact row
    value scaled to density height, by the Gaussian density at the
    standardized point plus the first ``order`` correction terms (term v
    weighted by n**-v).

    order = 0 is the plain normal approximation.  The sup-over-k error
    decays empirically like n**-(order+1).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    x = standardize(n, k, q)
    corr = 0.0
    for v in range(1, order + 1):
        corr += uniform_correction(v, q).poly(x) / n**v
    return gaussian(x) * (1.0 + corr)
