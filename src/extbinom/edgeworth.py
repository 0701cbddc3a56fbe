"""Correction terms refining the Gaussian approximation of the scaled
coefficient rows.

A correction term is a function ``(1/sqrt(2*pi)) * exp(-x^2/2) * P(x)``
whose polynomial part P is assembled exactly: P = sum_s w_s H_{d_s}, one
Hermite polynomial per part count s.  The weight w_s is a partial Bell
polynomial in the cumulant bases, ``[t^v] G(t)^s / s!`` for the power
series G(t) = sum_m base_m t^m (Comtet, Advanced Combinatorics, 1974,
section 3.3), read off a power series instead of summed over the
partitions of v.  The sum over s is formed in integers over the common
denominator of the weights, since the Hermite coefficients are integers.
Two builders are provided, each with its own series algorithm.

``correction_from_cumulants``
    The general construction for any symmetric lattice distribution,
    given its cumulants and variance, by the J.C.P. Miller recurrence
    for exp(y G(t)).  The term of order v pairs with n**(-v/2) in the
    series.

``uniform_correction``
    The closed form specific to the uniform distribution on
    {0, ..., q}, written directly in Bernoulli numbers, by successive
    integer powers of G.  Because all odd cumulants of the uniform
    vanish, only even general terms survive, and
    ``uniform_correction(v, q)`` equals
    ``correction_from_cumulants(2*v, ...)``; the term of order v pairs
    with n**-v.  The two routes must agree coefficient by coefficient,
    which the test suite asserts exactly.

The construction applies to integer lattice distributions of maximal
span 1 (support not contained in any coarser progression a + h*Z with
h > 1).  The uniform on {0, ..., q} has adjacent support points, so the
condition holds automatically and is not exposed as a parameter.

Coefficients stay rational until ``approximate_scaled`` evaluates them:
double-precision Horner times ``gaussian(x)`` at ``x = standardize(n, k,
q)``, for one k or elementwise, with the same bits, over an array of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from numbers import Real

from extbinom.cumulants import CumulantVector
from extbinom.exact import _check_nq
from extbinom.special import (
    RationalPolynomial,
    bernoulli,
    hermite,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian(x):
    """Standard normal density (1/sqrt(2*pi)) * exp(-x**2/2) at a real x,
    or over a float array in one pass that still calls math.exp at each
    point, so every value has the scalar bits: numpy's exp can differ
    from it in the last place, and by CPU."""
    if isinstance(x, Real):
        return math.exp(-0.5 * x * x) / SQRT_2PI
    import numpy as np
    return np.array(list(map(math.exp, (-0.5 * x * x).tolist()))) / SQRT_2PI


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


def _hermite_sum(weights: dict[int, Fraction]) -> RationalPolynomial:
    """sum_d weights[d] * H_d, assembled in integers.

    The Hermite coefficients are integers, so every weight is brought to
    the lcm D of the weights' denominators, each coefficient is summed as
    an int, and one Fraction(sum, D) is built per coefficient.
    """
    den = math.lcm(*(w.denominator for w in weights.values()))
    coeffs = [0] * (max(weights, default=0) + 1)
    for d, w in weights.items():
        scale = w.numerator * (den // w.denominator)
        h = hermite(d).coeffs
        for j in range(d % 2, d + 1, 2):
            coeffs[j] += scale * h[j].numerator
    return RationalPolynomial([Fraction(c, den) for c in coeffs])


def correction_from_cumulants(
    order: int, cumulants: CumulantVector, variance: Fraction
) -> GaussianPolynomial:
    """Correction term of the given order built from raw cumulants.

    The polynomial part is

        sum_s  [t^order] G(t)^s / s!  *  H_{order+2s}(x) / sigma^{order+2s}

    with G(t) = sum_k g_k t^k and g_k = gamma_{k+2} / (k+2)!  (Petrov,
    Sums of Independent Random Variables, 1975, ch. VI).  The weights
    [t^order] G^s / s! are the coefficients of y^s in F_order(y), where
    F(t, y) = exp(y G(t)) = sum_n F_n(y) t^n obeys the J.C.P. Miller
    recurrence n F_n = y sum_k k g_k F_{n-k}, F_0 = 1 (Knuth, TAOCP
    Vol. 2, section 4.7); the k with g_k = 0 are skipped.

    The algebra stays in the field of sigma^2, so order must be even: an
    odd order raises ValueError whenever some product of the g_k has a
    nonzero weight, i.e. whenever order is a sum of k with g_k != 0, even
    when the weights of one s cancel.  Every odd order gives the zero
    polynomial when the odd cumulants vanish.

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
    steps = []  # (k, k * g_k) for the k with g_k != 0
    for k in range(1, order + 1):
        g = Fraction(cumulants.gamma(k + 2), factorial(k + 2))
        if g:
            steps.append((k, k * g))
    # series[n] maps s to the coefficient of y^s in F_n(y), zero ones kept
    series: list[dict[int, Fraction]] = [{0: Fraction(1)}]
    for n in range(1, order + 1):
        f: dict[int, Fraction] = {}
        for k, kg in steps:
            if k > n:
                break
            for s, c in series[n - k].items():
                f[s + 1] = f.get(s + 1, 0) + kg * c
        series.append({s: c / n for s, c in f.items()})
    if order % 2 and series[order]:  # order is a sum of k with g_k != 0
        raise ValueError(
            "term leaves an odd power of sigma: only cumulant inputs with "
            "vanishing odd cumulants are supported"
        )
    return GaussianPolynomial(poly=_hermite_sum({
        order + 2 * s: c / variance ** (order // 2 + s)
        for s, c in series[order].items()
        if c
    }))


@lru_cache(maxsize=None)
def uniform_correction(order: int, q: int) -> GaussianPolynomial:
    """Correction term of the given order for the uniform on {0, ..., q},
    from the Bernoulli-number closed form.

    The polynomial part is

        sum_s  (12/(q(q+2)))^order * (6/(q(q+2)))^s
               * [t^order] G(t)^s / s!  *  H_{2(order+s)}(x)

    with G(t) = sum_{m>=1} b_m t^m and the Bernoulli bases
    b_m = B_{2(m+1)} ((q+1)^{2m+2} - 1) / ((2m+2)! (m+1)).  The bases
    are brought to their common denominator L, so G = N(t) / L with
    integer N, and the successive powers N^s, truncated at t^order, are
    integer polynomials: [t^order] G^s = [t^order] N^s / L^s.  Even
    degree 2*(order + s_max), even powers of x only.
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
    den = math.lcm(*(b.denominator for b in bases))
    numer = [0] + [b.numerator * (den // b.denominator) for b in bases]
    weights = {}
    power = [1] + [0] * order  # N^(s-1), truncated at t^order
    for s in range(1, order + 1):
        power = [0] * s + [
            sum(power[i] * numer[d - i] for i in range(s - 1, d))
            for d in range(s, order + 1)
        ]
        weights[2 * (order + s)] = Fraction(
            12**order * 6**s * power[order],
            qq2 ** (order + s) * den**s * factorial(s),
        )
    return GaussianPolynomial(poly=_hermite_sum(weights))


def approximate_scaled(n: int, k, q: int, order: int = 0):
    """Approximate sqrt(q*(q+2)*n/12) * P(S_n = k), i.e. the exact row
    value scaled to density height, by the Gaussian density at the
    standardized point plus the first ``order`` correction terms (term v
    weighted by n**-v).  For an integer numpy array of k it returns the
    float array of the scalar results, bit for bit.

    order = 0 is the plain normal approximation.  The sup-over-k error
    decays empirically like n**-(order+1).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    x = standardize(n, k, q)
    return gaussian(x) * (1.0 + _correction_sum(n, x, q, order))


def _correction_sum(n: int, x, q: int, order: int):
    """sum_{v=1}^{order} P_v(x) / n**v at a standardized point x, or
    elementwise over a float array: the factor that multiplies the
    Gaussian density, less its leading 1.  0.0 when order is 0."""
    corr = 0.0
    for v in range(1, order + 1):
        corr += uniform_correction(v, q).poly(x) / n**v
    return corr
