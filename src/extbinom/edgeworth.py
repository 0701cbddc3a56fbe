"""Correction terms refining the Gaussian approximation of the scaled
coefficient rows.

A correction term is a function ``(1/sqrt(2*pi)) * exp(-x^2/2) * P(x)``
whose polynomial part P is assembled exactly: P = sum_s w_s H_{d_s}, one
Hermite polynomial per part count s.  The weight w_s is a partial Bell
polynomial in the cumulant bases g_k = gamma_{k+2} / (k+2)!,
``[t^v] G(t)^s / s!`` for the power series G(t) = sum_k g_k t^k (Comtet,
Advanced Combinatorics, 1974, section 3.3), read off a power series
instead of summed over the partitions of v.  Both builders take these
bases and differ only in their series algorithm, which runs in integers
over the bases' common denominator; the sum over s is formed in integers
over that of the weights (the Hermite coefficients are integers, each
row built once by the memoized ``special._hermite_coeffs``).  Bases and
weights stay reduced int pairs; a Fraction is built per nonzero output
coefficient, by ``special._fraction``.

``correction_from_cumulants``
    The general construction for any symmetric lattice distribution,
    given its cumulants and variance, by the J.C.P. Miller recurrence
    for exp(y G(t)).  The term of order v pairs with n**(-v/2) in the
    series.

``uniform_correction``
    The uniform distribution on {0, ..., q}, by successive integer
    powers of G, with sigma^2 = ``cumulant(2, q)``.  All its odd
    cumulants vanish, so only even general terms survive:
    ``uniform_correction(v, q)`` equals ``correction_from_cumulants(2*v,
    ...)``, and the term of order v pairs with n**-v.  The test suite
    asserts that the two routes agree coefficient by coefficient.

The construction applies to integer lattice distributions of maximal
span 1 (support not contained in any coarser progression a + h*Z with
h > 1).  The uniform on {0, ..., q} has adjacent support points, so the
condition holds automatically and is not exposed as a parameter.

Coefficients stay rational until a double-precision Horner evaluates
them, in two places with the same bits.  ``approximate_scaled`` takes
it times ``gaussian(x)`` at ``x = standardize(n, k, q)``, for one k or
elementwise over an array of k; the harness evaluates
``uniform_correction(v, q).poly`` itself over a sweep's joined x.
``exact_scaled_value`` is the exact side of one comparison, the scaled
coefficient that ``approximate_scaled`` approximates, read from the
recurrence kernel without building a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from numbers import Rational, Real

from extbinom.cumulants import CumulantVector, cumulant
from extbinom._recurrence import _check_nq, _int, _reduced
from extbinom._recurrence import coefficient as _coefficient
from extbinom.special import RationalPolynomial, _fraction, _hermite_coeffs

SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian(x):
    """Standard normal density (1/sqrt(2*pi)) * exp(-x**2/2) at a real x,
    or over a float array in one pass that still calls math.exp at each
    point, so every value has the scalar bits: numpy's exp can differ
    from it in the last place, and by CPU."""
    if isinstance(x, Real):
        return math.exp(-0.5 * x * x) / SQRT_2PI
    import numpy as np
    return np.fromiter(map(math.exp, (-0.5 * x * x).tolist()), float, len(x)) / SQRT_2PI


@dataclass(frozen=True)
class GaussianPolynomial:
    """``(1/sqrt(2*pi)) * exp(-x**2/2) * poly(x)`` with exact poly part.

    Immutable; instances are shared freely (uniform_correction memoizes them).
    """

    poly: RationalPolynomial

    def __call__(self, x: float) -> float:
        return gaussian(x) * self.poly(float(x))


def standardize(n: int, k: int, q: int) -> float:
    """Lattice point k less the mean n*a/b, over the standard deviation
    sqrt(n*c/d) of the n-fold uniform sum, with a/b = ``cumulant(1, q)`` and
    c/d = ``cumulant(2, q)`` reduced; exactly 0.0 at the central point."""
    n, q = _check_nq(n, q)
    a, b = cumulant(1, q).as_integer_ratio()
    c, d = cumulant(2, q).as_integer_ratio()
    return (b * k - n * a) / b * math.sqrt(d / (c * n))


def _scale(n: int, q: int) -> float:
    """sqrt(n * cumulant(2, q)), rounded once: the standard deviation of the
    n-fold uniform sum, which turns a probability into a density height."""
    return math.sqrt(cumulant(2, q) * n)


def exact_scaled_value(n: int, k: int, q: int) -> float:
    """sqrt(q*(q+2)*n/12) times the exact point probability, the quantity
    the expansion approximates.  Exact integer ratio, one float conversion.

    One-shot: the coefficient comes from the recurrence up to k (or its
    mirror) and no row is kept, so for many k of one row read
    ``compute_row(n, q)`` instead."""
    n, q = _check_nq(n, q)
    return (_coefficient(n, k, q) / (q + 1) ** n) * _scale(n, q)


def _base(gamma: Rational, k: int) -> tuple[int, int]:
    """gamma / k! as a reduced int pair, for the cumulant gamma of order k."""
    return _reduced(gamma.numerator, gamma.denominator * factorial(k))


def _over_lcm(pairs: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """The lcm D of the reduced pairs' denominators and each numerator over D."""
    den = math.lcm(*(b for _, b in pairs))
    return den, [a * (den // b) for a, b in pairs]


def _hermite_sum(weights: dict[int, tuple[int, int]]) -> RationalPolynomial:
    """sum_d weights[d] * H_d for reduced int pairs, assembled in integers.

    The Hermite coefficients are integers, so every weight is brought to
    the lcm D of the weights' denominators, each coefficient is summed as
    an int, and each nonzero sum becomes one ``_fraction(sum, D)``; the
    zero ones, half of them by parity, share one Fraction(0).
    """
    den, scales = _over_lcm(list(weights.values()))
    coeffs = [0] * (max(weights, default=0) + 1)
    for d, scale in zip(weights, scales):
        h = _hermite_coeffs(d)
        for j in range(d % 2, d + 1, 2):
            coeffs[j] += scale * h[j]
    zero = Fraction(0)
    return RationalPolynomial([_fraction(c, den) if c else zero for c in coeffs])


def correction_from_cumulants(
    order: int, cumulants: CumulantVector, variance: Rational
) -> GaussianPolynomial:
    """Correction term of the given order built from raw cumulants.

    The polynomial part is

        sum_s  [t^order] G(t)^s / s!  *  H_{order+2s}(x) / sigma^{order+2s}

    with G(t) = sum_k g_k t^k and g_k = gamma_{k+2} / (k+2)!  (Petrov,
    Sums of Independent Random Variables, 1975, ch. VI).  The weights
    [t^order] G^s / s! are the coefficients of y^s in F_order(y), where
    F(t, y) = exp(y G(t)) = sum_n F_n(y) t^n obeys the J.C.P. Miller
    recurrence n F_n = y sum_k k g_k F_{n-k}, F_0 = 1 (Knuth, TAOCP
    Vol. 2, section 4.7); the k with g_k = 0 are skipped.  It runs in
    integers: with L the lcm of the denominators of the g_k, g_k = N_k / L
    and e_n(s) = [y^s] F_n(y) * L^s * n!, it reads e_n(s+1) = sum_k
    k N_k (n-1)!/(n-k)! e_{n-k}(s), and each weight is the reduced int
    pair e_order(s) / (L^s order! sigma^(order+2s)).

    The algebra stays in the field of sigma^2, so order must be even: an
    odd order raises ValueError whenever some product of the g_k has a
    nonzero weight, i.e. whenever order is a sum of k with g_k != 0, even
    when the weights of one s cancel.  Every odd order gives the zero
    polynomial when the odd cumulants vanish.

    Requires cumulants up to order + 2.
    """
    order = _int(order, "order")
    if not isinstance(variance, Rational):  # a float would be carried exactly
        raise TypeError(f"variance must be an int or Fraction, got {variance!r}")
    variance = Fraction(variance)
    if variance <= 0:
        raise ValueError("variance must be positive")
    if len(cumulants) < order + 2:
        raise ValueError(
            f"need cumulants up to order {order + 2}, got {len(cumulants)}"
        )
    gs = [_base(cumulants.gamma(k), k) for k in range(3, order + 3)]
    den, numer = _over_lcm(gs)  # L and the N_k, with g_k = N_k / L
    steps = [(k, k * nk) for k, nk in enumerate(numer, 1) if nk]  # g_k != 0
    # series[n] maps s to the int [y^s] F_n(y) * L^s * n!, zero ones kept
    series: list[dict[int, int]] = [{0: 1}]
    for n in range(1, order + 1):
        f: dict[int, int] = {}
        for k, kn in steps:
            if k > n:
                break
            step = kn * perm(n - 1, k - 1)  # k N_k (n-1)! / (n-k)!
            for s, c in series[n - k].items():
                f[s + 1] = f.get(s + 1, 0) + step * c
        series.append(f)
    if order % 2 and series[order]:  # order is a sum of k with g_k != 0
        raise ValueError(
            "term leaves an odd power of sigma: only cumulant inputs with "
            "vanishing odd cumulants are supported"
        )
    vn, vd, scale = variance.numerator, variance.denominator, factorial(order)
    weights = {}
    for s, c in series[order].items():
        if c:
            p = order // 2 + s
            weights[order + 2 * s] = _reduced(c * vd**p, den**s * scale * vn**p)
    return GaussianPolynomial(poly=_hermite_sum(weights))


@lru_cache(maxsize=None, typed=True)
def uniform_correction(order: int, q: int) -> GaussianPolynomial:
    """Correction term of the given order for the uniform on {0, ..., q}.

    The polynomial part is

        sum_s  sigma^(-2(order+s)) * [t^order] G(t)^s / s!  *  H_{2(order+s)}(x)

    with sigma^2 = ``cumulant(2, q)`` and G(t) = sum_{m>=1} g_{2m} t^m: the
    bases g_k = gamma_{k+2} / (k+2)! of ``correction_from_cumulants`` at
    even k, from the Bernoulli closed form in ``cumulant``.  Only the
    series algorithm differs from that route: the bases are brought to
    their common denominator L, so G = N(t) / L with integer N, and the
    successive powers N^s, truncated at t^order, are integer polynomials:
    [t^order] G^s = [t^order] N^s / L^s.  Even degree 2*(order + s_max),
    even powers of x only.
    """
    order = _int(order, "order")  # q reaches only cumulant, which gates it
    gs = [_base(cumulant(k, q), k) for k in range(4, 2 * order + 3, 2)]
    den, numer = _over_lcm(gs)  # L and the N_m, with g_{2m} = numer[m - 1] / L
    vn, vd = cumulant(2, q).as_integer_ratio()  # sigma^2 = vn / vd
    weights = {}
    power = [1] + [0] * order  # N^(s-1), truncated at t^order
    for s in range(1, order + 1):
        power = [0] * s + [
            sum(power[i] * numer[d - i - 1] for i in range(s - 1, d))
            for d in range(s, order + 1)
        ]
        weights[2 * (order + s)] = _reduced(
            vd ** (order + s) * power[order],
            vn ** (order + s) * den**s * factorial(s),
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

    Far in the tails the result can be nan: the Gaussian density
    underflows to 0.0 while a correction polynomial overflows to +-inf
    (e.g. n=1, k=1000, q=2, order=40), and 0 * inf is nan.
    """
    order = _int(order, "order", 0)
    n, q = _check_nq(n, q)
    x = standardize(n, k, q)
    corr = 0.0
    for v in range(1, order + 1):
        corr += uniform_correction(v, q).poly(x) / n**v
    return gaussian(x) * (1.0 + corr)
