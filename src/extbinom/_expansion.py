"""The computations under ``cumulants`` and ``edgeworth``, with no
result record.

``cumulants`` wraps the cumulant tuples of this module in a
``CumulantVector`` and ``edgeworth`` each correction polynomial in a
``GaussianPolynomial``; both records are frozen dataclasses.  This
module imports neither ``dataclasses`` nor numpy at module level (numpy
only when ``gaussian`` gets an array), so the CLI's ``expand``,
``qpoly`` and ``cumulants`` call it directly and start without the
dataclass machinery, as ``coeff`` and ``row`` call ``_recurrence``.

Cumulants: the closed form ``cumulant`` and, to cross-validate it, the
moment route ``gammas_from_moments``.

Correction polynomials: P = sum_s w_s H_{d_s}, one Hermite polynomial
per part count s.  The weight w_s is a partial Bell polynomial in the
cumulant bases g_k = gamma_{k+2} / (k+2)!, ``[t^v] G(t)^s / s!`` for the
power series G(t) = sum_k g_k t^k (Comtet, Advanced Combinatorics, 1974,
section 3.3), read off a power series instead of summed over the
partitions of v.  The two builders, ``general_polynomial`` and
``uniform_polynomial``, take these bases and differ only in their series
algorithm, which runs in integers over the bases' common denominator;
the sum over s is formed in integers over that of the weights (the
Hermite coefficients are integers, each row built once by the memoized
``special._hermite_coeffs``).  Bases and weights stay reduced int pairs;
a Fraction is built per nonzero output coefficient, by
``special._fraction``.

Floats: coefficients stay rational until a double-precision Horner
evaluates them, in two places with the same bits.  ``approximate_scaled``
takes it times ``gaussian(x)`` at ``x = standardize(n, k, q)``, for one
k or elementwise over an array of k; the harness evaluates each
polynomial itself over a sweep's joined x.  ``exact_scaled_value`` is
the exact side of one comparison, the scaled coefficient that
``approximate_scaled`` approximates, read from the recurrence kernel
without building a row.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from numbers import Rational, Real
from operator import add, mul

from extbinom._recurrence import _check_nq, _int, _reduced
from extbinom._recurrence import coefficient as _coefficient
from extbinom.special import (
    RationalPolynomial,
    _fraction,
    _hermite_coeffs,
    _ratio,
    bernoulli,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=1024, typed=True)
def cumulant(k: int, q: int) -> Fraction:
    """Cumulant gamma_k of the uniform distribution on {0, ..., q}."""
    k, q = _int(k, "cumulant order"), _int(q, "q")
    if k == 1:
        return Fraction(q, 2)
    if k % 2 == 1:
        return Fraction(0)
    # k = 2l: gamma_k = B_k / k * ((q+1)^k - 1)
    b = bernoulli(k)
    return Fraction(b.numerator * ((q + 1) ** k - 1), b.denominator * k)


def gammas_up_to(order: int, q: int) -> tuple[Fraction, ...]:
    """Cumulants gamma_1..gamma_order of the uniform on {0, ..., q}."""
    order, q = _int(order, "cumulant order"), _int(q, "q")
    return tuple(cumulant(k, q) for k in range(1, order + 1))


def gammas_from_moments(order: int, q: int) -> tuple[Fraction, ...]:
    """Same cumulants derived from raw moments, as an independent check.

    The raw moments are m_j = S_j / Q with the power sums
    S_j = sum_{v=0..q} v**j and Q = q + 1, each S_j from the lower ones
    by Pascal's identity sum_{i=0..j} C(j+1, i) S_i = Q^(j+1), so the
    cost does not grow with q and no Bernoulli number enters; the usual
    recursion gamma_k = m_k - sum_{j=1..k-1} C(k-1, j-1) gamma_j m_{k-j}
    converts them.  It runs in integers on M_j = m_j Q^j = S_j Q^(j-1)
    and Gamma_k = gamma_k Q^k:

        Gamma_k = M_k - sum_{j=1..k-1} C(k-1, j-1) Gamma_j M_{k-j}

    and each cumulant is returned as Gamma_k / Q**k, reduced by one gcd
    in ``special._fraction``.  The binomials come from Pascal rows
    carried from one k to the next.
    """
    order, q = _int(order, "cumulant order"), _int(q, "q")
    big_q = q + 1
    powers = [1, big_q]  # powers[j] = Q**j
    sums = [big_q]  # sums[j] = S_j, each added by Pascal's identity
    moments = [1]  # moments[j] = M_j
    scaled: list[int] = []  # scaled[k - 1] = Gamma_k
    # Pascal rows C(k-1, .), C(k, .) and C(k+1, .)
    below, middle, above = [1], [1, 1], [1, 2, 1]
    for k in range(1, order + 1):
        powers.append(powers[k] * big_q)
        # zip stops at the shorter list: i = 0..k-1 here, j = 1..k-1 below
        sums.append((powers[k + 1] - sum(map(mul, above, sums))) // (k + 1))
        tail = sum(map(mul, map(mul, below, scaled), reversed(moments)))
        moments.append(sums[k] * powers[k - 1])
        scaled.append(moments[k] - tail)
        below, middle, above = middle, above, [1, *map(add, above, above[1:]), 1]
    return tuple(_fraction(g, powers[k]) for k, g in enumerate(scaled, 1))


def gaussian(x):
    """Standard normal density (1/sqrt(2*pi)) * exp(-x**2/2) at a real x,
    or over a float array in one pass that still calls math.exp at each
    point, so every value has the scalar bits: numpy's exp can differ
    from it in the last place, and by CPU."""
    if isinstance(x, Real):
        return math.exp(-0.5 * x * x) / SQRT_2PI
    import numpy as np
    return np.fromiter(map(math.exp, (-0.5 * x * x).tolist()), float, len(x)) / SQRT_2PI


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


def _base(gamma: tuple[int, int], k: int) -> tuple[int, int]:
    """gamma / k! as a reduced int pair, for the cumulant gamma of order k
    given as an int pair."""
    numerator, denominator = gamma
    return _reduced(numerator, denominator * factorial(k))


def _over_lcm(pairs: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """The lcm D of the reduced pairs' denominators and each numerator over D."""
    den = math.lcm(*(b for _, b in pairs))
    return den, [a * (den // b) for a, b in pairs]


def _hermite_sum(weights: dict[int, tuple[int, int]]) -> RationalPolynomial:
    """sum_d weights[d] * H_d for reduced int pairs, assembled in integers.

    The Hermite coefficients are integers, so every weight is brought to
    the lcm D of the weights' denominators, each coefficient is summed as
    an int, and each nonzero sum becomes one ``_fraction(sum, D)``; the
    zero ones, half of them by parity, share one Fraction(0).  These are
    Fractions of Python ints, so ``RationalPolynomial._of_fractions``
    takes them without a check.
    """
    den, scales = _over_lcm(list(weights.values()))
    coeffs = [0] * (max(weights, default=0) + 1)
    for d, scale in zip(weights, scales):
        h = _hermite_coeffs(d)
        for j in range(d % 2, d + 1, 2):
            coeffs[j] += scale * h[j]
    zero = Fraction(0)
    return RationalPolynomial._of_fractions(
        [_fraction(c, den) if c else zero for c in coeffs])


def general_polynomial(order: int, gammas, variance: Rational) -> RationalPolynomial:
    """Polynomial part of the correction term of the given order, built
    from raw cumulants: gammas[k - 1] is the cumulant of order k.

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
    vn, vd = _ratio(variance, "variance")  # a float would be carried exactly
    if vn <= 0:
        raise ValueError("variance must be positive")
    if len(gammas) < order + 2:
        raise ValueError(
            f"need cumulants up to order {order + 2}, got {len(gammas)}"
        )
    gs = [_base(_ratio(gammas[k - 1], f"cumulant {k}"), k)
          for k in range(3, order + 3)]
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
    scale = factorial(order)
    weights = {}
    for s, c in series[order].items():
        if c:
            p = order // 2 + s
            weights[order + 2 * s] = _reduced(c * vd**p, den**s * scale * vn**p)
    return _hermite_sum(weights)


@lru_cache(maxsize=None, typed=True)
def uniform_polynomial(order: int, q: int) -> RationalPolynomial:
    """Polynomial part of the correction term of the given order for the
    uniform on {0, ..., q}, memoized: ``approximate_scaled`` reads it for
    every k, and its float coefficients are converted once per entry.

    The polynomial part is

        sum_s  sigma^(-2(order+s)) * [t^order] G(t)^s / s!  *  H_{2(order+s)}(x)

    with sigma^2 = ``cumulant(2, q)`` and G(t) = sum_{m>=1} g_{2m} t^m: the
    bases g_k = gamma_{k+2} / (k+2)! of ``general_polynomial`` at even k,
    from the Bernoulli closed form in ``cumulant``.  Only the series
    algorithm differs from that route: the bases are brought to their
    common denominator L, so G = N(t) / L with integer N, and the
    successive powers N^s, truncated at t^order, are integer polynomials:
    [t^order] G^s = [t^order] N^s / L^s.  Even degree 2*(order + s_max),
    even powers of x only.
    """
    order = _int(order, "order")  # q reaches only cumulant, which gates it
    # cumulant's Fractions are built from Python ints: no _ratio needed
    gs = [_base(cumulant(k, q).as_integer_ratio(), k)
          for k in range(4, 2 * order + 3, 2)]
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
    return _hermite_sum(weights)


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
        corr += uniform_polynomial(v, q)(x) / n**v
    return gaussian(x) * (1.0 + corr)
