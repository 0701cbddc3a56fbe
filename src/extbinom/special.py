"""Exact-rational kernel of the correction layer, with no result record:
polynomials, Bernoulli numbers, probabilist's Hermite polynomials, the
cumulants of the uniform on {0, ..., q}, the correction polynomials and
the float layer that evaluates them.

It imports neither ``dataclasses``, ``threading`` (its one lock comes
from ``_thread``) nor, at module level, numpy, so that the CLI's
``expand``, ``qpoly`` and ``cumulants`` load nothing more; ``cumulants``
and ``edgeworth`` wrap its results in frozen dataclasses.

Conventions: rationals are ``fractions.Fraction`` in lowest terms.
Bernoulli numbers follow the generating function ``t / (e^t - 1)``, so
``B_1 = -1/2``; only even indices are consumed downstream, where both
sign conventions agree.  Hermite polynomials are the probabilist's
family, orthogonal for the weight ``exp(-x^2/2)``: ``H_2 = x^2 - 1``,
NOT the physicist's (``exp(-x^2)`` weight, ``H_2 = 4x^2 - 2``).
"""

from __future__ import annotations

import math
from _thread import allocate_lock
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import count, zip_longest
from math import comb, factorial, perm
from numbers import Rational, Real
from operator import add, index, mul

from extbinom._recurrence import _check_nq, _filled, _int, _reduced
from extbinom._recurrence import coefficient as _coefficient


def _fraction(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) for ints with denominator >= 1, by
    one gcd and without running ``Fraction.__new__``."""
    numerator, denominator = _reduced(numerator, denominator)
    return _filled(Fraction, numerator, denominator)


def _ratio(value, name: str) -> tuple[int, int]:
    """The numerator and denominator of a ``numbers.Rational`` as Python
    ints, through ``operator.index``: those of a Fraction of numpy
    integers, or of a numpy integer itself, are numpy integers, whose
    arithmetic wraps.  Anything else, a float included, raises TypeError.
    """
    if not isinstance(value, Rational):
        raise TypeError(f"{name} must be an int or Fraction, got {value!r}")
    return index(value.numerator), index(value.denominator)


def _float64(x):
    """A numpy float of any dtype, scalar or array, as float64, so that a
    float32 or float16 one gives the bits of the float64 call at the same
    values; a float64 array is not copied, and anything else is returned
    as it is."""
    if hasattr(x, "dtype") and x.dtype.kind == "f":
        return x.astype("float64", copy=False)
    return x


def _exact(c) -> Fraction:
    """A polynomial coefficient as a Fraction of Python ints: such a
    Fraction as it is (it is immutable), a float exactly, any other value
    by ``_ratio``, which refuses what is not a ``numbers.Rational``."""
    if type(c) is Fraction and type(c.numerator) is int and type(c.denominator) is int:
        return c
    if isinstance(c, float):
        return Fraction(c)
    return _fraction(*_ratio(c, "a coefficient"))


class RationalPolynomial:
    """Dense polynomial with exact Fraction coefficients; coeffs[i] is the
    coefficient of x**i.

    Trailing zero coefficients are stripped on construction, so equal
    polynomials always compare equal.  Each coefficient becomes a Fraction
    of Python ints (``_exact``): a float exactly, any other
    ``numbers.Rational`` by its numerator and denominator, and anything
    else raises TypeError.  The correction builders, ``+`` and scalar
    ``*``, whose Fractions are all of Python ints (a scalar is taken
    through ``_exact`` first), construct through ``_of_fractions``, which
    skips that conversion.

    One operand rule: a point or scalar that is a ``numbers.Rational``
    (an int, a Fraction, a numpy integer) is exact, taken as a Fraction of
    Python ints (``_exact``) as each coefficient is, so nothing runs in
    int64; anything else evaluates in float64 and is refused as a scalar.

    Evaluation runs one Horner loop, stepping in place and skipping the
    add of each zero coefficient but the constant, which leaves the exact
    value and the bits of the full float scheme.  At a rational point it
    starts from Fraction(0).  At anything else (floats, numpy floats,
    ``np.bool_``, arrays) it runs on float coefficients converted once, on
    the first such call, takes a numpy float x as float64 (``_float64``)
    and starts from ``0.0 * x``, a new value, so that x is never written.

    Supports ``p + r``, ``c * p`` and ``p * c`` for a rational scalar c,
    ``==``, hashing, ``repr``, ``degree`` and ``is_zero``; ``+`` and
    ``*`` with any other operand raise TypeError.  The correction
    builders assemble their sums in integers instead; the arithmetic
    serves the tests' partition oracles and worked identities.
    """

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs: Iterable[int | Fraction]) -> None:
        self._fill([_exact(c) for c in coeffs])

    @classmethod
    def _of_fractions(cls, coeffs: list[Fraction]) -> "RationalPolynomial":
        """The polynomial of a list of Fractions of Python ints, taken as
        they are; the list is consumed."""
        poly = object.__new__(cls)
        poly._fill(coeffs)
        return poly

    def _fill(self, cs: list[Fraction]) -> None:
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._floats: tuple[float, ...] | None = None

    @property
    def degree(self) -> int:
        """Degree of the stored form; the zero polynomial reports 0."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    def __call__(self, x):
        if isinstance(x, Rational):
            cs, acc, x = self.coeffs, Fraction(0), _exact(x)
        else:
            if self._floats is None:
                self._floats = tuple(map(float, self.coeffs))
            x = _float64(x)
            cs, acc = self._floats, 0.0 * x  # a new value: x is never written
        for c in reversed(cs):
            acc *= x
            if c:  # + 0.0 changes at most the sign of a zero, and the next
                acc += c  # nonzero add or the last + cs[0] gives the same bits
        return acc if cs[0] else acc + cs[0]

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return RationalPolynomial._of_fractions(
            [a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, Rational):
            other = _exact(other)
            return RationalPolynomial._of_fractions([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coeffs)!r})"


@lru_cache(maxsize=None, typed=True)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m, exact.

    Computed from the defining recurrence
    ``sum_{j=0..m} C(m+1, j) B_j = 0`` with ``B_0 = 1``, which forces
    ``B_1 = -1/2`` and zero at every odd index above 1, so those return
    at once and the sum skips them.
    """
    m = _int(m, "m", 0)
    if m == 0:
        return Fraction(1)
    if m % 2 and m > 1:
        return Fraction(0)
    acc = sum(comb(m + 1, j) * bernoulli(j) for j in range(m) if j < 2 or j % 2 == 0)
    return -acc / (m + 1)


def hermite(m: int) -> RationalPolynomial:
    """Probabilist's Hermite polynomial H_m, exact integer coefficients,
    built anew from the memoized ``_hermite_coeffs`` (which gates m)."""
    return RationalPolynomial(_hermite_coeffs(m))


@lru_cache(maxsize=None, typed=True)
def _hermite_coeffs(m: int) -> tuple[int, ...]:
    """The integer coefficients of H_m, that of x**i at index i, as a
    tuple that every caller shares, memoized: the correction builders of
    orders 1..V for one q share most degrees.

    Closed form (DLMF section 18.5): the coefficient of x^(m-2j) is
    (-1)^j m! / (j! (m-2j)! 2^j) for j = 0..m//2, and every coefficient
    of the other parity is zero.  Each coefficient follows from the
    previous one by an exact integer step, so H_m costs O(m) integer
    operations.
    """
    m = _int(m, "m", 0)
    coeffs = [0] * (m + 1)
    c = 1
    for i in range(m, -1, -2):  # c is the coefficient of x**i
        coeffs[i] = c
        # times -i(i-1) / (m-i+2); exact, so the floor is the quotient
        c = c * (i * (i - 1)) // (i - m - 2)
    return tuple(coeffs)


def enumerate_partition_solutions(order: int) -> list[tuple[int, ...]]:
    """All nonnegative (k_1, ..., k_order) with k_1 + 2*k_2 + ... = order.

    One solution per integer partition of ``order``, in no promised
    order.  The tests' oracle for the correction builders' power series,
    and the benchmark's partition counter.
    """
    order = _int(order, "order")
    return list(_partitions(order, order))


def _partitions(m: int, remaining: int, tail: tuple[int, ...] = ()):
    # the solutions (k_1, ..., k_m) of k_1 + 2*k_2 + ... + m*k_m = remaining,
    # each followed by tail, by descent on the largest part index m
    if m == 1:
        yield (remaining, *tail)
        return
    for k in range(remaining // m + 1):
        yield from _partitions(m - 1, remaining - m * k, (k, *tail))


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
    return _fraction(b.numerator * ((q + 1) ** k - 1), b.denominator * k)


def gammas_up_to(order: int, q: int) -> tuple[Fraction, ...]:
    """Cumulants gamma_1..gamma_order of the uniform on {0, ..., q}."""
    order, q = _int(order, "cumulant order"), _int(q, "q")
    return tuple(cumulant(k, q) for k in range(1, order + 1))


def gammas_from_moments(order: int, q: int) -> tuple[Fraction, ...]:
    """Same cumulants derived from raw moments, as an independent check,
    by ``_moment_cumulants``, whose cumulants ``_kept`` keeps per q."""
    order, q = _int(order, "cumulant order"), _int(q, "q")
    return tuple(_kept(_moment_cumulants, q, order)[:order])


_extending = allocate_lock()


@lru_cache(maxsize=4)
def _series(q: int) -> dict:
    """The resumed routes' series of q for ``_kept``: each generator
    function to [the items it has yielded so far, in order, its
    generator]."""
    return {}


def _kept(steps, q: int, order: int) -> list:
    """The items that the generator ``steps(q)`` has yielded so far, at
    least order of them, for an int q.

    A resumed route keeps its generator in ``_series(q)``, for the last
    four q, so each item is computed once per q kept: a call steps the
    generator only past the longest order asked so far.  Steps run under
    one lock.  A step that raises, KeyboardInterrupt included, drops that
    route's series of q, so a later call starts it afresh.  The list
    returned only grows, so its first order items never change.
    """
    with _extending:
        kept = _series(q)
        if steps not in kept:
            kept[steps] = [[], steps(q)]
        items, generator = kept[steps]
        try:
            while len(items) < order:
                items.append(next(generator))
        except BaseException:  # the step may have lost its state on the way
            del kept[steps]
            raise
    return items


def _moment_cumulants(q: int):
    """Yield gamma_1, gamma_2, ... of the uniform on {0, ..., q}, without
    end, from raw moments.

    The raw moments are m_j = S_j / Q with the power sums
    S_j = sum_{v=0..q} v**j and Q = q + 1, each S_j from the lower ones
    by Pascal's identity sum_{i=0..j} C(j+1, i) S_i = Q^(j+1), so the
    cost does not grow with q and no Bernoulli number enters; the usual
    recursion gamma_k = m_k - sum_{j=1..k-1} C(k-1, j-1) gamma_j m_{k-j}
    converts them.  It runs in integers on M_j = m_j Q^j = S_j Q^(j-1)
    and Gamma_k = gamma_k Q^k:

        Gamma_k = M_k - sum_{j=1..k-1} C(k-1, j-1) Gamma_j M_{k-j}
    """
    big_q = q + 1
    powers = [1, big_q]  # powers[j] = Q**j
    sums = [big_q]  # sums[j] = S_j, each added by Pascal's identity
    moments = [1]  # moments[j] = M_j
    scaled: list[int] = []  # scaled[k - 1] = Gamma_k
    # Pascal rows C(k-1, .), C(k, .) and C(k+1, .)
    below, middle, above = [1], [1, 1], [1, 2, 1]
    for k in count(1):
        powers.append(powers[k] * big_q)
        # zip stops at the shorter list: i = 0..k-1 here, j = 1..k-1 below
        sums.append((powers[k + 1] - sum(map(mul, above, sums))) // (k + 1))
        tail = sum(map(mul, map(mul, below, scaled), reversed(moments)))
        moments.append(sums[k] * powers[k - 1])
        scaled.append(moments[k] - tail)
        below, middle, above = middle, above, [1, *map(add, above, above[1:]), 1]
        yield _fraction(scaled[-1], powers[k])


def gaussian(x):
    """Standard normal density (1/sqrt(2*pi)) * exp(-x**2/2) at a real x,
    or over a float array of any shape in one pass that still calls
    math.exp at each point, so every value has the scalar bits: numpy's
    exp can differ from it in the last place, and by CPU.  A numpy float
    x of any dtype is taken as float64 (``_float64``); a 0-d array gives
    the scalar result, since arithmetic on it gives a numpy scalar."""
    x = _float64(x)
    e = -0.5 * x * x
    if isinstance(e, Real):
        return math.exp(e) / SQRT_2PI
    import numpy as np
    exps = np.fromiter(map(math.exp, e.ravel().tolist()), float, e.size)
    return exps.reshape(e.shape) / SQRT_2PI


def standardize(n: int, k, q: int) -> float:
    """Lattice point k less the mean n*a/b, over the standard deviation
    sqrt(n*c/d) of the n-fold uniform sum, with a/b = ``cumulant(1, q)`` and
    c/d = ``cumulant(2, q)`` reduced; exactly 0.0 at the central point.

    A numpy k of an integer or bool dtype, scalar or array, is taken as
    int64 (an int64 array uncopied), so that ``b * k - n * a`` cannot wrap
    in a narrower or unsigned dtype, and one of a float dtype as float64
    (``_float64``); a Python float k is used as it is."""
    n, q = _check_nq(n, q)
    if hasattr(k, "dtype") and k.dtype.kind in "biu":
        k = k.astype("int64", copy=False)
    k = _float64(k)
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
    ``compute_row(n, q)`` instead.  Where (q + 1)**n exceeds the
    coefficient times 2**1100, the correctly rounded ratio is 0.0, below
    the smallest subnormal 2**-1074, so 0.0 is returned before the power
    is formed."""
    n, q = _check_nq(n, q)
    c = _coefficient(n, k, q)
    if c.bit_length() + 1100 < n * ((q + 1).bit_length() - 1):
        return 0.0
    return (c / (q + 1) ** n) * _scale(n, q)


def _base(gamma: tuple[int, int], k: int) -> tuple[int, int]:
    """gamma / k! as a reduced int pair, for the cumulant gamma of order k
    given as an int pair."""
    numerator, denominator = gamma
    return _reduced(numerator, denominator * factorial(k))


def _over_lcm(pairs: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """The lcm D of the reduced pairs' denominators and each numerator over D."""
    den = math.lcm(*(b for _, b in pairs))
    return den, [a * (den // b) for a, b in pairs]


def _hermite_sum(weights: dict[int, tuple[int, int]],
                 variance: tuple[int, int]) -> RationalPolynomial:
    """sum_d (a / b) * H_d / sigma^d over the weights d: (a, b), int pairs
    (b >= 1) keyed by even degree d, with sigma^2 = vn / vd (vn >= 1) given
    as the int pair variance.  The builders' weights are free of sigma:
    this is the one place that applies it, as the reduced pair
    a vd^(d/2) / (b vn^(d/2)).  The sum runs in integers: every pair is
    brought to the lcm D of their denominators, each coefficient summed as
    an int, and each nonzero sum becomes one ``_fraction(sum, D)``; the
    zero ones, half of them by parity, share one Fraction(0).
    """
    vn, vd = variance
    den, scales = _over_lcm([_reduced(a * vd ** (d // 2), b * vn ** (d // 2))
                             for d, (a, b) in weights.items()])
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
    [t^order] G^s / s!, partial Bell polynomials in the g_k (Comtet,
    Advanced Combinatorics, 1974, section 3.3), are read off a power
    series instead of summed over the partitions of order: they are the
    coefficients of y^s in F_order(y), where
    F(t, y) = exp(y G(t)) = sum_n F_n(y) t^n obeys the J.C.P. Miller
    recurrence n F_n = y sum_k k g_k F_{n-k}, F_0 = 1 (Knuth, TAOCP
    Vol. 2, section 4.7); the k with g_k = 0 are skipped.  It runs in
    integers: with L the lcm of the denominators of the g_k, g_k = N_k / L
    and e_n(s) = [y^s] F_n(y) * L^s * n!, it reads e_n(s+1) = sum_k
    k N_k (n-1)!/(n-k)! e_{n-k}(s); H_{order+2s} has the sigma-free weight
    (e_order(s), L^s order!), which ``_hermite_sum`` divides by
    sigma^(order+2s).

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
    weights = {order + 2 * s: (c, den**s * factorial(order))
               for s, c in series[order].items() if c}
    return _hermite_sum(weights, (vn, vd))


@lru_cache(maxsize=256, typed=True)
def uniform_polynomial(order: int, q: int) -> RationalPolynomial:
    """Polynomial part of the correction term of the given order for the
    uniform on {0, ..., q}, memoized for the last 256 (order, q):
    ``approximate_scaled`` reads it for every k, and its float
    coefficients are converted once per entry.
    Its bases are those of ``general_polynomial``, which the tests check
    it against; only the series algorithm differs.

    The polynomial part is

        sum_s  sigma^(-2(order+s)) * [t^order] G(t)^s / s!  *  H_{2(order+s)}(x)

    with sigma^2 = ``cumulant(2, q)`` and G(t) = sum_{m>=1} g_{2m} t^m,
    the bases g_k = gamma_{k+2} / (k+2)! at even k (the odd cumulants
    vanish).  Over a common denominator L of the bases, G = N(t) / L with
    integer N, and the successive powers N^s are integer polynomials:
    [t^order] G^s = [t^order] N^s / L^s.  The column of order, L and its
    [t^order] N^s for s = 1..order, is item order of
    ``_uniform_columns(q)``, which ``_kept`` keeps per q.  H_{2(order+s)}
    has the sigma-free weight ([t^order] N^s, L^s s!), which ``_hermite_sum``
    divides by sigma^(2(order+s)) and reduces, the same over any L.  Even
    degree 2*(order + s_max), even powers of x only.
    """
    order, q = _int(order, "order"), _int(q, "q")
    den, column = _kept(_uniform_columns, q, order)[order - 1]
    weights = {2 * (order + s): (power, den**s * factorial(s))
               for s, power in enumerate(column, 1)}
    return _hermite_sum(weights, cumulant(2, q).as_integer_ratio())


_BLOCK = 8  # bases per widening of L in _uniform_columns, which rescales its table


def _uniform_columns(q: int):
    """Yield (L, [[t^m] N^s for s = 1..m]) for m = 1, 2, ..., without end,
    for the uniform on {0, ..., q}: L is a common multiple of the
    denominators of the bases g_4..g_{2m+2}, and N(t) = L * sum_j
    g_{2j+2} t^j.

    Each base is built once: one per order up to order ``_BLOCK``, so
    that a caller who stops at a low order builds no base past it, and
    then ``_BLOCK`` at a time.  L widens by a factor r to the lcm over
    each new block, which rescales the table kept so far, [t^d] N^s for
    s <= d < m, by r^s: past order ``_BLOCK``, once per block rather than
    per base.  Each column then costs O(m^2) products, [t^m] N^s being
    the sum of [t^d] N^(s-1) * N_(m-d) over d = s-1..m-1.
    """
    den = 1
    bases: list[tuple[int, int]] = []  # the int pairs of g_4, g_6, ... so far
    rows: list[list[int]] = []  # rows[s - 1] = [[t^d] N^s for d = s..m-1]
    for m in count(1):
        if m > len(bases):
            ahead = _BLOCK - 1 if m > _BLOCK else 0
            # cumulant's Fractions are built from Python ints: no _ratio needed
            block = [_base(cumulant(k, q).as_integer_ratio(), k)
                     for k in range(2 * m + 2, 2 * (m + ahead) + 4, 2)]
            bases += block
            r = math.lcm(den, *(b for _, b in block)) // den
            den *= r
            scale = 1
            for s, row in enumerate(rows):
                scale *= r  # r**(s + 1)
                rows[s] = list(map(scale.__mul__, row))
        numerator, denominator = bases[m - 1]
        # rows[0] = N_1..N_(m-1) pairs with each row read from its top end
        column = [numerator * (den // denominator),
                  *(sum(map(mul, reversed(row), rows[0])) for row in rows)]
        rows.append([])
        for row, c in zip(rows, column):
            row.append(c)
        yield den, column


def approximate_scaled(n: int, k, q: int, order: int = 0):
    """Approximate sqrt(q*(q+2)*n/12) * P(S_n = k), i.e. the exact row
    value scaled to density height, by the Gaussian density at the
    standardized point plus the first ``order`` correction terms (term v
    weighted by n**-v).  For a numpy array of k of any integer or bool
    dtype it returns the float array of the scalar int results, bit for
    bit: ``standardize`` takes such a k as int64.

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
