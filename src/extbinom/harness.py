"""Approximation-quality measurements against the exact rows.

Errors are measured in the scaled metric: the exact side is
sqrt(q*(q+2)*n/12) * coefficient / (q+1)**n with the integer ratio
formed exactly and converted to floating point in one step, so there is
no cancellation even when (q+1)**n has hundreds of digits.  The sup is
taken over the support {0, ..., n*q}; outside it the exact value is 0
and the approximation's tail there is orders of magnitude below the
errors inside.

All operations are pure, and every cache is an lru_cache (thread-safe)
of read-only arrays, so calls are safe to run concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from extbinom._recurrence import _check_nq, _int
from extbinom.exact import compute_row
from extbinom.special import (  # exact_scaled_value is re-exported
    _over_lcm,
    _scale,
    approximate_scaled,
    exact_scaled_value,
    gaussian,
    standardize,
    uniform_polynomial,
)


@dataclass(frozen=True)
class SweepRecord:
    """The sup error of one n of a sweep and the first k attaining it."""

    n: int
    sup_error: float
    argmax_k: int


@dataclass(frozen=True)
class SweepReport:
    """Per-n sup errors for one (q, order) pair plus the least-squares
    slope of log(sup_error) against log(n), computed exactly from the
    float logs and rounded once, and its standard error, the sqrt of the
    exact variance rounded once."""

    q: int
    order: int
    records: tuple[SweepRecord, ...]
    fitted_slope: float
    slope_stderr: float


def uniform_error(n: int, q: int, order: int = 0) -> tuple[float, int]:
    """Sup over k in {0, ..., n*q} of |exact scaled value - approximation|
    and the first k attaining it, evaluated over k = 0..n*q//2 only: the
    row and every correction are even about n*q/2.  Every value has the
    bits of ``approximate_scaled`` at each k.  It is the one-row case of
    ``rate_sweep``'s evaluation, and shares its cache."""
    n, q = _check_nq(n, q)
    return _sup_errors((n,), q, _int(order, "order", 0))[0]


def _sup_errors(ns: tuple[int, ...], q: int, order: int) -> list[tuple[float, int]]:
    """uniform_error(n, q, order) for each n in ns: the half rows end to
    end, each correction evaluated once, each first argmax on its slice."""
    exact, _, base, lengths, corr = _table(ns, q, order)
    err = abs(exact - base * (1.0 + corr))
    out, start = [], 0
    for length in lengths:
        k = int(err[start : start + length].argmax())
        out.append((float(err[start + k]), k))
        start += length
    return out


@lru_cache(maxsize=4)
def _table(ns: tuple[int, ...], q: int, order: int):
    """The arrays over k = 0..n*q//2 of every n in ns, end to end and
    read-only, as every caller shares them: the exact scaled values,
    x = standardize(n, k, q), gaussian(x), each row's length and the sum
    of P_v(x) / n**v over v = 1..order (0.0 at order 0).  Order 0 joins
    its rows' arrays; order v shares order v - 1's and adds P_v(x) over
    each row's float(n**v), which numpy takes from the int, so every bit
    is kept.  Four entries let a sweep over orders 0, 1, 2, ... convert
    each row and evaluate each correction polynomial once.  The shared
    arrays take 24 bytes per point and each order's sum 8 more."""
    import numpy as np

    if order:
        exact, x, base, lengths, below = _table(ns, q, order - 1)
        div = np.repeat([float(n**order) for n in ns], lengths)
        corr = below + uniform_polynomial(order, q)(x) / div
        corr.flags.writeable = False
        return exact, x, base, lengths, corr
    rows = []
    for n in ns:
        half = n * q // 2 + 1  # the error is bit-symmetric, so its first max is in here
        row = compute_row(n, q)
        denom = row.total
        exact = np.array([c / denom for c in row.coeffs[:half]]) * _scale(n, q)
        x = standardize(n, np.arange(half), q)
        rows.append((exact, x, gaussian(x)))
    arrays = [np.concatenate(a) for a in zip(*rows)]
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, tuple(len(x) for _, x, _ in rows), 0.0)


def rate_sweep(q: int, order: int, n_list: Sequence[int]) -> SweepReport:
    """Measure uniform_error over n_list and fit the empirical decay rate.

    Every record has the bits of its own ``uniform_error(n, q, order)``,
    and each correction polynomial is evaluated once over the half rows
    of all n.  For the uniform case the expected slope is -(order + 1),
    the power of the first dropped correction term.  Requires at least 3
    strictly increasing n values.
    """
    # ints: a numpy int64 n**v wraps
    ns = tuple(_int(n, "n") for n in n_list)
    q, order = _int(q, "q"), _int(order, "order", 0)
    if len(ns) < 3:
        raise ValueError(f"need at least 3 values of n, got {len(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    records = tuple(
        SweepRecord(n, *result) for n, result in zip(ns, _sup_errors(ns, q, order))
    )
    for r in records:
        if not 0 < r.sup_error < math.inf:
            raise ValueError(
                f"sup_error at n={r.n} is {r.sup_error!r}; cannot fit a log-log slope")
    slope, stderr = _ols_loglog(
        [r.n for r in records], [r.sup_error for r in records]
    )
    return SweepReport(
        q=q, order=order, records=records, fitted_slope=slope, slope_stderr=stderr
    )


def _ols_loglog(ns: Sequence[int], errors: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(n) and its standard
    error, exactly from the float logs: each is an int over a power of two,
    so over their lcm the sums are exact ints, the slope is one correctly
    rounded int/int division and the stderr the sqrt of another.  No
    numpy, so no LAPACK."""
    m = len(ns)
    dx, xs = _over_lcm([math.log(n).as_integer_ratio() for n in ns])
    dy, ys = _over_lcm([math.log(e).as_integer_ratio() for e in errors])
    sx, sy = sum(xs), sum(ys)
    sxx = m * sum(a * a for a in xs) - sx * sx
    sxy = m * sum(a * b for a, b in zip(xs, ys)) - sx * sy
    syy = m * sum(b * b for b in ys) - sy * sy
    slope = sxy * dx / (sxx * dy)
    # the slope's variance s^2 / sum((x - mean)^2); by Cauchy-Schwarz never < 0
    var = (syy * sxx - sxy * sxy) * dx * dx / ((m - 2) * sxx * sxx * dy * dy)
    return slope, math.sqrt(var)


def central_ratio(n: int, q: int) -> float:
    """Ratio of the central coefficient to its Gaussian prediction
    (q+1)**n / sqrt(2*pi*n*q*(q+2)/12); tends to 1 as n grows.

    Defined only when n*q is even, so that the central index n*q/2 is an
    integer.
    """
    n, q = _check_nq(n, q)
    if (n * q) % 2:
        raise ValueError(f"central index requires n*q even, got n={n}, q={q}")
    row = compute_row(n, q)
    # exact ratio, one float conversion; its own prefactor keeps the bits that tests pin
    return (row.coeffs[n * q // 2] / row.total) * math.sqrt(2 * math.pi * n * q * (q + 2) / 12)


def first_order_cross_check(n: int, k: int, q: int) -> tuple[float, float]:
    """Evaluate the one-correction approximation along two routes.

    The first goes through the assembled correction polynomial; the
    second codes the same first-order factor directly:

        1 - ((q+1)^4 - 1) * (x^4 - 6x^2 + 3) / (20 n q^2 (q+2)^2)

    times the Gaussian density.  Any gap beyond float rounding signals
    an assembly bug; the tests require agreement to 1e-12.
    """
    n, q = _check_nq(n, q)
    series = approximate_scaled(n, k, q, order=1)
    x = standardize(n, k, q)
    factor = 1.0 - ((q + 1) ** 4 - 1) * (x**4 - 6 * x * x + 3) / (
        20 * n * q * q * (q + 2) ** 2
    )
    return series, gaussian(x) * factor
