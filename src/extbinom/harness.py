"""Approximation-quality measurements against the exact rows.

Errors are measured in the scaled metric: the exact side is
sqrt(q*(q+2)*n/12) * coefficient / (q+1)**n with the integer ratio
formed exactly and converted to floating point in one step, so there is
no cancellation even when (q+1)**n has hundreds of digits.  The sup is
taken over the support {0, ..., n*q}; outside it the exact value is 0
and the approximation's tail there is far below the errors inside: at
(n, q) = (50, 1) it is 7.2e-13 at k = -1 (3.1e-12 at order 2), against a
sup error of 2.0e-3 (4.5e-7 at order 2).

The order-independent part of a row's evaluation, over k = 0..n*q//2,
is memoized in an LRU cache keyed by (n, q) with 64 entries: the exact
scaled values, the standardized points x and the Gaussian density at x,
three read-only float arrays, 24 bytes per point, smaller than the
integer row they come from.  A sweep over several orders converts each
row to floats once and repeats only the correction polynomials.

All operations are pure; calls for distinct n are independent and safe
to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from extbinom.edgeworth import (
    _correction_sum,
    approximate_scaled,
    gaussian,
    standardize,
)
from extbinom.exact import coefficient, compute_row


@dataclass(frozen=True)
class SweepRecord:
    n: int
    sup_error: float
    argmax_k: int


@dataclass(frozen=True)
class SweepReport:
    """Per-n sup errors for one (q, order) pair plus the least-squares
    slope of log(sup_error) against log(n)."""

    q: int
    order: int
    records: tuple[SweepRecord, ...]
    fitted_slope: float
    slope_stderr: float


def _scale(n: int, q: int) -> float:
    """sqrt(q*(q+2)*n/12), the standard deviation of the n-fold uniform
    sum, which turns a point probability into a density height."""
    return math.sqrt(q * (q + 2) * n / 12)


def exact_scaled_value(n: int, k: int, q: int) -> float:
    """sqrt(q*(q+2)*n/12) times the exact point probability, the quantity
    the expansion approximates.  Exact integer ratio, one float conversion."""
    return (coefficient(n, k, q) / (q + 1) ** n) * _scale(n, q)


@lru_cache(maxsize=64)
def _half_row(n: int, q: int):
    """The order-independent arrays over k = 0..n*q//2, read-only since
    every caller shares them: the exact scaled values, x = standardize(n,
    k, q) and gaussian(x)."""
    import numpy as np

    half = n * q // 2 + 1  # the error is bit-symmetric, so its first max is in here
    denom = (q + 1) ** n
    row = compute_row(n, q).coeffs
    exact = np.array([c / denom for c in row[:half]]) * _scale(n, q)
    x = standardize(n, np.arange(half), q)
    arrays = exact, x, gaussian(x)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def uniform_error(n: int, q: int, order: int = 0) -> tuple[float, int]:
    """Sup over k in {0, ..., n*q} of |exact scaled value - approximation|
    and the first k attaining it, evaluated over k = 0..n*q//2 only: the
    row and every correction are even about n*q/2.  The exact values, x
    and the Gaussian density come from a cache keyed by (n, q), so only
    the correction polynomials are evaluated per order; every value has
    the bits of ``approximate_scaled`` at each k."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    exact, x, base = _half_row(n, q)
    err = abs(exact - base * (1.0 + _correction_sum(n, x, q, order)))
    k = int(err.argmax())
    return float(err[k]), k


def rate_sweep(q: int, order: int, n_list: Sequence[int]) -> SweepReport:
    """Run uniform_error over n_list and fit the empirical decay rate.

    For the uniform case the expected slope is -(order + 1), the power
    of the first dropped correction term.  Requires at least 3 strictly
    increasing n values.
    """
    ns = list(n_list)
    if len(ns) < 3:
        raise ValueError(f"need at least 3 values of n, got {len(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    records = tuple(SweepRecord(n, *uniform_error(n, q, order)) for n in ns)
    if any(r.sup_error <= 0 for r in records):
        raise ValueError("sup_error vanished; cannot fit a log-log slope")
    slope, stderr = _ols_loglog(
        [r.n for r in records], [r.sup_error for r in records]
    )
    return SweepReport(
        q=q, order=order, records=records, fitted_slope=slope, slope_stderr=stderr
    )


def _ols_loglog(ns: Sequence[int], errors: Sequence[float]) -> tuple[float, float]:
    import numpy as np  # imported lazily so that coeff, row and expand never load it

    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    s2 = float(resid @ resid) / (len(xs) - 2)
    return float(slope), math.sqrt(s2 / sxx)


def central_ratio(n: int, q: int) -> float:
    """Ratio of the central coefficient to its Gaussian prediction
    (q+1)**n / sqrt(2*pi*n*q*(q+2)/12); tends to 1 as n grows.

    Defined only when n*q is even, so that the central index n*q/2 is an
    integer.
    """
    if n < 1 or q < 1:
        raise ValueError(f"n and q must be positive integers, got n={n}, q={q}")
    if (n * q) % 2:
        raise ValueError(f"central index requires n*q even, got n={n}, q={q}")
    c = coefficient(n, n * q // 2, q)
    # exact integer ratio, then one float conversion
    return (c / (q + 1) ** n) * math.sqrt(2 * math.pi * n * q * (q + 2) / 12)


def first_order_cross_check(n: int, k: int, q: int) -> tuple[float, float]:
    """Evaluate the one-correction approximation along two routes.

    The first goes through the assembled correction polynomial; the
    second codes the same first-order factor directly:

        1 - ((q+1)^4 - 1) * (x^4 - 6x^2 + 3) / (20 n q^2 (q+2)^2)

    times the Gaussian density.  Any gap beyond float rounding signals
    an assembly bug; the tests require agreement to 1e-12.
    """
    series = approximate_scaled(n, k, q, order=1)
    x = standardize(n, k, q)
    factor = 1.0 - ((q + 1) ** 4 - 1) * (x**4 - 6 * x * x + 3) / (
        20 * n * q * q * (q + 2) ** 2
    )
    return series, gaussian(x) * factor
