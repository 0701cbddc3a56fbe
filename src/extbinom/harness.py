"""Approximation-quality measurements against the exact rows.

Errors are measured in the scaled metric: the exact side is
sqrt(q*(q+2)*n/12) * coefficient / (q+1)**n with the integer ratio
formed exactly and converted to floating point in one step, so there is
no cancellation even when (q+1)**n has hundreds of digits.  The sup is
taken over the support {0, ..., n*q}; outside it the exact value is 0
and the approximation's tail there is far below the errors inside: at
(n, q) = (50, 1) it is 7.2e-13 at k = -1 (3.1e-12 at order 2), against a
sup error of 2.0e-3 (4.5e-7 at order 2).

A sweep's order-independent arrays over k = 0..n*q//2 for each of its
n are memoized in one LRU entry keyed by (ns, q): the exact scaled
values, the standardized points x and the Gaussian density at x, three
read-only float arrays, 24 bytes per point, smaller than the integer
rows they come from.  The half rows of all n are joined end to end; a
one-row table is that row's own arrays, with no copy.  The sum of the
corrections up to each order is kept in four entries (8 bytes per
point), so a sweep over orders 0, 1, 2, ... converts each row once and
evaluates each correction polynomial once, over the half rows of all n.

All operations are pure, and every cache is an lru_cache (thread-safe)
of read-only arrays, so calls are safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from extbinom._recurrence import _check_nq, _int
from extbinom.edgeworth import (  # exact_scaled_value is re-exported
    _scale,
    approximate_scaled,
    exact_scaled_value,
    gaussian,
    standardize,
    uniform_correction,
)
from extbinom.exact import compute_row


@dataclass(frozen=True)
class SweepRecord:
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
    row and every correction are even about n*q/2.  The exact values, x
    and the Gaussian density come from the sweep cache, keyed here by
    ((n,), q), so only the correction polynomials are evaluated per
    order; every value has the bits of ``approximate_scaled`` at each k.
    It is the one-row case of ``rate_sweep``'s evaluation."""
    n, q = _check_nq(n, q)
    return _sup_errors((n,), q, _int(order, "order", 0))[0]


def _sup_errors(ns: tuple[int, ...], q: int, order: int) -> list[tuple[float, int]]:
    """uniform_error(n, q, order) for each n in ns: the half rows end to
    end, each correction evaluated once, each first argmax on its slice."""
    exact, _, base, lengths = _joined(ns, q)
    err = abs(exact - base * (1.0 + _partial_sum(ns, q, order)))
    out, start = [], 0
    for length in lengths:
        k = int(err[start : start + length].argmax())
        out.append((float(err[start + k]), k))
        start += length
    return out


@lru_cache(maxsize=1)
def _joined(ns: tuple[int, ...], q: int):
    """The order-independent arrays over k = 0..n*q//2 of every n in ns,
    end to end and read-only since every caller shares them: the exact
    scaled values, x = standardize(n, k, q) and gaussian(x), and each
    row's length."""
    import numpy as np

    rows = []
    for n in ns:
        half = n * q // 2 + 1  # the error is bit-symmetric, so its first max is in here
        row = compute_row(n, q)
        denom = row.total
        exact = np.array([c / denom for c in row.coeffs[:half]]) * _scale(n, q)
        x = standardize(n, np.arange(half), q)
        rows.append((exact, x, gaussian(x)))
    arrays = rows[0] if len(rows) == 1 else [np.concatenate(a) for a in zip(*rows)]
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, tuple(len(x) for _, x, _ in rows))


@lru_cache(maxsize=4)
def _partial_sum(ns: tuple[int, ...], q: int, order: int):
    """sum_{v=1}^{order} P_v(x) / n**v over _joined(ns, q)'s x, read-only:
    the sum of order - 1 plus P_order(x) over each row's float(n**order),
    the float numpy takes from the int n**order, so every bit is kept."""
    if order == 0:
        return 0.0
    import numpy as np

    _, x, _, lengths = _joined(ns, q)
    div = np.repeat([float(n**order) for n in ns], lengths)
    corr = _partial_sum(ns, q, order - 1) + uniform_correction(order, q).poly(x) / div
    corr.flags.writeable = False
    return corr


def rate_sweep(q: int, order: int, n_list: Sequence[int]) -> SweepReport:
    """Measure uniform_error over n_list and fit the empirical decay rate.

    Each correction polynomial is evaluated once over the half rows of
    all n, end to end, and every record has the bits of its own
    ``uniform_error(n, q, order)``.  For the uniform case the expected
    slope is -(order + 1), the power of the first dropped correction
    term.  Requires at least 3 strictly increasing n values.
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
    so the sums are exact ints, the slope is one correctly rounded int/int
    division and the stderr the sqrt of another.  No numpy, so no LAPACK."""
    m = len(ns)
    xs, dx = _over_power_of_two([math.log(n) for n in ns])
    ys, dy = _over_power_of_two([math.log(e) for e in errors])
    sx, sy = sum(xs), sum(ys)
    sxx = m * sum(a * a for a in xs) - sx * sx
    sxy = m * sum(a * b for a, b in zip(xs, ys)) - sx * sy
    syy = m * sum(b * b for b in ys) - sy * sy
    slope = sxy * dx / (sxx * dy)
    # the slope's variance s^2 / sum((x - mean)^2); by Cauchy-Schwarz never < 0
    var = (syy * sxx - sxy * sxy) * dx * dx / ((m - 2) * sxx * sxx * dy * dy)
    return slope, math.sqrt(var)


def _over_power_of_two(values: list[float]) -> tuple[list[int], int]:
    """Ints N_i and one power of two d with values[i] == N_i / d exactly."""
    pairs = [v.as_integer_ratio() for v in values]
    d = max(b for _, b in pairs)
    return [a * (d // b) for a, b in pairs], d


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
