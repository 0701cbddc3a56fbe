"""Exact extended binomial coefficients.

The row for parameters (n, q) holds the coefficients of
``(1 + x + ... + x^q)**n`` as Python integers, so everything here is
exact at any size.  Row k counts the ways to write k as an ordered sum
of n integers from {0, ..., q}; dividing by (q+1)**n turns a row into
the point probabilities of a sum of n independent uniforms on
{0, ..., q}.

``compute_row`` builds a row from the three-term recurrence that the
holonomic series ``((1 - x^Q) / (1 - x))**n``, Q = q + 1, satisfies
(J.C.P. Miller's recurrence for powers of a series, Knuth TAOCP Vol. 2
section 4.7), so a row costs O(n * q) big-integer steps.  It builds only
the first half and mirrors it, since rows are symmetric.  ``iter_rows``
keeps the running window sum (multiply by the base polynomial), an
independent route that costs O(n * q) additions per row.  All functions
are pure; ``compute_row`` memoizes through ``functools.lru_cache``,
which is thread-safe and returns immutable rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator


@dataclass(frozen=True)
class BigRow:
    """One exact coefficient row of ``(1 + x + ... + x^q)**n``.

    coeffs[k] is the x**k coefficient; the row has length n*q + 1, sums
    to (q+1)**n and is symmetric about its midpoint.
    """

    n: int
    q: int
    coeffs: tuple[int, ...]

    def coefficient(self, k: int) -> int:
        """Coefficient for any integer k; zero outside 0..n*q."""
        if 0 <= k <= self.n * self.q:
            return self.coeffs[k]
        return 0

    @property
    def support(self) -> range:
        return range(self.n * self.q + 1)


def _check_nq(n: int, q: int) -> None:
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")


def _window_step(row: list[int], q: int) -> list[int]:
    # multiply by 1 + x + ... + x^q: out[k] = sum(row[k-q : k+1])
    out = []
    window = 0
    m = len(row)
    for k in range(m + q):
        if k < m:
            window += row[k]
        if k - q - 1 >= 0:
            window -= row[k - q - 1]
        out.append(window)
    return out


@lru_cache(maxsize=64)
def compute_row(n: int, q: int) -> BigRow:
    """Exact coefficient row of ``(1 + x + ... + x^q)**n``."""
    _check_nq(n, q)
    # k a_k = (k-1+n) a_{k-1} + (k-Q-nQ) a_{k-Q} + (nQ-n-k+Q+1) a_{k-Q-1},
    # terms with a negative index dropped; the division by k is exact.
    top = n * q
    half = top // 2
    Q = q + 1
    a = [1]
    for k in range(1, half + 1):
        s = (k - 1 + n) * a[k - 1]
        if k >= Q:
            s += (k - Q - n * Q) * a[k - Q]
            if k > Q:
                s += (n * Q - n - k + Q + 1) * a[k - Q - 1]
        a.append(s // k)
    # a_k = a_{top-k}: the mirrored half shares the same int objects
    return BigRow(n=n, q=q, coeffs=tuple(a + a[top - half - 1::-1]))


def iter_rows(q: int, n_max: int) -> Iterator[BigRow]:
    """Yield the rows for n = 1..n_max, each built from the previous one
    by a window sum.

    A full sweep costs O(n_max^2 * q) additions, against O(n_max * q)
    steps for a single ``compute_row(n_max, q)``, so prefer this only
    when every row is needed or as a route independent of the
    recurrence.
    """
    _check_nq(n_max, q)
    row = [1] * (q + 1)
    yield BigRow(n=1, q=q, coeffs=tuple(row))
    for n in range(2, n_max + 1):
        row = _window_step(row, q)
        yield BigRow(n=n, q=q, coeffs=tuple(row))


def coefficient(n: int, k: int, q: int) -> int:
    """Number of ways to write k as an ordered sum of n integers in
    {0, ..., q}; zero for k outside 0..n*q.

    Reduces to the ordinary binomial coefficient C(n, k) at q = 1.
    """
    return compute_row(n, q).coefficient(k)


def composition_count(k: int, n: int, q: int) -> int:
    """Number of compositions of k into n parts from {1, ..., q}."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    _check_nq(n, q)
    if q == 1:
        # all parts equal 1, so only k = n is reachable
        return 1 if k == n else 0
    # shift each part down by one: n parts in {0, ..., q-1} summing to k - n
    return coefficient(n, k - n, q - 1)


def scaled_probability(n: int, k: int, q: int) -> Fraction:
    """P(S_n = k) for S_n a sum of n independent uniforms on {0, ..., q},
    as an exact rational."""
    return Fraction(coefficient(n, k, q), (q + 1) ** n)
