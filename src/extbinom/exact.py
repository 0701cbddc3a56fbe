"""Exact extended binomial coefficients.

The row for parameters (n, q) holds the coefficients of
``(1 + x + ... + x^q)**n`` as Python integers, so everything here is
exact at any size.  Row k counts the ways to write k as an ordered sum
of n integers from {0, ..., q}; dividing by (q+1)**n turns a row into
the point probabilities of a sum of n independent uniforms on
{0, ..., q}.

``compute_row`` builds a row from the three-term recurrence in
``extbinom._recurrence`` (J.C.P. Miller's recurrence for powers of a
series, Knuth TAOCP Vol. 2 section 4.7), so a row costs O(n * q)
big-integer steps; it builds only the first half and mirrors it, since
rows are symmetric.  ``iter_rows`` keeps the running window sum
(multiply by the base polynomial), an independent route that costs
O(n * q) additions per row.  All functions are pure; ``compute_row``
memoizes through ``functools.lru_cache``, which is thread-safe and
returns immutable rows, so the point queries here (``coefficient``,
``scaled_probability``, ``composition_count``) read a cached row.  A
single query is cheaper from ``_recurrence.coefficient``, which computes
no value past the one it returns; the CLI's ``coeff`` uses it.  Each
row carries its sum ``total`` = (q+1)**n, computed on first use;
``scaled_probability`` divides by it in lowest terms without a gcd over
the full pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import index
from typing import Iterator

from extbinom._recurrence import _check_nq, _filled
from extbinom._recurrence import row as _row


@dataclass(frozen=True)
class BigRow:
    """One exact coefficient row of ``(1 + x + ... + x^q)**n``.

    coeffs[k] is the x**k coefficient; the row has length n*q + 1, sums
    to (q+1)**n and is symmetric about its midpoint.
    """

    n: int
    q: int
    coeffs: tuple[int, ...]

    @cached_property
    def total(self) -> int:
        """(q+1)**n, the sum of the row; computed once per row object."""
        return (self.q + 1) ** self.n


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
    """Exact coefficient row of ``(1 + x + ... + x^q)**n``.

    The row is built from n and q as Python ints, so a numpy integer
    key, which hashes and compares equal to its int, caches the same
    row."""
    n, q = index(n), index(q)
    return BigRow(n=n, q=q, coeffs=_row(n, q))


def iter_rows(q: int, n_max: int) -> Iterator[BigRow]:
    """Yield the rows for n = 1..n_max, each built from the previous one
    by a window sum.

    A full sweep costs O(n_max^2 * q) additions, against O(n_max * q)
    steps for a single ``compute_row(n_max, q)``, so prefer this only
    when every row is needed or as a route independent of the
    recurrence.
    """
    n_max, q = index(n_max), index(q)
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
    if not 0 <= k <= n * q:  # no row is built for a zero outside it
        _check_nq(index(n), index(q))
        return 0
    return compute_row(n, q).coeffs[k]


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
    as an exact rational in lowest terms.

    On a cached row this costs a few divisions of row-sized integers:
    the common factor is found against a small power of q+1, not by a
    gcd with (q+1)**n.
    """
    if not 0 <= k <= n * q:  # no row is built for a zero outside it
        _check_nq(index(n), index(q))
        return Fraction(0)
    row = compute_row(n, q)
    # the row's own n and q, which are ints even when the caller's are not
    n, base = row.n, row.q + 1
    c, total = row.coeffs[k], row.total
    # Every common factor of c and (q+1)**n is a prime of q+1, so
    # g = gcd(c, (q+1)**m) is the full gcd once c // g shares no prime
    # with q+1; until then double m, up to m = n.
    m = 8
    while True:
        g = gcd(c, base**m if m < n else total)
        reduced = c // g
        if m >= n or gcd(reduced, base) == 1:
            # reduced and total // g are coprime: Fraction() would run
            # a full gcd to normalise them again
            return _filled(Fraction, reduced, total // g)
        m *= 2
