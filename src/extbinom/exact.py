"""Exact extended binomial coefficients.

The row for parameters (n, q) holds the coefficients of
``(1 + x + ... + x^q)**n`` as Python integers, so everything here is
exact at any size.  Row k counts the ways to write k as an ordered sum
of n integers from {0, ..., q}; dividing by (q+1)**n turns a row into
the point probabilities of a sum of n independent uniforms on
{0, ..., q}.

``compute_row`` builds a row by the recurrence of
``extbinom._recurrence`` and caches it within a budget of bits, and the
point queries read the cached row.  ``iter_rows`` is a route by window
sums, independent of the recurrence.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import index
from threading import Lock

from extbinom._recurrence import _check_nq, _filled, _int
from extbinom._recurrence import coefficient as _coefficient
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


# the row cache's budget in bits of ``_row_bits`` estimates (see compute_row)
ROW_CACHE_BITS = 2**31

_held_bits = 0  # estimated size of the rows cached since the last flush
_held_lock = Lock()


def _row_bits(coeffs: tuple[int, ...]) -> int:
    """An O(1) estimate, in bits, of the memory a cached row takes.

    Each of the row's slots is a 64-bit pointer, and half of them hold
    distinct ints (the mirror shares the other half), each an int object
    of about 200 bits of header and at most as many value bits as the
    central, largest coefficient; 2048 bits cover the row's own objects.
    It is never below what ``sys.getsizeof`` measures for the row's
    tuple and its distinct ints, and on rows of many-digit coefficients
    it is at most about 1.3 times that.
    """
    length = len(coeffs)
    return 2048 + length * (192 + coeffs[length // 2].bit_length() // 2)


def _hold(coeffs: tuple[int, ...]) -> None:
    # count a row about to be cached, under compute_row's flush rule
    global _held_bits
    bits = _row_bits(coeffs)
    with _held_lock:
        # an empty cache holds nothing, also after an outside cache_clear()
        if compute_row.cache_info().currsize == 0:
            _held_bits = 0
        if _held_bits + bits > ROW_CACHE_BITS:
            compute_row.cache_clear()
            _held_bits = 0
        _held_bits += bits


@lru_cache(maxsize=None)
def compute_row(n: int, q: int) -> BigRow:
    """Exact coefficient row of ``(1 + x + ... + x^q)**n``, built by the
    recurrence in O(n * q) big-integer steps and cached.

    Rows range from about 18 KB at (50, 12) to 63 MB at (20000, 2), so the
    cache is bounded by the rows' estimated bits (``_row_bits``), not by
    their count.  Each miss adds its row's estimate to a running total;
    the miss that would take the total past ``ROW_CACHE_BITS``, 256 MiB
    (three (20000, 2) rows, and every benchmark workload's rows about 90
    times over), first empties the whole cache, and the count starts
    again at the new row.  Emptying everything, not evicting by size,
    keeps every hit in ``lru_cache``'s C code.  The rows held never take
    more than the budget plus one row.  The total is updated under a
    lock, but a row built by another thread between its count and its
    insertion can outlive a flush uncounted, so concurrent misses can add
    one row per thread.  ``cache_info()`` counts the hits and misses since
    the last flush or ``cache_clear()``; the miss that flushes is counted
    before the flush, so right after one the cache holds one row and
    counts no miss.
    """
    n, q = _check_nq(n, q)
    coeffs = _row(n, q)
    _hold(coeffs)
    return BigRow(n=n, q=q, coeffs=coeffs)


def iter_rows(q: int, n_max: int) -> Iterator[BigRow]:
    """Yield the rows for n = 1..n_max, each built from the previous one
    by a window sum.

    A full sweep costs O(n_max^2 * q) additions, against O(n_max * q)
    steps for a single ``compute_row(n_max, q)``; building every row
    n = 1..n_max by the recurrence costs as much or more.  It is
    the route independent of the recurrence, which the tests compare the
    recurrence's rows against.
    """
    n_max, q = _check_nq(n_max, q)
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
    n, k, q = index(n), index(k), index(q)
    if not 0 <= k <= n * q:  # no row is built for a zero outside it
        return _coefficient(n, k, q)
    return compute_row(n, q).coeffs[k]


def composition_count(k: int, n: int, q: int) -> int:
    """Number of compositions of k into n parts from {1, ..., q}."""
    k = _int(k, "k")
    n, q = _check_nq(n, q)
    if q == 1:
        # all parts equal 1, so only k = n is reachable
        return 1 if k == n else 0
    # shift each part down by one: n parts in {0, ..., q-1} summing to k - n
    k, q = k - n, q - 1
    return compute_row(n, q).coeffs[k] if 0 <= k <= n * q else 0


def scaled_probability(n: int, k: int, q: int) -> Fraction:
    """P(S_n = k) for S_n a sum of n independent uniforms on {0, ..., q},
    as an exact rational in lowest terms.

    On a cached row this costs a gcd against a small power of q+1, not
    against (q+1)**n, and at most two divisions of row-sized integers;
    none when the coefficient shares no prime with q+1.
    """
    n, k, q = index(n), index(k), index(q)
    if not 0 <= k <= n * q:  # no row is built for a zero outside it
        return Fraction(_coefficient(n, k, q))
    row = compute_row(n, q)
    base, c, total = q + 1, row.coeffs[k], row.total
    # Every common factor of c and (q+1)**n is a prime of q+1, so
    # g = gcd(c, (q+1)**m) is the full gcd once c // g shares no prime
    # with q+1; until then double m, up to m = n.  A prime p of q+1
    # divides c // g exactly when g holds all of p's share of (q+1)**m,
    # that is when p does not divide (q+1)**m // g.  Every prime of q+1
    # divides an int r exactly when q+1 divides r**e, for any e at least
    # the largest exponent in q+1, such as its bit length.  So the test
    # runs on small ints, not on the row-sized c // g.
    e = base.bit_length()
    m = 8
    while True:
        power = base**m if m < n else total
        g = gcd(c, power)
        if g == 1:
            return _filled(Fraction, c, total)
        if m >= n or pow(power // g, e, base) == 0:
            # c // g and total // g are coprime: Fraction() would run a
            # full gcd to normalise them again
            return _filled(Fraction, c // g, total // g)
        m *= 2
