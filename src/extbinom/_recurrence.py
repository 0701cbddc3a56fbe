"""The three-term recurrence of the rows of ``(1 + x + ... + x^q)**n``.

The holonomic series ``((1 - x^Q) / (1 - x))**n``, Q = q + 1, satisfies

    k a_k = (k-1+n) a_{k-1} + (k-Q-nQ) a_{k-Q} + (nQ-n-k+Q+1) a_{k-Q-1}

with the division by k exact (J.C.P. Miller's recurrence for powers of
a series, Knuth TAOCP Vol. 2 section 4.7), so a_0..a_stop cost O(stop)
big-integer steps.  ``prefix`` is the one loop; ``row`` mirrors its
first half into a whole row, and ``coefficient`` reads one value from
the shorter side of the row's symmetry, a_k = a_{nq-k}.

The module also holds the integer-argument gate and the lowest-terms
helpers that every layer shares.  It imports only ``math`` and
``operator``, which the interpreter loads at start-up, so that the CLI's
``coeff`` and ``row`` read the recurrence without loading ``fractions``.
"""

from math import gcd
from operator import index


def _int(value, name: str, low: int = 1) -> int:
    """An integer argument as a Python int, refused with ValueError below
    ``low``: 1 ("a positive integer") or 0 ("a nonnegative integer").

    Every public function takes its integer arguments (n, q, each order
    and the k of a point query) through here or ``_check_nq`` before any
    work, and a memoized one before its cache lookup, or else its cache
    keys by type, so that a float never finds an int's entry;
    ``exact.compute_row`` alone does neither.  ``operator.index`` turns a
    numpy integer into an int, so no value is computed or cached from
    int64 arithmetic, which wraps, and refuses a float, even an integral
    one, with TypeError.
    """
    value = index(value)
    if value < low:
        kind = "positive" if low else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    return value


def _check_nq(n, q) -> tuple[int, int]:
    """n and q through ``_int``, in one call with ``index`` inline, since
    the point queries run it on every lookup."""
    n, q = index(n), index(q)
    if n < 1 or q < 1:
        _int(n, "n")
        _int(q, "q")
    return n, q


def _reduced(numerator: int, denominator: int) -> tuple[int, int]:
    """numerator / denominator as a lowest-terms int pair, for ints with
    denominator >= 1."""
    g = gcd(numerator, denominator)
    return numerator // g, denominator // g


def _filled(fraction_type, numerator: int, denominator: int):
    """A ``fractions.Fraction`` of a pair already in lowest terms (coprime
    ints, denominator >= 1).

    ``object.__new__`` makes a bare instance and its two slots are filled
    directly, which skips the Python-level ``Fraction.__new__`` with its
    type dispatch, sign check and gcd.  CPython 3.11 to 3.14, the
    versions CI runs, name the slots alike, and
    ``tests/test_special.py::TestLowestTerms`` checks them on each.
    Callers pass ``Fraction`` as ``fraction_type``, so that this module
    does not load ``fractions``.
    """
    f = object.__new__(fraction_type)
    f._numerator = numerator
    f._denominator = denominator
    return f


def prefix(n: int, q: int, stop: int) -> list[int]:
    """a_0..a_stop of the row for (n, q), as a list of stop + 1 ints, in
    O(stop) memory whatever q is."""
    # Q+1 leading zeros stand in for a_{-Q-1}..a_{-1}, so a[k+Q+1] = a_k
    # and the one step holds from k = 1 without a branch.  A stop below
    # Q-1 needs only stop+2 of them: for k <= stop the far reads a[k+1]
    # and a[k] are zeros, as a_{k-Q} and a_{k-Q-1} are.  The factors c1,
    # cQ and cQ1 of a_{k-1}, a_{k-Q} and a_{k-Q-1} are carried from step
    # to step.
    Q = q + 1
    pad = min(Q + 1, stop + 2)
    a = [0] * pad + [1]
    c1, cQ, cQ1 = n, 1 - Q - n * Q, n * Q - n + Q
    for k in range(1, stop + 1):
        a.append((c1 * a[-1] + cQ * a[k + 1] + cQ1 * a[k]) // k)
        c1 += 1
        cQ += 1
        cQ1 -= 1
    del a[:pad]
    return a


def row(n: int, q: int) -> tuple[int, ...]:
    """The whole row a_0..a_{nq}: its first half and the mirror of it,
    which shares the same int objects."""
    n, q = _check_nq(n, q)
    top = n * q
    half = top // 2
    a = prefix(n, q, half)
    return tuple(a + a[top - half - 1::-1])


def coefficient(n: int, k: int, q: int) -> int:
    """a_k of the row for (n, q), zero for k outside 0..n*q, from the
    min(k, n*q - k) + 1 values up to it and no more."""
    n, q = _check_nq(n, q)
    k = index(k)
    top = n * q
    if not 0 <= k <= top:
        return 0
    return prefix(n, q, min(k, top - k))[-1]
