"""Exact-rational kernel: polynomials, Bernoulli numbers, probabilist's
Hermite polynomials, and constrained multiplicity vectors.

Conventions
-----------
* Rationals are ``fractions.Fraction`` throughout (always lowest terms,
  positive denominator).  Those built from an int pair in bulk, the
  coefficients of a correction polynomial and the cumulants derived from
  moments, come from ``_fraction``, which reduces the pair by one gcd
  and fills the Fraction's slots directly, through the helpers
  ``_recurrence._reduced`` and ``_filled`` that ``exact`` shares.
* Bernoulli numbers follow the generating function ``t / (e^t - 1)``,
  so ``B_1 = -1/2``.  Only even indices are consumed downstream, where
  both common sign conventions agree.
* Hermite polynomials are the probabilist's family, orthogonal for the
  weight ``exp(-x^2/2)``: ``H_2 = x^2 - 1``.  This is NOT the
  physicist's family (``exp(-x^2)`` weight, ``H_2 = 4x^2 - 2``).  Their
  coefficients are integers, read off the closed form (DLMF section
  18.5).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from numbers import Rational
from operator import index
from typing import Iterable, Union

from extbinom._recurrence import _filled, _int, _reduced

Scalar = Union[int, Fraction]


def _fraction(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) for ints with denominator >= 1:
    the pair reduced by one gcd (``_recurrence._reduced``), its slots
    filled without running ``Fraction.__new__`` (``_recurrence._filled``).
    """
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


def _exact(c) -> Fraction:
    """A polynomial coefficient other than an exact Fraction, as a
    Fraction of Python ints: a float exactly, any other value by
    ``_ratio``."""
    if isinstance(c, float):
        return Fraction(c)
    return _fraction(*_ratio(c, "a coefficient"))


class RationalPolynomial:
    """Dense polynomial with exact Fraction coefficients; coeffs[i] is the
    coefficient of x**i.

    Trailing zero coefficients are stripped on construction, so equal
    polynomials always compare equal.  A coefficient of type exactly
    Fraction whose numerator and denominator are Python ints is kept as
    it is (it is immutable); a float is converted exactly; any other
    ``numbers.Rational`` (an int, a bool, a numpy integer, a Fraction of
    numpy integers, a Fraction subclass) becomes the Fraction of its
    numerator and denominator as Python ints, and anything else raises
    TypeError.  The correction builders, whose Fractions are all of
    Python ints, construct through ``_of_fractions``, which skips that
    check.
    Evaluation at int or Fraction points is exact; at anything else
    (floats, numpy arrays) it runs a floating Horner scheme on float
    coefficients converted once, on the first such call, stepping in
    place on one new array so that x is never written; it skips the add
    of each zero coefficient but the constant, with the bits of the full
    scheme.

    Supports ``p + r``, ``c * p`` and ``p * c`` for an int or Fraction
    scalar c, ``==``, hashing, ``repr``, ``degree`` and ``is_zero``.  The
    correction builders assemble their sums in integers instead; the
    arithmetic serves the tests' partition oracles and worked identities.
    """

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs: Iterable[Scalar]) -> None:
        self._fill([
            c if type(c) is Fraction
            and type(c.numerator) is int and type(c.denominator) is int
            else _exact(c)
            for c in coeffs
        ])

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
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        if self._floats is None:
            self._floats = tuple(float(c) for c in reversed(self.coeffs))
        top, *rest = self._floats
        acc = 0.0 * x + top  # a new array, or float, with the first step's bits
        for c in rest:  # in place: the same IEEE steps, no temporaries
            acc *= x
            if c:  # + 0.0 changes at most the sign of a zero, and the next
                acc += c  # nonzero add or the last + 0.0 gives the same bits
        return acc if self._floats[-1] else acc + 0.0

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
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
    """The integer coefficients of H_m, that of x**i at index i.

    Closed form (DLMF section 18.5): the coefficient of x^(m-2j) is
    (-1)^j m! / (j! (m-2j)! 2^j) for j = 0..m//2, and every coefficient
    of the other parity is zero.  Each coefficient follows from the
    previous one by an exact integer step, so H_m costs O(m) integer
    operations.  Memoized, since the correction builders read these ints
    and the builders of orders 1..V for one q share most degrees; an
    immutable tuple, so every caller can share it.
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

    One solution per integer partition of ``order``.  Emitted by
    recursive descent on the largest part index; callers must not rely
    on the order (set semantics).  The correction builders no longer
    enumerate partitions: this serves the tests as the oracle for their
    power series, and the benchmark as a partition counter.
    """
    order = _int(order, "order")
    out: list[tuple[int, ...]] = []
    ks = [0] * order

    def descend(m: int, remaining: int) -> None:
        if m == 1:
            ks[0] = remaining
            out.append(tuple(ks))
            ks[0] = 0
            return
        for k in range(remaining // m + 1):
            ks[m - 1] = k
            descend(m - 1, remaining - m * k)
        ks[m - 1] = 0

    descend(order, order)
    return out
