"""Exact-rational kernel: polynomials, Bernoulli numbers, probabilist's
Hermite polynomials, and constrained multiplicity vectors.

Conventions
-----------
* Rationals are ``fractions.Fraction`` throughout (always lowest terms,
  positive denominator).
* Bernoulli numbers follow the generating function ``t / (e^t - 1)``,
  so ``B_1 = -1/2``.  Only even indices are consumed downstream, where
  both common sign conventions agree.
* Hermite polynomials are the probabilist's family, orthogonal for the
  weight ``exp(-x^2/2)``: ``H_2 = x^2 - 1``.  This is NOT the
  physicist's family (``exp(-x^2)`` weight, ``H_2 = 4x^2 - 2``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class RationalPolynomial:
    """Dense polynomial with exact Fraction coefficients; coeffs[i] is the
    coefficient of x**i.

    Trailing zero coefficients are stripped on construction, so equal
    polynomials always compare equal.  Evaluation at int or Fraction
    points is exact; at anything else (floats, numpy arrays) it runs a
    floating Horner scheme on float coefficients converted once, on the
    first such call.
    """

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs: Iterable[Scalar]) -> None:
        cs = [Fraction(c) for c in coeffs]
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
        acc = 0.0
        for c in self._floats:
            acc = acc * x + c
        return acc

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:] or [0]
        )

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, RationalPolynomial):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPolynomial(out)
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


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m, exact.

    Computed from the defining recurrence
    ``sum_{j=0..m} C(m+1, j) B_j = 0`` with ``B_0 = 1``, which forces
    ``B_1 = -1/2`` and zero at every odd index above 1.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


@lru_cache(maxsize=None)
def hermite(m: int) -> RationalPolynomial:
    """Probabilist's Hermite polynomial H_m, exact coefficients.

    Three-term recurrence: H_0 = 1, H_1 = x,
    H_{m+1}(x) = x*H_m(x) - m*H_{m-1}(x).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    h_prev = RationalPolynomial([1])
    if m == 0:
        return h_prev
    x = RationalPolynomial([0, 1])
    h = x
    for j in range(1, m):
        h_prev, h = h, x * h - j * h_prev
    return h


def enumerate_partition_solutions(order: int) -> list[tuple[int, ...]]:
    """All nonnegative (k_1, ..., k_order) with k_1 + 2*k_2 + ... = order.

    One solution per integer partition of ``order``.  Emitted by
    recursive descent on the largest part index; callers must not rely
    on the order (set semantics).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
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
