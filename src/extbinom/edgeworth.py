"""Correction terms refining the Gaussian approximation of the scaled
coefficient rows.

A correction term is ``(1/sqrt(2*pi)) * exp(-x^2/2) * P(x)`` with an exact
polynomial part P, a ``GaussianPolynomial``.  The construction applies to
integer lattice distributions of maximal span 1 (support not contained in
any coarser progression a + h*Z with h > 1).  The uniform on {0, ..., q}
has adjacent support points, so the condition holds automatically and is
not exposed as a parameter.

The builders and the float layer are in the record-free kernel
``extbinom.special``, which the CLI reads without loading
``dataclasses``; this module wraps each polynomial in a
``GaussianPolynomial``, and re-exports ``approximate_scaled`` and
``standardize`` for ``perfbench/worker.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational

from extbinom.cumulants import CumulantVector
from extbinom.special import (
    RationalPolynomial,
    approximate_scaled,
    gaussian,
    general_polynomial,
    standardize,
    uniform_polynomial,
)


@dataclass(frozen=True)
class GaussianPolynomial:
    """``(1/sqrt(2*pi)) * exp(-x**2/2) * poly(x)`` with exact poly part.

    Evaluated in floats at a real x or over a float array, whose entries
    have the scalar calls' bits.  Immutable; instances are shared freely.
    """

    poly: RationalPolynomial

    def __call__(self, x):
        # 1.0 * x is float(x) for an int or Fraction, and leaves a float
        # or float array as it is, -0.0 included
        return gaussian(x) * self.poly(1.0 * x)


def correction_from_cumulants(
    order: int, cumulants: CumulantVector, variance: Rational
) -> GaussianPolynomial:
    """Correction term of the given order for a lattice distribution of
    span 1, built from its raw cumulants, which must reach order + 2,
    and its variance: ``special.general_polynomial``.  The term of
    order v pairs with n**(-v/2) in the series.  An odd order raises
    ValueError unless its every weight is zero."""
    return GaussianPolynomial(poly=general_polynomial(order, cumulants.gammas, variance))


def uniform_correction(order: int, q: int) -> GaussianPolynomial:
    """Correction term of the given order for the uniform on {0, ..., q}:
    ``special.uniform_polynomial``, which is memoized.  All odd cumulants
    of the uniform vanish, so it equals ``correction_from_cumulants(2 *
    order, ...)`` on the uniform's cumulants, and pairs with n**-order."""
    return GaussianPolynomial(poly=uniform_polynomial(order, q))
