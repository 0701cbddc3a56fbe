"""Correction terms refining the Gaussian approximation of the scaled
coefficient rows.

A correction term is a function ``(1/sqrt(2*pi)) * exp(-x^2/2) * P(x)``
with an exact polynomial part P, a ``GaussianPolynomial``.  Two builders
make it, from the same cumulant bases and by different series
algorithms:

``correction_from_cumulants``
    The general construction for any symmetric lattice distribution,
    given its cumulants and variance, by the J.C.P. Miller recurrence
    for exp(y G(t)).  The term of order v pairs with n**(-v/2) in the
    series.

``uniform_correction``
    The uniform distribution on {0, ..., q}, by successive integer
    powers of G, with sigma^2 = ``cumulant(2, q)``.  All its odd
    cumulants vanish, so only even general terms survive:
    ``uniform_correction(v, q)`` equals ``correction_from_cumulants(2*v,
    ...)``, and the term of order v pairs with n**-v.  The test suite
    asserts that the two routes agree coefficient by coefficient.

The construction applies to integer lattice distributions of maximal
span 1 (support not contained in any coarser progression a + h*Z with
h > 1).  The uniform on {0, ..., q} has adjacent support points, so the
condition holds automatically and is not exposed as a parameter.

The builders and the float layer (``gaussian``, ``standardize``,
``exact_scaled_value``, ``approximate_scaled``) live in the record-free
kernel ``extbinom.special``, which memoizes each uniform polynomial;
this module wraps each polynomial in a ``GaussianPolynomial`` and
re-exports the float layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational

from extbinom.cumulants import CumulantVector
from extbinom.special import (  # the float layer is re-exported
    RationalPolynomial,
    approximate_scaled,
    exact_scaled_value,
    gaussian,
    general_polynomial,
    standardize,
    uniform_polynomial,
)


@dataclass(frozen=True)
class GaussianPolynomial:
    """``(1/sqrt(2*pi)) * exp(-x**2/2) * poly(x)`` with exact poly part.

    Immutable; instances are shared freely.
    """

    poly: RationalPolynomial

    def __call__(self, x: float) -> float:
        return gaussian(x) * self.poly(float(x))


def correction_from_cumulants(
    order: int, cumulants: CumulantVector, variance: Rational
) -> GaussianPolynomial:
    """Correction term of the given order built from raw cumulants, which
    must reach order + 2: ``special.general_polynomial``.  An odd order
    raises ValueError unless its every weight is zero."""
    return GaussianPolynomial(poly=general_polynomial(order, cumulants.gammas, variance))


def uniform_correction(order: int, q: int) -> GaussianPolynomial:
    """Correction term of the given order for the uniform on {0, ..., q}:
    ``special.uniform_polynomial``, which is memoized."""
    return GaussianPolynomial(poly=uniform_polynomial(order, q))
