"""Cumulants of the uniform distribution on {0, ..., q}, exact: by the
closed form, and from raw moments to cross-validate it.

The computations are in the record-free kernel ``extbinom.special``,
which the CLI reads without loading ``dataclasses``; this module wraps
its cumulant tuples in a ``CumulantVector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from extbinom._recurrence import _int
from extbinom.special import gammas_from_moments, gammas_up_to


@dataclass(frozen=True)
class CumulantVector:
    """Cumulants gamma_1..gamma_K of a distribution; gammas[i] is the
    cumulant of order i + 1."""

    gammas: tuple[Fraction, ...]

    def gamma(self, k: int) -> Fraction:
        """Cumulant of order k (1-based)."""
        k = _int(k, "cumulant order")
        if k > len(self.gammas):
            raise ValueError(
                f"cumulant order {k} outside stored range 1..{len(self.gammas)}"
            )
        return self.gammas[k - 1]

    def __len__(self) -> int:
        return len(self.gammas)


def cumulants_up_to(order: int, q: int) -> CumulantVector:
    """Cumulants gamma_1..gamma_order of the uniform on {0, ..., q}."""
    return CumulantVector(gammas=gammas_up_to(order, q))


def cumulants_from_moments(order: int, q: int) -> CumulantVector:
    """Same cumulants derived from raw moments, as an independent check,
    by ``special.gammas_from_moments``."""
    return CumulantVector(gammas=gammas_from_moments(order, q))
