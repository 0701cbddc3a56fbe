"""Cumulants of the uniform distribution on {0, ..., q}, exact.

The production path is the closed form: gamma_1 = q/2, every odd
cumulant above the first vanishes, and

    gamma_{2l} = B_{2l} / (2l) * ((q+1)^{2l} - 1)

with B the Bernoulli numbers.  ``cumulants_from_moments`` derives the
same values independently from raw moments and the standard
moment-to-cumulant recursion, and exists purely to cross-validate the
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, index, mul

from extbinom.special import bernoulli


@dataclass(frozen=True)
class CumulantVector:
    """Cumulants gamma_1..gamma_K of a distribution; gammas[i] is the
    cumulant of order i + 1."""

    gammas: tuple[Fraction, ...]

    def gamma(self, k: int) -> Fraction:
        """Cumulant of order k (1-based)."""
        if not 1 <= k <= len(self.gammas):
            raise ValueError(
                f"cumulant order {k} outside stored range 1..{len(self.gammas)}"
            )
        return self.gammas[k - 1]

    def __len__(self) -> int:
        return len(self.gammas)


def _check_kq(k: int, q: int) -> tuple[int, int]:
    """k and q as Python ints (a numpy integer's powers would wrap), each
    at least 1."""
    k, q = index(k), index(q)
    if k < 1:
        raise ValueError(f"cumulant order must be >= 1, got {k}")
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    return k, q


@lru_cache(maxsize=1024, typed=True)
def cumulant(k: int, q: int) -> Fraction:
    """Cumulant gamma_k of the uniform distribution on {0, ..., q}; memoized
    per argument type, so a float q fails as it would uncached."""
    k, q = _check_kq(k, q)
    if k == 1:
        return Fraction(q, 2)
    if k % 2 == 1:
        return Fraction(0)
    # k = 2l: gamma_k = B_k / k * ((q+1)^k - 1)
    b = bernoulli(k)
    return Fraction(b.numerator * ((q + 1) ** k - 1), b.denominator * k)


def cumulants_up_to(order: int, q: int) -> CumulantVector:
    """Cumulants gamma_1..gamma_order of the uniform on {0, ..., q}."""
    order, q = _check_kq(order, q)
    return CumulantVector(gammas=tuple(cumulant(k, q) for k in range(1, order + 1)))


def cumulants_from_moments(order: int, q: int) -> CumulantVector:
    """Same cumulants derived from raw moments, as an independent check.

    The raw moments are m_j = S_j / Q with the power sums
    S_j = sum_{v=0..q} v**j and Q = q + 1, each S_j from the lower ones
    by Pascal's identity sum_{i=0..j} C(j+1, i) S_i = Q^(j+1), so the
    cost does not grow with q and no Bernoulli number enters; the usual
    recursion gamma_k = m_k - sum_{j=1..k-1} C(k-1, j-1) gamma_j m_{k-j}
    converts them.  It runs in integers on M_j = m_j Q^j = S_j Q^(j-1)
    and Gamma_k = gamma_k Q^k:

        Gamma_k = M_k - sum_{j=1..k-1} C(k-1, j-1) Gamma_j M_{k-j}

    and each cumulant is returned as Fraction(Gamma_k, Q**k).  The
    binomials come from Pascal rows carried from one k to the next.
    """
    order, q = _check_kq(order, q)
    big_q = q + 1
    powers = [1, big_q]  # powers[j] = Q**j
    sums = [big_q]  # sums[j] = S_j, each added by Pascal's identity
    moments = [1]  # moments[j] = M_j
    scaled: list[int] = []  # scaled[k - 1] = Gamma_k
    # Pascal rows C(k-1, .), C(k, .) and C(k+1, .)
    below, middle, above = [1], [1, 1], [1, 2, 1]
    for k in range(1, order + 1):
        powers.append(powers[k] * big_q)
        # zip stops at the shorter list: i = 0..k-1 here, j = 1..k-1 below
        sums.append((powers[k + 1] - sum(map(mul, above, sums))) // (k + 1))
        tail = sum(map(mul, map(mul, below, scaled), reversed(moments)))
        moments.append(sums[k] * powers[k - 1])
        scaled.append(moments[k] - tail)
        below, middle, above = middle, above, [1, *map(add, above, above[1:]), 1]
    return CumulantVector(
        gammas=tuple(Fraction(g, powers[k]) for k, g in enumerate(scaled, 1))
    )
