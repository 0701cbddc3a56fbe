"""Independent checks for the benchmark's operations.

Stdlib only.  Nothing here calls into extbinom: the coefficient oracle
is the inclusion-exclusion formula, and the renderers follow the CSV and
JSON output contract stated in the README, so a check can only pass when
the program's output agrees with a derivation it does not share.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

SLOPE_TOLERANCE = 0.3  # the README's +-0.3 on fitted decay slopes
RATIO_RTOL = 1e-12


@lru_cache(maxsize=None)
def ext_binom(n: int, k: int, q: int) -> int:
    """Coefficient of x**k in (1 + x + ... + x**q)**n by inclusion-exclusion:
    sum_j (-1)**j C(n, j) C(k - j(q+1) + n - 1, n - 1)."""
    if not 0 <= k <= n * q:
        return 0
    big_q, r = q + 1, n - 1
    top = min(n, k // big_q)
    a = 1  # C(n, j)
    m = k + n - 1
    b = math.comb(m, r)  # C(m, r) with m = k - j(q+1) + n - 1
    total = 0
    for j in range(top + 1):
        total += -a * b if j % 2 else a * b
        if j == top:
            break
        a = a * (n - j) // (j + 1)
        for _ in range(big_q):  # C(m-1, r) = C(m, r) (m - r) / m, exact
            b = b * (m - r) // m
            m -= 1
    return total


def check_row(n: int, q: int, coeffs, ks) -> bool:
    """A row sums to (q+1)**n, is symmetric, and matches the oracle at ks."""
    return (
        len(coeffs) == n * q + 1
        and sum(coeffs) == (q + 1) ** n
        and all(coeffs[i] == coeffs[-1 - i] for i in range(len(coeffs) // 2))
        and all(coeffs[k] == ext_binom(n, k, q) for k in ks)
    )


def check_query(n: int, q: int, k: int, values) -> bool:
    """values = (coefficient(n, k, q), scaled_probability(n, k, q),
    composition_count(k + n, n, q + 1), central_ratio(n, q))."""
    coeff, prob, compositions, ratio = values
    exact = ext_binom(n, k, q)
    centre = ext_binom(n, n * q // 2, q)
    expected_ratio = centre / (q + 1) ** n * math.sqrt(2 * math.pi * n * q * (q + 2) / 12)
    return (
        coeff == exact
        and prob == Fraction(exact, (q + 1) ** n)
        and compositions == exact
        and math.isclose(ratio, expected_ratio, rel_tol=RATIO_RTOL)
    )


def slope_deviation(order: int, slope: float) -> float:
    """|fitted_slope + (order + 1)|: distance from the predicted decay rate."""
    return abs(slope + (order + 1))


def check_sweep(order: int, ns, records, slope: float) -> bool:
    return (
        [r.n for r in records] == list(ns)
        and all(0 < r.sup_error < math.inf for r in records)
        and slope_deviation(order, slope) <= SLOPE_TOLERANCE
    )


def check_correction(closed, moments, uniform, general) -> bool:
    """Closed-form and moment-derived cumulants agree exactly, and the
    Bernoulli closed form equals the general construction (when built)."""
    return (
        tuple(closed.gammas) == tuple(moments.gammas)
        and not uniform.poly.is_zero
        and (general is None or uniform.poly.coeffs == general.poly.coeffs)
    )


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: list[dict], comments=()) -> str:
    """Header row, one line per row, LF endings, '#' comment lines last.
    Rationals render as p/q, floats with round-trip precision."""
    lines = [",".join(rows[0])]
    lines += [",".join(_cell(v) for v in row.values()) for row in rows]
    lines += [f"# {c}" for c in comments]
    return "\n".join(lines) + "\n"


def render_json(rows: list[dict]) -> str:
    """An array of objects mirroring the CSV rows; rationals as "p/q"."""
    payload = [
        {k: str(v) if isinstance(v, Fraction) else v for k, v in row.items()}
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"
