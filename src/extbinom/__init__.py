"""Exact extended binomial coefficients, the coefficients of
``(1 + x + ... + x^q)**n``, together with their Gaussian approximation
refined by explicitly constructed higher-order correction terms, and a
harness that measures the approximation's uniform error and empirical
convergence rate against the exact values.
"""

from extbinom.cumulants import (
    CumulantVector,
    cumulant,
    cumulants_from_moments,
    cumulants_up_to,
)
from extbinom.edgeworth import (
    GaussianPolynomial,
    approximate_scaled,
    correction_from_cumulants,
    standardize,
    uniform_correction,
)
from extbinom.exact import (
    BigRow,
    coefficient,
    composition_count,
    compute_row,
    iter_rows,
    scaled_probability,
)
from extbinom.harness import (
    SweepRecord,
    SweepReport,
    central_ratio,
    exact_scaled_value,
    first_order_cross_check,
    rate_sweep,
    uniform_error,
)
from extbinom.special import (
    RationalPolynomial,
    bernoulli,
    enumerate_partition_solutions,
    hermite,
)

__all__ = [
    "BigRow",
    "CumulantVector",
    "GaussianPolynomial",
    "RationalPolynomial",
    "SweepRecord",
    "SweepReport",
    "approximate_scaled",
    "bernoulli",
    "central_ratio",
    "coefficient",
    "composition_count",
    "compute_row",
    "correction_from_cumulants",
    "cumulant",
    "cumulants_from_moments",
    "cumulants_up_to",
    "enumerate_partition_solutions",
    "exact_scaled_value",
    "first_order_cross_check",
    "hermite",
    "iter_rows",
    "rate_sweep",
    "scaled_probability",
    "standardize",
    "uniform_correction",
    "uniform_error",
]
