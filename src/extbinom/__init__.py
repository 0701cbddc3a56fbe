"""Exact extended binomial coefficients, the coefficients of
``(1 + x + ... + x^q)**n``, together with their Gaussian approximation
refined by explicitly constructed higher-order correction terms, and a
harness that measures the approximation's uniform error and empirical
convergence rate against the exact values.

Every public name loads on first use: ``import extbinom`` imports no
submodule, and ``extbinom.compute_row`` (or ``from extbinom import
compute_row``) imports only ``extbinom.exact`` and what it needs.
"""

import importlib

# the public names, by the submodule that exports them; cumulants re-exports
# special's cumulant, edgeworth its approximate_scaled, exact_scaled_value, standardize
_EXPORTS = {
    "cumulants": ("CumulantVector", "cumulant", "cumulants_from_moments",
                  "cumulants_up_to"),
    "edgeworth": ("GaussianPolynomial", "approximate_scaled",
                  "correction_from_cumulants", "exact_scaled_value", "standardize",
                  "uniform_correction"),
    "exact": ("BigRow", "coefficient", "composition_count", "compute_row",
              "iter_rows", "scaled_probability"),
    "harness": ("SweepRecord", "SweepReport", "central_ratio",
                "first_order_cross_check", "rate_sweep", "uniform_error"),
    "special": ("RationalPolynomial", "bernoulli", "enumerate_partition_solutions",
                "hermite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, bound on the package by its import
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
