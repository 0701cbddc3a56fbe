"""Exact extended binomial coefficients, the coefficients of
``(1 + x + ... + x^q)**n``, together with their Gaussian approximation
refined by explicitly constructed higher-order correction terms, and a
harness that measures the approximation's uniform error and empirical
convergence rate against the exact values.

Every public name loads on first use, from the submodule that defines
it: ``import extbinom`` imports no submodule, and ``extbinom.compute_row``
(or ``from extbinom import compute_row``) imports only ``extbinom.exact``
and what it needs.  The float layer and ``cumulant`` load
``extbinom.special`` alone, which defines no record.
"""

import importlib

# the public names, by the submodule that defines them
_EXPORTS = {
    "cumulants": ("CumulantVector", "cumulants_from_moments", "cumulants_up_to"),
    "edgeworth": ("GaussianPolynomial", "correction_from_cumulants",
                  "uniform_correction"),
    "exact": ("BigRow", "coefficient", "composition_count", "compute_row",
              "iter_rows", "scaled_probability"),
    "harness": ("SweepRecord", "SweepReport", "central_ratio",
                "first_order_cross_check", "rate_sweep", "uniform_error"),
    "special": ("RationalPolynomial", "approximate_scaled", "bernoulli", "cumulant",
                "enumerate_partition_solutions", "exact_scaled_value", "hermite",
                "standardize"),
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
